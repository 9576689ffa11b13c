package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked module package under analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the identifier/type resolution the rules consume.
	Info *types.Info
}

// Module is a loaded set of packages sharing one FileSet and one
// directive index; rules run against it.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Dir is the module root directory.
	Dir string
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Pkgs are the analyzed packages, sorted by import path.
	Pkgs []*Package

	hotpath           map[*ast.FuncDecl]*Package
	allows            map[string][]allowRange
	directiveProblems []Diagnostic
}

// Loader parses and type-checks packages without golang.org/x/tools:
// module-internal import paths resolve to directories by stripping the
// module prefix, standard-library paths resolve into GOROOT/src (and
// GOROOT/src/vendor), and everything is type-checked from source. The
// module's zero-require policy makes this complete — there are no
// third-party imports to resolve.
type Loader struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// ModulePath overrides the module path; read from go.mod when
	// empty.
	ModulePath string

	fset *token.FileSet
	ctxt build.Context
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	types    *types.Package
	analysis *Package
	err      error
	loading  bool
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{Dir: abs, fset: token.NewFileSet(), pkgs: map[string]*loadEntry{}}
	l.ctxt = build.Default
	// Constraint evaluation only; never compile cgo. Every stdlib
	// package the simulator pulls in has a pure-Go fallback.
	l.ctxt.CgoEnabled = false
	if l.ModulePath == "" {
		mp, err := modulePath(filepath.Join(abs, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.ModulePath = mp
	}
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadModule walks the module tree, loads every non-test package
// (skipping testdata, hidden and underscore-prefixed directories), and
// returns the Module with its directive index built.
func (l *Loader) LoadModule() (*Module, error) {
	var dirs []string
	err := filepath.WalkDir(l.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l.LoadDirs(dirs...)
}

// LoadDirs loads the packages in the given directories (directories
// without buildable Go sources are skipped) and returns them as a
// Module. Paths may be absolute or relative to the module root.
func (l *Loader) LoadDirs(dirs ...string) (*Module, error) {
	m := &Module{
		Path: l.ModulePath, Dir: l.Dir, Fset: l.fset,
		hotpath: map[*ast.FuncDecl]*Package{},
		allows:  map[string][]allowRange{},
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.Dir, dir)
		}
		imp, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		if seen[imp] {
			continue
		}
		seen[imp] = true
		if _, err := l.ctxt.ImportDir(dir, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, fmt.Errorf("analysis: %s: %w", dir, err)
		}
		pkg, err := l.load(imp)
		if err != nil {
			return nil, err
		}
		if pkg.analysis == nil {
			return nil, fmt.Errorf("analysis: %s resolved outside the module", dir)
		}
		m.Pkgs = append(m.Pkgs, pkg.analysis)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	m.collectDirectives()
	return m, nil
}

// pathFor maps a directory under the module root to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Dir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Dir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	e, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return e.types, nil
}

// load type-checks the package at import path, memoized. Module
// packages get full syntax, comments and types.Info; dependencies
// outside the module (the standard library) are checked for their
// exported API only.
func (l *Loader) load(path string) (*loadEntry, error) {
	if path == "unsafe" {
		return &loadEntry{types: types.Unsafe}, nil
	}
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return e, e.err
	}
	e := &loadEntry{loading: true}
	l.pkgs[path] = e

	inModule := path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
	dir, err := l.resolveDir(path, inModule)
	if err == nil {
		err = l.check(e, path, dir, inModule)
	}
	e.loading = false
	if err != nil {
		e.err = fmt.Errorf("analysis: loading %q: %w", path, err)
	}
	return e, e.err
}

// resolveDir maps an import path to its source directory.
func (l *Loader) resolveDir(path string, inModule bool) (string, error) {
	if inModule {
		return filepath.Join(l.Dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))), nil
	}
	goroot := runtime.GOROOT()
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import (not in module %s, GOROOT/src or GOROOT/src/vendor)", l.ModulePath)
}

// check parses and type-checks one package directory into e.
func (l *Loader) check(e *loadEntry, path, dir string, inModule bool) error {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return err
	}
	mode := parser.SkipObjectResolution
	if inModule {
		mode |= parser.ParseComments
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	var info *types.Info
	if inModule {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tp, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return errors.Join(typeErrs...)
	}
	if err != nil {
		return err
	}
	e.types = tp
	if inModule {
		e.analysis = &Package{Path: path, Dir: dir, Files: files, Types: tp, Info: info}
	}
	return nil
}
