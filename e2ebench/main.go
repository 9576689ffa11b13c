// Command e2ebench is the repository's end-to-end benchmark. One run
// measures one workload — the paper's Fig. 7 MPKI sweep into an empty
// capture store (fig7_cold) or over a filled one (fig7_warm), or the
// Fig. 8 timing sweep (fig8_timing) — through the experiments package's
// public entry points, checks the outputs, and prints one JSON result
// as its last stdout line:
//
//	bash e2ebench/run.sh --workload fig7_warm --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 a traced run rebuilds every job from the layers' public
// calls and reports the per-layer metrics of layers.json. Every timed
// sweep runs in a child process of this binary, so peak RSS and
// in-process stream caches belong to that sweep alone.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// layerDef is one per-layer metric and the end-to-end metrics (moves)
// on the workloads (on) it is expected to move.
type layerDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	Note   string   `json:"note,omitempty"`
}

//go:embed layers.json
var layersJSON []byte

func layerDefs() []layerDef {
	var defs []layerDef
	if err := json.Unmarshal(layersJSON, &defs); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return defs
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"peak_rss_mib", "MiB"},
}

var workloadNames = []string{"fig7_cold", "fig7_warm", "fig8_timing"}

const (
	walkPenalty = 150 // fig8 walk penalty in cycles, the paper's
	minSweeps   = 3   // fewest timed sweeps per run
	warmFills   = 3   // fig7_warm set-ups per run, each a cold sweep
	refSampleN  = 8   // workloads re-run through the reference driver
	// pinnedSeed is the seed whose reference results baseline.json
	// records, so every run, whatever its seed, also checks results
	// against an earlier one.
	pinnedSeed = 0
)

// workers is the engine's worker count: one per CPU.
var workers = runtime.NumCPU()

//go:embed baseline.json
var baselineJSON []byte

// referenceDigests are the reference digests baseline.json records,
// keyed by refKey.
var referenceDigests = func() map[string]string {
	var b struct {
		Digests map[string]string `json:"reference_digests"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic(fmt.Sprintf("baseline.json: %v", err))
	}
	return b.Digests
}()

// config is one run's parameters. The defaults are the benchmark; the
// scale flags exist for the benchmark's own tests.
type config struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	fig7N    int
	fig8N    int
	instr    uint64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var c config
	var traceFlag int
	fl.StringVar(&c.root, "root", ".", "repository checkout root (work files go under <root>/.bench_build)")
	fl.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Uint64Var(&c.seed, "seed", 0, "master seed for the default workload spec (0 reproduces the legacy suite)")
	fl.Float64Var(&c.seconds, "seconds", 30, "how long the timed loop runs")
	fl.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fl.IntVar(&c.fig7N, "fig7-n", 0, "fig7 suite prefix (0 = the full 870-workload suite)")
	fl.IntVar(&c.fig8N, "fig8-n", 32, "fig8 suite prefix")
	fl.Uint64Var(&c.instr, "instr", 1_000_000, "instructions per trace")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	c.trace = traceFlag == 1
	if !contains(workloadNames, c.workload) || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload one of %s and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(c.root, ".bench_build", "e2ebench", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	host := fingerprint(c.root)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hj)
	r := &runner{c: c, ctx: ctx, work: work, stdout: stdout, stderr: stderr}
	res, err := r.run()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	b, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

type runner struct {
	c      config
	ctx    context.Context
	work   string
	stdout io.Writer
	stderr io.Writer

	suite     []*workloads.Workload // compiled by prepare, for the checks
	reference [][]float64           // the first sweep's matrix; for fig7_warm, the fill's
	stores    int                   // cold stores made, for their names
	attempted int
	failed    int
}

func (r *runner) exp() string {
	if r.c.workload == "fig8_timing" {
		return "fig8"
	}
	return "fig7"
}

// suiteN is the suite prefix the workload runs (0 = the full suite).
func (r *runner) suiteN() int {
	if r.exp() == "fig8" {
		return r.c.fig8N
	}
	return r.c.fig7N
}

func (r *runner) spec(storeDir string) childSpec {
	return childSpec{Exp: r.exp(), Seed: r.c.seed, N: r.suiteN(), Instr: r.c.instr, StoreDir: storeDir}
}

// child runs one child process and decodes its output. It returns the
// child's peak RSS in MiB.
func (r *runner) child(mode string, cs childSpec, out *childOut) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	arg, _ := json.Marshal(cs)
	cmd := exec.CommandContext(r.ctx, exe, string(arg))
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, r.stderr
	runErr := cmd.Run()
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return 0, fmt.Errorf("%s child: %v (output %q)", mode, errors.Join(runErr, err), buf.String())
	}
	if out.Err != "" {
		return 0, fmt.Errorf("%s child: %s", mode, out.Err)
	}
	if runErr != nil {
		return 0, fmt.Errorf("%s child: %w", mode, runErr)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return rss, nil
}

// prepare compiles the suite for the checks and, for fig7_warm, fills
// the warm store with fills cold sweeps, each in a child process. It
// returns each fill's time — its set-up, sweep and store close, as the
// child timed them — and the warm store's directory ("" otherwise).
func (r *runner) prepare(fills int) (fillTimes []float64, warmDir string, err error) {
	if r.suite, err = compileSuite(r.c.seed, r.suiteN()); err != nil {
		return nil, "", err
	}
	if r.c.workload != "fig7_warm" {
		return nil, "", nil
	}
	warmDir = filepath.Join(r.work, "warm-store")
	for k := 0; k < fills; k++ {
		if err := freshDir(warmDir); err != nil {
			return nil, "", err
		}
		var out childOut
		if _, err := r.child("sweep", r.spec(warmDir), &out); err != nil {
			return nil, "", fmt.Errorf("filling the warm store: %w", err)
		}
		r.check(&out)
		fillTimes = append(fillTimes, out.SetupS+out.WallS)
	}
	// Write the filled store back now, not in the kernel's own time
	// during the timed sweeps.
	syscall.Sync()
	return fillTimes, warmDir, nil
}

// sweepStore returns the capture store a sweep runs over: the store
// set-up filled for fig7_warm, a new empty one for fig7_cold, none for
// fig8_timing.
func (r *runner) sweepStore(warmDir string) (string, error) {
	if r.c.workload != "fig7_cold" {
		return warmDir, nil
	}
	r.stores++
	dir := filepath.Join(r.work, fmt.Sprintf("cold-store-%d", r.stores))
	return dir, freshDir(dir)
}

// dropStore returns the MiB a sweep left in its store and deletes a
// fig7_cold store, so no run keeps more than one.
func (r *runner) dropStore(dir string) float64 {
	if dir == "" {
		return 0
	}
	mib := float64(sumBytes(diskUsage(dir))) / (1 << 20)
	if r.c.workload == "fig7_cold" {
		os.RemoveAll(dir)
	}
	return mib
}

func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// check counts a sweep's cells as attempted and, as failed, the cells
// that did not complete, hold an impossible value, or differ bit for
// bit from the first sweep of the run (for fig7_warm: from the cold
// sweep that filled its store).
func (r *runner) check(out *childOut) {
	want := len(r.suite) * len(sim.PaperPolicies)
	r.attempted += want
	if out.ExpErr != "" || len(out.Matrix) != len(r.suite) {
		r.failed += want
		return
	}
	bad := 0
	for _, row := range out.Matrix {
		for _, v := range row {
			ok := v >= 0 && !math.IsInf(v, 0) // false for NaN too
			if r.exp() == "fig8" {
				ok = ok && v > 0 // every speedup ratio of a completed cell
			}
			if !ok {
				bad++
			}
		}
	}
	if r.reference == nil {
		r.reference = out.Matrix
	} else {
		bad += diffCells(r.reference, out.Matrix)
	}
	r.failed += min(bad, want)
}

// diffCells counts cells of b that differ bit for bit from a.
func diffCells(a, b [][]float64) int {
	bad := 0
	for i := range a {
		if i >= len(b) || len(b[i]) != len(a[i]) {
			bad += len(a[i])
			continue
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				bad++
			}
		}
	}
	for i := len(a); i < len(b); i++ {
		bad += len(b[i])
	}
	return bad
}

// refSample picks the workloads re-run through the reference driver:
// evenly spaced over the suite, the same for every seed.
func (r *runner) refSample() []int {
	n := len(r.suite)
	k := min(refSampleN, n)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// referenceRow re-runs workload w under all six policies through the
// reference driver — sim.RunTLBOnly for fig7; pipeline.New and
// (*Machine).Run for fig8 — and returns each cell's value as the sweep
// reports it: MPKI for fig7, IPC over LRU's IPC for fig8. The raw
// results (fig8: cycles) go into h.
func (r *runner) referenceRow(w *workloads.Workload, facs []sim.NamedFactory, h io.Writer) ([]float64, error) {
	row := make([]float64, len(facs))
	if r.exp() == "fig7" {
		cfg := sim.DefaultTLBOnlyConfig(r.c.instr)
		for k, f := range facs {
			res, err := sim.RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), f.New(), cfg)
			if err != nil {
				return nil, err
			}
			row[k] = res.MPKI
			fmt.Fprintf(h, "%s %s %d %d %x\n", w.Name, f.Name, res.L2Accesses, res.L2Misses, math.Float64bits(res.MPKI))
		}
		return row, nil
	}
	cfg := pipeline.DefaultConfig(r.c.instr, walkPenalty)
	ipc := make([]float64, len(facs))
	for k, f := range facs {
		m, err := pipeline.New(cfg, f.New(), func() tlb.Policy { return policy.NewLRU() })
		if err != nil {
			return nil, err
		}
		res, err := m.Run(trace.NewLimit(w.Source(), cfg.Instructions))
		if err != nil {
			return nil, err
		}
		ipc[k] = res.IPC
		fmt.Fprintf(h, "%s %s %d %d %x\n", w.Name, f.Name, res.Instructions, res.Cycles, math.Float64bits(res.IPC))
	}
	if base := ipc[column("lru")]; base > 0 {
		for k := range ipc {
			row[k] = ipc[k] / base
		}
	}
	return row, nil
}

// referenceCheck re-runs the sampled workloads of suite through the
// reference driver and returns a digest of the raw results. With a
// sweep matrix m of the same suite, each sampled cell also counts as
// attempted, and as failed when it differs from m bit for bit.
func (r *runner) referenceCheck(suite []*workloads.Workload, m [][]float64) (string, error) {
	facs, err := sim.Factories(sim.PaperPolicies)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, i := range r.refSample() {
		row, err := r.referenceRow(suite[i], facs, h)
		if err != nil {
			fmt.Fprintf(h, "%s error %v\n", suite[i].Name, err)
			fmt.Fprintf(r.stderr, "e2ebench: reference %s: %v\n", suite[i].Name, err)
		}
		if m == nil {
			continue
		}
		r.attempted += len(facs)
		if row == nil || i >= len(m) {
			r.failed += len(facs)
			continue
		}
		r.failed += diffCells([][]float64{m[i]}, [][]float64{row})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// refKey names the scale a reference digest was recorded at.
func (r *runner) refKey() string {
	return fmt.Sprintf("%s seed=%d n=%d instr=%d", r.exp(), pinnedSeed, len(r.suite), r.c.instr)
}

// pinnedCheck re-runs the reference sample at pinnedSeed and compares
// the digest of its raw results with the one baseline.json records for
// this scale. It catches a change in simulated results on every run and
// across runs, which the within-run comparisons cannot. A mismatch
// fails every sampled cell; a scale with no recorded digest is not
// checked.
func (r *runner) pinnedCheck() error {
	suite, err := compileSuite(pinnedSeed, r.suiteN())
	if err != nil {
		return err
	}
	got, err := r.referenceCheck(suite, nil)
	if err != nil {
		return err
	}
	want, ok := referenceDigests[r.refKey()]
	if !ok {
		fmt.Fprintf(r.stderr, "e2ebench: no reference digest recorded for %q (got %s); not checked\n", r.refKey(), got)
		return nil
	}
	cells := len(r.refSample()) * len(sim.PaperPolicies)
	r.attempted += cells
	if got != want {
		r.failed += cells
		fmt.Fprintf(r.stderr, "e2ebench: reference digest for %q is %s, baseline.json records %s\n", r.refKey(), got, want)
	}
	return nil
}

func (r *runner) run() (*result, error) {
	syscall.Sync() // start without another run's dirty pages
	run := r.runTimed
	if r.c.trace {
		run = r.runTraced
	}
	res, err := run()
	if err != nil {
		return nil, err
	}
	if err := r.pinnedCheck(); err != nil {
		return nil, err
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	res.Attempted, res.Failed = r.attempted, r.failed
	failedFrac := ratio(float64(r.failed), float64(r.attempted))
	if r.c.trace {
		res.Metrics["failed_frac"] = metric{Value: failedFrac, Unit: "ratio"}
	}
	fmt.Fprintf(r.stdout, "%s seed=%d checks: attempted=%d failed=%d failed_frac=%.4g\n",
		r.c.workload, r.c.seed, r.attempted, r.failed, failedFrac)
	return res, nil
}

// runTimed is an untraced run: prepare, then timed sweeps, each in a
// fresh child process that sets up on its own, until the run has lasted
// --seconds and made at least minSweeps sweeps; then the reference
// check against the first sweep.
func (r *runner) runTimed() (*result, error) {
	fillTimes, warmDir, err := r.prepare(warmFills)
	if err != nil {
		return nil, err
	}
	var setups, walls, cpus, rates, rss, disk, p50s, p90s []float64
	jobs := 0
	start := time.Now()
	for i := 0; i < minSweeps || time.Since(start).Seconds() < r.c.seconds; i++ {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		dir, err := r.sweepStore(warmDir)
		if err != nil {
			return nil, err
		}
		var out childOut
		mib, err := r.child("sweep", r.spec(dir), &out)
		if err != nil {
			return nil, err
		}
		disk = append(disk, r.dropStore(dir))
		r.check(&out)
		if out.ExpErr != "" {
			fmt.Fprintf(r.stderr, "e2ebench: sweep %d failed: %s\n", i, out.ExpErr)
			continue
		}
		// fig7_warm's set-up is filling the store plus its own sweep's
		// set-up over the filled store.
		setups = append(setups, median(fillTimes)+out.SetupS)
		walls = append(walls, out.WallS)
		cpus = append(cpus, out.CPUS)
		rss = append(rss, mib)
		rates = append(rates, r.simInstr(len(out.Labels))/out.WallS/1e6)
		jobMS := make([]float64, len(out.JobNS))
		for k, ns := range out.JobNS {
			jobMS[k] = float64(ns) / 1e6
		}
		jobs += len(jobMS)
		p50s = append(p50s, percentile(jobMS, 50))
		p90s = append(p90s, percentile(jobMS, 90))
	}
	if _, err := r.referenceCheck(r.suite, r.reference); err != nil {
		return nil, err
	}

	// Job percentiles are taken per sweep (a fig7 sweep has 870 jobs, a
	// fig8 sweep 192) and, like every other figure, reported as the
	// median over the run's sweeps.
	vals := map[string][]float64{
		"setup_s": setups, "wall_s": walls, "cpu_s": cpus, "sim_minstr_per_s": rates,
		"job_ms_p50": p50s, "job_ms_p90": p90s, "peak_rss_mib": rss,
	}
	res := &result{Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{Value: median(vals[m.Name]), Unit: m.Unit}
	}
	// One human-readable line: every figure with its within-run spread
	// (IQR / median over the run's sweeps), plus the end-to-end figures
	// kept out of the result because they can be 0.
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s seed=%d sweeps=%d jobs=%d", r.c.workload, r.c.seed, len(walls), jobs)
	for _, m := range endToEnd {
		fmt.Fprintf(&sb, " %s=%.4g%s(±%.1f%%)", m.Name, res.Metrics[m.Name].Value, m.Unit, 100*spread(vals[m.Name]))
	}
	fmt.Fprintf(&sb, " disk_mib=%.4g", median(disk))
	fmt.Fprintln(r.stdout, sb.String())
	return res, nil
}

// simInstr is the simulated work of one sweep over n workloads:
// instructions per trace × workloads × policies.
func (r *runner) simInstr(n int) float64 {
	return float64(r.c.instr) * float64(n) * float64(len(sim.PaperPolicies))
}

// runTraced is a traced run: one untraced sweep (the base of the
// tracing overhead, and the engine and runtime figures), then one
// traced rebuild of the same jobs in a second child, in its own empty
// store for fig7_cold and over the same filled store for fig7_warm.
func (r *runner) runTraced() (*result, error) {
	_, warmDir, err := r.prepare(1)
	if err != nil {
		return nil, err
	}
	dir, err := r.sweepStore(warmDir)
	if err != nil {
		return nil, err
	}
	var base childOut
	if _, err := r.child("sweep", r.spec(dir), &base); err != nil {
		return nil, err
	}
	r.check(&base)
	// The traced pass starts from the same store state as the base
	// sweep; for fig7_cold that means deleting the base sweep's store
	// first, as the timed loop does between sweeps.
	disk := r.dropStore(dir)
	if dir, err = r.sweepStore(warmDir); err != nil {
		return nil, err
	}

	cs := r.spec(dir)
	cs.SpanFile = filepath.Join(r.c.root, ".bench_build", "e2ebench",
		fmt.Sprintf("spans-%s-seed%d.jsonl", r.c.workload, r.c.seed))
	if r.exp() == "fig7" {
		cs.RefSample = r.refSample()
	}
	var tr childOut
	if _, err := r.child("trace", cs, &tr); err != nil {
		return nil, err
	}
	// The traced rebuild must reproduce the untraced sweep bit for bit;
	// its own checks compare the sampled cells with sim.RunTLBOnly field
	// for field.
	r.check(&tr)
	r.attempted += tr.RefCells
	r.failed += tr.RefFailed
	r.dropStore(dir)

	L := tr.Layers
	var jobS float64
	for _, ns := range base.JobNS {
		jobS += float64(ns) / 1e9
	}
	L["engine.job_s_sum"] = jobS
	L["engine.idle_frac"] = 1 - ratio(jobS, base.WallS*float64(workers))
	L["runtime.alloc_mib"] = base.Runtime.AllocBytes / (1 << 20)
	L["runtime.gc_cycles"] = base.Runtime.GCCycles
	L["runtime.gc_cpu_frac"] = ratio(base.Runtime.GCCPUS, base.Runtime.TotalCPUS)
	L["bench.trace_overhead_frac"] = ratio(tr.WallS-base.WallS, base.WallS)
	L["disk_mib"] = disk

	res := &result{Metrics: map[string]metric{}}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s seed=%d traced:", r.c.workload, r.c.seed)
	for _, d := range layerDefs() {
		if d.Name == "failed_frac" {
			continue // set once every check has run
		}
		res.Metrics[d.Name] = metric{Value: L[d.Name], Unit: d.Unit}
		fmt.Fprintf(&sb, " %s=%.6g", d.Name, L[d.Name])
		switch d.Name {
		case "experiments.chirp_mpki_red_pct":
			sb.WriteString("(paper 28.21)")
		case "experiments.chirp_speedup_pct":
			sb.WriteString("(paper 4.80)")
		}
	}
	fmt.Fprintln(r.stdout, sb.String())
	return res, nil
}

// diskUsage sums file sizes under dir by extension.
func diskUsage(dir string) map[string]int64 {
	out := map[string]int64{}
	if dir == "" {
		return out
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			out[filepath.Ext(path)] += info.Size()
		}
		return nil
	})
	return out
}

func sumBytes(m map[string]int64) int64 {
	var t int64
	for _, n := range m {
		t += n
	}
	return t
}
