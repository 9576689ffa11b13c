// Package app exercises the no-deprecated rule from the caller's side:
// a direct call and a function-value reference the old grep gate could
// not see.
package app

import (
	workloads "github.com/chirplab/chirp/internal/analysis/testdata/src/deprecated/internal/workloads"
)

// Generate constructs a generator directly, outside the workloads
// packages' allow scope.
func Generate() *workloads.Generator {
	return workloads.NewGenerator() // want "NewGenerator is deprecated"
}

// Constructor hands out the banned constructor as a value.
func Constructor() func() *workloads.Generator {
	return workloads.NewGenerator // want "NewGenerator is deprecated"
}
