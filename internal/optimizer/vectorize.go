package optimizer

import "repro/internal/exec"

// BatchCapacity is all that is left of the vectorize pass: every
// operator exchanges batches, so vectorizing a statement means choosing
// the one row capacity its operators share. It clamps MaxBatchSize into
// [1, exec.MaxBatchSize] — 0 (unset) and 1 both mean one row per
// exchange — and is applied once per compiled statement, where the
// engine hands the operator tree its exec.QueryCtx. Plans themselves
// carry no capacity, so one cached plan skeleton serves every setting.
func BatchCapacity(opts Options) int {
	return min(max(opts.MaxBatchSize, 1), exec.MaxBatchSize)
}
