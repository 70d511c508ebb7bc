//go:build race

package insightnotes_test

// Under the race detector sync.Pool drops a quarter of its puts at
// random, so a batch container goes back to the allocator that often.
func init() { poolDropRate = 0.25 }
