package pptest

import (
	"runtime"
	"sync"

	"popproto/internal/rng"
)

// Parallel runs reps independent test runs over a bounded worker pool
// (workers <= 0 selects NumCPU); task may run concurrently, rep indices
// are 0-based, and Parallel returns once every task has finished. Run
// rep gets the rep-th output of an rng stream seeded with seed, so the
// pinned samples of the equivalence, handover and baseline suites stay
// bit-identical. Production replication fans out through ensemble,
// which this package cannot import (core's in-package tests import
// pptest, and ensemble depends on core through the registry).
func Parallel(reps, workers int, seed uint64, task func(rep int, seed uint64)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, reps)
	derive := rng.New(seed)
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = derive.Uint64()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for rep := range next {
				task(rep, seeds[rep])
			}
		}()
	}
	for rep := range seeds {
		next <- rep
	}
	close(next)
	wg.Wait()
}
