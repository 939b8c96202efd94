// Package shard splits an index range across a bounded pool of goroutines
// without adding nondeterminism of its own: the simulated fleet's rack
// ticks and scans, the control plane's anchor batches and the engine round
// all fan out through Run.
package shard

import (
	"cmp"
	"sync"
)

// MinHosts gates the fan-outs whose per-host work is light — the simulated
// fleet's sensor sweep and anchor scan, the snapshot's second goroutine, the
// engine round: below this population the goroutines cost more than the
// sweep itself, and small warm fleets keep their zero-allocation passes.
// Values are bit-identical on both sides of the gate.
const MinHosts = 1024

// Chunks is how Run splits [0, n) across at most workers goroutines of at
// least minPer indices each (below that the goroutine overhead outweighs the
// work): count chunks, chunk k being [k·size, (k+1)·size) clipped to n.
func Chunks(n, workers, minPer int) (count, size int) {
	if workers = min(workers, (n+minPer-1)/minPer); workers <= 1 {
		return 1, max(n, 1)
	}
	size = (n + workers - 1) / workers
	return (n + size - 1) / size, size
}

// Run runs fn over the Chunks of [0, n), one goroutine per chunk (a single
// chunk on the caller's goroutine). Every chunk runs to its own first error;
// the lowest-indexed chunk's error is returned, not the first to finish.
func Run(n, workers, minPer int, fn func(lo, hi int) error) error {
	count, size := Chunks(n, workers, minPer)
	if count == 1 {
		return fn(0, n)
	}
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i*size, min((i+1)*size, n))
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}
