// Package shard splits an index range across a bounded pool of goroutines
// without adding nondeterminism of its own: the simulated fleet's rack
// ticks and scans and the control plane's anchor batches all fan out
// through Run.
package shard

import "sync"

// MinHosts gates the fan-outs whose per-host work is light — the simulated
// fleet's sensor sweep and anchor scan, the snapshot's second goroutine:
// below this population the goroutines cost more than the sweep itself,
// and small warm fleets keep their zero-allocation anchor pass. Values are
// bit-identical on both sides of the gate.
const MinHosts = 1024

// Run runs fn over [0, n) split into contiguous chunks, one goroutine per
// chunk, using at most workers goroutines and never fewer than minPer
// indices each (below that the goroutine overhead outweighs the work). With
// one worker fn(0, n) runs on the caller's goroutine. Every chunk runs to
// its own first error and the error of the lowest-indexed failing chunk is
// returned — first in index order, not first to finish.
func Run(n, workers, minPer int, fn func(lo, hi int) error) error {
	if maxW := (n + minPer - 1) / minPer; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i*chunk, min((i+1)*chunk, n))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
