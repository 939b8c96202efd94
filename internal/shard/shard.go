// Package shard is the one way the program fans independent work across
// cores, without adding nondeterminism of its own. Run splits an index range
// into contiguous chunks (the simulated fleet's rack ticks and scans, the
// control plane's anchor batches, the engine round, the server's batch
// handlers); Each hands out single indices in order (the Eq. (2) training
// experiments and the grid search's points, whose costs vary). FreeList
// keeps the working memory such fan-outs reuse across calls.
package shard

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"
)

// MinHosts gates the fan-outs whose per-host work is light — the simulated
// fleet's sensor sweep and anchor scan, the engine round: below this
// population the goroutines cost more than the sweep itself, and small warm
// fleets keep their zero-allocation passes.
// Values are bit-identical on both sides of the gate.
const MinHosts = 1024

// Chunks is how Run splits [0, n): into at most workers chunks and at most
// ⌈n/minPer⌉ (below about minPer indices a goroutine's overhead outweighs
// its work), count chunks, chunk k being [k·size, (k+1)·size) clipped to n.
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

// FreeList is a free list of *T for callers that reuse working memory
// across calls, concurrent ones included. Unlike a sync.Pool, which the
// garbage collector empties, it keeps its items across any number of
// collections, so a caller that needs its scratch once a round does not
// re-make it after two cycles; it holds at most as many items as were ever
// out at once. The zero FreeList is empty and ready to use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes an item off the list, or makes a zero one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free = l.free[:n-1]
	return x
}

// Put returns x to the list.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Each calls fn(i) for every i in [0, n), handing the indices out in
// increasing order to at most workers goroutines, and returns once every
// call has. Once ctx is done it hands out no further index; calls already
// running finish, and Each returns ctx.Err(). With workers ≤ 1 it runs
// inline, in order, with no goroutine.
func Each(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
