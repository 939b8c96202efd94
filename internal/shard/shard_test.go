package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunks pins the split arithmetic every fan-out inherits: the chunks
// tile [0, n) in order, and there are never more of them than workers, nor
// than ⌈n/minPer⌉.
func TestChunks(t *testing.T) {
	for _, tc := range []struct {
		n, workers, minPer int
		count, size        int
	}{
		{0, 4, 1, 1, 1},          // empty: one empty chunk on the caller
		{1, 4, 1, 1, 1},          // one index: inline
		{10, 1, 1, 1, 10},        // one worker: inline
		{10, 0, 1, 1, 10},        // no worker count: inline
		{10, 4, 1, 4, 3},         // 3+3+3+1
		{8, 4, 1, 4, 2},          // even split
		{64, 4, 64, 1, 64},       // one minimum chunk: inline
		{100, 4, 64, 2, 50},      // ⌈100/64⌉ = 2 chunks
		{128, 4, 64, 2, 64},      // minPer caps the count below workers
		{129, 4, 64, 3, 43},      // 43+43+43
		{4096, 8, 1024, 4, 1024}, // MinHosts-sized chunks
		{7, 3, 1, 3, 3},          // 3+3+1
	} {
		count, size := Chunks(tc.n, tc.workers, tc.minPer)
		if count != tc.count || size != tc.size {
			t.Errorf("Chunks(%d, %d, %d) = %d×%d, want %d×%d",
				tc.n, tc.workers, tc.minPer, count, size, tc.count, tc.size)
			continue
		}
		if count > 1 && ((count-1)*size >= tc.n || count*size < tc.n ||
			count > tc.workers || count > (tc.n+tc.minPer-1)/tc.minPer) {
			t.Errorf("Chunks(%d, %d, %d) = %d×%d does not tile [0, %d) within its bounds",
				tc.n, tc.workers, tc.minPer, count, size, tc.n)
		}
	}
}

// TestRunCoversOnce: every index is visited by exactly one chunk, whatever
// the worker count.
func TestRunCoversOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := Run(n, workers, 16, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers %d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestRunReturnsLowestChunkError: with several chunks failing, Run returns
// the lowest-indexed chunk's error, however the goroutines are scheduled.
// The lowest chunk fails last, so the first error to arrive is never it.
func TestRunReturnsLowestChunkError(t *testing.T) {
	for range 20 {
		var later sync.WaitGroup
		later.Add(2)
		err := Run(40, 4, 1, func(lo, hi int) error {
			switch lo {
			case 10:
				later.Wait() // chunks 2 and 3 have returned theirs
				return fmt.Errorf("chunk at %d", lo)
			case 20, 30:
				defer later.Done()
				return fmt.Errorf("chunk at %d", lo)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk at 10" {
			t.Fatalf("Run returned %v, want the error of the chunk at 10", err)
		}
	}
	if err := Run(5, 1, 1, func(lo, hi int) error { return errors.New("inline") }); err == nil || err.Error() != "inline" {
		t.Fatalf("inline Run returned %v", err)
	}
}

// TestEachVisitsEveryIndexOnce: every index is handed out exactly once, and
// inline (workers ≤ 1) in increasing order on the caller's goroutine.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 500
	for _, workers := range []int{-1, 0, 1, 2, 7, n + 5} {
		var hits [n]atomic.Int32
		var mu sync.Mutex
		var order []int
		if err := Each(context.Background(), n, workers, func(i int) {
			hits[i].Add(1)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers %d: index %d visited %d times", workers, i, h)
			}
		}
		if workers <= 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("workers %d: call %d got index %d, want in order", workers, k, i)
				}
			}
		}
	}
	if err := Each(context.Background(), 0, 4, func(int) { t.Fatal("called on an empty range") }); err != nil {
		t.Fatal(err)
	}
}

// TestEachStopsOnCancel: nothing is handed out once the context is done.
// Inline, the call that cancels is the last one; in parallel, each worker
// finishes the call it is in and takes no other; an already-done context
// runs nothing.
func TestEachStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls []int
	err := Each(ctx, 100, 1, func(i int) {
		calls = append(calls, i)
		if i == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || len(calls) != 4 || calls[3] != 3 {
		t.Fatalf("inline: err %v, calls %v; want Canceled after 0..3", err, calls)
	}

	const workers = 4
	ctx, cancel = context.WithCancel(context.Background())
	var n atomic.Int32
	err = Each(ctx, 100_000, workers, func(i int) {
		n.Add(1)
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
	})
	// Each worker makes at most one call that began before the cancel and
	// at most one that claimed its index just as it landed.
	if !errors.Is(err, context.Canceled) || n.Load() > 2*workers {
		t.Fatalf("parallel: err %v after %d calls; want Canceled within %d", err, n.Load(), 2*workers)
	}

	err = Each(ctx, 10, workers, func(int) { t.Error("called under a done context") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: err %v", err)
	}
}
