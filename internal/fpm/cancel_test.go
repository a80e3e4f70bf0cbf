package fpm

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/outcome"
)

// TestMineCancelledBeforeStart checks that an already-cancelled context
// aborts Mine before any work, for both algorithms.
func TestMineCancelledBeforeStart(t *testing.T) {
	u, o := randomUniverse(t, 1, 400, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		_, err := MineMulti(u, outcome.Single(o), Options{Ctx: ctx, MinSupport: 0.05, Algorithm: alg})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
	}
}

// TestMineCancelMidMine cancels shortly after mining starts and checks
// that both miners, serial and parallel, return promptly with the
// context's error rather than running to completion.
func TestMineCancelMidMine(t *testing.T) {
	u, o := randomUniverse(t, 7, 4000, true)
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		for _, workers := range []int{0, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			res, err := MineMulti(u, outcome.Single(o), Options{Ctx: ctx, MinSupport: 0.001, Algorithm: alg, Workers: workers})
			elapsed := time.Since(start)
			cancel()
			if err == nil {
				// The run may legitimately finish before the cancel lands on
				// a fast machine; only a cancelled run must report the error.
				if res == nil {
					t.Fatalf("%v workers=%d: nil result without error", alg, workers)
				}
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v workers=%d: err = %v, want context.Canceled", alg, workers, err)
			}
			if elapsed > 10*time.Second {
				t.Errorf("%v workers=%d: cancellation took %v", alg, workers, elapsed)
			}
		}
	}
}

// TestMineDeadlineExceeded checks that a context deadline surfaces as
// context.DeadlineExceeded.
func TestMineDeadlineExceeded(t *testing.T) {
	u, o := randomUniverse(t, 3, 4000, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := MineMulti(u, outcome.Single(o), Options{Ctx: ctx, MinSupport: 0.001, Algorithm: FPGrowth})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded (or completion)", err)
	}
}

// TestMineUncancellableCtxMatchesNil checks that supplying a
// non-cancellable context changes nothing about the results.
func TestMineUncancellableCtxMatchesNil(t *testing.T) {
	u, o := randomUniverse(t, 5, 500, true)
	plain, err := MineMulti(u, outcome.Single(o), Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := MineMulti(u, outcome.Single(o), Options{Ctx: context.Background(), MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Itemsets) != len(withCtx.Itemsets) || plain.Stats != withCtx.Stats {
		t.Fatalf("results differ with context.Background: %+v vs %+v", plain.Stats, withCtx.Stats)
	}
	for i := range plain.Itemsets {
		if plain.Itemsets[i].Count != withCtx.Itemsets[i].Count {
			t.Fatalf("itemset %d differs", i)
		}
	}
}
