package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int64
	err := ForEach(context.Background(), n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	if err := ForEach(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(context.Background(), -3, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	want := errors.New("boom-17")
	err := ForEach(context.Background(), 64, func(_ context.Context, i int) error {
		switch i {
		case 17:
			return want
		case 40:
			return errors.New("boom-40")
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want the lowest-index error %v", err, want)
	}
}

func TestForEachBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	err := ForEach(WithLimit(context.Background(), workers), 100, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", m, workers)
	}
}

func TestForEachCancellationSkipsUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(WithLimit(ctx, 1), 100, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			cancel()
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Single worker: tasks 0..3 ran, everything after the cancel is skipped.
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d tasks ran after cancellation, want 4", got)
	}
}

func TestForEachPanicPropagatesLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "task 5 panicked") || !strings.Contains(msg, "kaboom") {
			t.Fatalf("unexpected panic payload: %s", msg)
		}
	}()
	_ = ForEach(WithLimit(context.Background(), 2), 32, func(_ context.Context, i int) error {
		if i == 5 || i == 20 {
			panic(fmt.Sprintf("kaboom-%d", i))
		}
		return nil
	})
}

func TestWithLimit(t *testing.T) {
	ctx := WithLimit(context.Background(), 2)
	if got := Limit(ctx); got != 2 {
		t.Fatalf("Limit = %d, want 2", got)
	}
	if got := Limit(context.Background()); got != 0 {
		t.Fatalf("Limit of bare ctx = %d, want 0", got)
	}
	if got := Limit(WithLimit(context.Background(), -1)); got != 0 {
		t.Fatalf("Limit with negative override = %d, want 0", got)
	}
	// The override actually bounds the pool.
	var cur, max atomic.Int64
	err := ForEach(ctx, 4*runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > 2 {
		t.Fatalf("ctx-limited pool ran %d tasks concurrently, want <= 2", m)
	}
}
