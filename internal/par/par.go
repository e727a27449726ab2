// Package par is the repository's one bounded worker pool. Every many-run
// workload — the policy x backfill matrix, the relaxation-factor sweep, ES
// fitness populations, prediction model families, figure-suite prewarming —
// fans identical independent tasks out over a shared trace, and before this
// package each of them hand-rolled its own WaitGroup+semaphore copy with
// slightly different cancellation and error semantics. ForEach centralizes
// the contract:
//
//   - Bounded concurrency: at most GOMAXPROCS tasks run at once (the number
//     of simulations that can make progress anyway), or the cap a WithLimit
//     context carries.
//   - Deterministic results: tasks are identified by index; callers write
//     out[i] and ForEach reports the lowest-index error, so the outcome is
//     independent of goroutine interleaving.
//   - Cancellation: once ctx is canceled, unstarted tasks are skipped (and
//     reported as canceled); in-flight tasks observe ctx themselves, as
//     sim.RunContext already does.
//   - Panic capture: a panicking task cannot deadlock its siblings; the
//     panic is re-raised in the ForEach caller with the task index attached.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// limitKey carries a worker-count override in a context.
type limitKey struct{}

// WithLimit returns a context that caps the pool size of every ForEach call
// beneath it at n workers (n <= 0 removes the override). It is the plumbing
// for user-facing parallelism knobs — schedsim -parallel installs the flag
// value once and every experiment entry point inherits it without growing
// its signature.
func WithLimit(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, limitKey{}, n)
}

// Limit reports the worker cap carried by ctx, or 0 when none is set.
func Limit(ctx context.Context) int {
	if n, ok := ctx.Value(limitKey{}).(int); ok && n > 0 {
		return n
	}
	return 0
}

// taskPanic carries a captured panic from a worker to the caller.
type taskPanic struct {
	index int
	value any
	stack []byte
}

// ForEach runs fn(ctx, 0..n-1) on a bounded pool of workers — GOMAXPROCS,
// or the cap installed by WithLimit — and waits for completion. Every task
// runs (or is skipped due to cancellation) exactly once; the returned
// error is the lowest-index task error, so repeated runs fail identically
// regardless of scheduling. A task panic is re-raised on the caller's
// goroutine once the pool has drained, wrapped with the task index and
// carrying the worker's stack.
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Limit(ctx)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	errs := make([]error, n)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []taskPanic
	)
	done := ctx.Done()
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				panics = append(panics, taskPanic{index: i, value: r, stack: stack()})
				panicMu.Unlock()
				errs[i] = fmt.Errorf("par: task %d panicked: %v", i, r)
			}
		}()
		errs[i] = fn(ctx, i)
	}
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if done != nil {
				select {
				case <-done:
					// Skip unstarted work; the wrapped ctx error keeps the
					// caller's "first error by index" view deterministic
					// once every earlier task either succeeded or was also
					// canceled.
					errs[i] = fmt.Errorf("par: task %d skipped: %w", i, ctx.Err())
					continue
				default:
				}
			}
			runOne(i)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if len(panics) > 0 {
		// Deterministic re-raise: the lowest task index wins.
		min := panics[0]
		for _, tp := range panics[1:] {
			if tp.index < min.index {
				min = tp
			}
		}
		panic(fmt.Sprintf("par: task %d panicked: %v\n\nworker stack:\n%s", min.index, min.value, min.stack))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stack captures the calling goroutine's stack for panic reports.
func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
