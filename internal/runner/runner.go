// Package runner provides a deterministic worker-pool executor for fanning
// independent tasks out across goroutines. Results come back in submission
// order regardless of completion order, every task error is collected (not
// just the first), and a context cancels the dispatch of not-yet-started
// tasks — the properties the experiment harness needs to parallelize sweeps
// of independent simulation runs without giving up bit-identical output.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
)

// Options configures one Map call.
type Options struct {
	// Workers is the number of concurrent goroutines. Zero or negative
	// selects runtime.GOMAXPROCS(0). One runs every task inline on the
	// calling goroutine, in index order — the exact serial semantics.
	Workers int

	// Progress, when non-nil, is called after each task finishes with the
	// number of completed tasks and the total. Calls are serialized, but
	// (with more than one worker) arrive from pool goroutines, so the
	// callback must not assume it runs on the caller's goroutine.
	Progress func(done, total int)

	// Label, when non-nil, names task i for profiling: the task runs under
	// pprof.Do with labels task=<i> and spec=<Label(i)>, so CPU profiles
	// attribute samples to individual sweep points instead of one
	// undifferentiated pool. Label must be safe to call from pool
	// goroutines.
	Label func(i int) string
}

// TaskError wraps a task failure with the index it occurred at.
type TaskError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying task error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// Map runs fn(ctx, i) for every i in [0, n) on a pool of opts.Workers
// goroutines and returns the results in index order. Tasks are independent:
// one failing does not stop the others, and every failure is returned,
// wrapped in a *TaskError and joined in index order. Cancelling ctx stops
// new tasks from being dispatched (already-running tasks see the
// cancellation through their ctx argument); the returned error then
// includes ctx's error. Result slots whose task failed or was never
// dispatched hold the zero value of T.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapWorkers(ctx, n, opts,
		func(int) struct{} { return struct{}{} },
		func(ctx context.Context, i int, _ struct{}) (T, error) { return fn(ctx, i) })
}

// MapWorkers is Map with per-worker state: newState(w) runs once on each
// pool goroutine (w in [0, workers)) before it takes its first task, and
// the returned value is passed to every task that goroutine executes. This
// is the hook the sweep harness uses to keep one reusable simulation arena
// per worker instead of rebuilding a machine for every sweep point. In
// serial mode (one worker) a single state is created on the calling
// goroutine. States are never shared between goroutines and are dropped
// when the pool drains; tasks own any cleanup.
func MapWorkers[S, T any](ctx context.Context, n int, opts Options, newState func(w int) S, fn func(ctx context.Context, i int, state S) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative task count %d", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	var (
		mu       sync.Mutex
		done     int
		failures []*TaskError
	)
	finish := func(i int, res T, err error) {
		mu.Lock()
		results[i] = res
		if err != nil {
			failures = append(failures, &TaskError{Index: i, Err: err})
		}
		done++
		d := done
		mu.Unlock()
		if opts.Progress != nil {
			opts.Progress(d, n)
		}
	}
	run := func(ctx context.Context, i int, state S) (T, error) {
		if opts.Label == nil {
			return fn(ctx, i, state)
		}
		var res T
		var err error
		pprof.Do(ctx, pprof.Labels("task", strconv.Itoa(i), "spec", opts.Label(i)),
			func(ctx context.Context) { res, err = fn(ctx, i, state) })
		return res, err
	}

	if workers <= 1 {
		// Serial mode: run inline, in index order, on the caller's
		// goroutine — byte-for-byte the classic serial loop.
		var state S
		if n > 0 {
			state = newState(0)
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, joinFailures(failures, err)
			}
			res, err := run(ctx, i, state)
			finish(i, res, err)
		}
		return results, joinFailures(failures, nil)
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := newState(w)
			for i := range indices {
				res, err := run(ctx, i, state)
				finish(i, res, err)
			}
		}(w)
	}

dispatch:
	for i := 0; i < n; i++ {
		// Checked eagerly: once cancelled, a send and Done may both be
		// ready and select would pick between them at random.
		if ctx.Err() != nil {
			break
		}
		select {
		case indices <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(indices)
	wg.Wait()

	return results, joinFailures(failures, ctx.Err())
}

// joinFailures merges the collected task errors (sorted by index so the
// message is deterministic) with an optional context error.
func joinFailures(failures []*TaskError, ctxErr error) error {
	if len(failures) == 0 && ctxErr == nil {
		return nil
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].Index < failures[j].Index })
	errs := make([]error, 0, len(failures)+1)
	for _, f := range failures {
		errs = append(errs, f)
	}
	if ctxErr != nil {
		errs = append(errs, ctxErr)
	}
	return errors.Join(errs...)
}
