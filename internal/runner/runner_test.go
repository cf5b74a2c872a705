package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		ctx := context.Background()
		if workers == 7 {
			ctx = nil // a nil context is context.Background()
		}
		got, err := Map(ctx, 50, Options{Workers: workers},
			func(ctx context.Context, i int) (int, error) { return i * i, ctx.Err() })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	got, err := Map(context.Background(), 0, Options{},
		func(_ context.Context, i int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestMapCollectsEveryError(t *testing.T) {
	bad := map[int]bool{3: true, 11: true, 17: true}
	res, err := Map(context.Background(), 20, Options{Workers: 4},
		func(_ context.Context, i int) (string, error) {
			if bad[i] {
				return "", fmt.Errorf("boom %d", i)
			}
			return fmt.Sprintf("ok %d", i), nil
		})
	if err == nil {
		t.Fatal("expected joined error")
	}
	for i := range bad {
		if !strings.Contains(err.Error(), fmt.Sprintf("boom %d", i)) {
			t.Errorf("error missing task %d: %v", i, err)
		}
		if res[i] != "" {
			t.Errorf("failed task %d has non-zero result %q", i, res[i])
		}
	}
	// Successes are still delivered alongside the failures.
	if res[0] != "ok 0" || res[19] != "ok 19" {
		t.Errorf("successful results lost: %q %q", res[0], res[19])
	}
	// Errors are sorted by index, so the message is deterministic.
	if i3 := strings.Index(err.Error(), "task 3"); i3 < 0 || i3 > strings.Index(err.Error(), "task 11") {
		t.Errorf("errors not in index order: %v", err)
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("joined error does not expose *TaskError: %v", err)
	}
}

func TestMapContextCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})   // blocks workers until cancel has happened
	cancelled := make(chan struct{}) // closed by the first task, after cancel
	var once sync.Once
	go func() {
		<-cancelled
		close(release)
	}()
	_, err := Map(ctx, 1000, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			once.Do(func() {
				cancel()
				close(cancelled)
			})
			<-release
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most the tasks already handed to the 2 workers, plus one send
	// already parked in the dispatcher's select when cancel hit, may have
	// started; the other ~1000 must not.
	if n := started.Load(); n > 3 {
		t.Fatalf("%d tasks started after cancellation", n)
	}
}

func TestMapSerialModeRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, 10, Options{Workers: 1},
		func(_ context.Context, i int) (int, error) {
			ran++
			if i == 2 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d tasks, want 3 (cancel checked before each serial task)", ran)
	}
}

func TestMapProgressSeesEveryCompletion(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	total := -1
	_, err := Map(context.Background(), 25, Options{
		Workers: 5,
		Progress: func(done, n int) {
			mu.Lock()
			dones = append(dones, done)
			total = n
			mu.Unlock()
		},
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 25 || len(dones) != 25 {
		t.Fatalf("progress called %d times with total %d, want 25/25", len(dones), total)
	}
	seen := make(map[int]bool)
	for _, d := range dones {
		seen[d] = true
	}
	for d := 1; d <= 25; d++ {
		if !seen[d] {
			t.Fatalf("progress never reported done=%d", d)
		}
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), 16, Options{Workers: workers},
		func(_ context.Context, i int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
	if peak.Load() > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", peak.Load(), workers)
	}
}

func TestMapNegativeCount(t *testing.T) {
	if _, err := Map(context.Background(), -1, Options{},
		func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative task count accepted")
	}
}

func TestTaskErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := Map(context.Background(), 3, Options{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			if i == 1 {
				return 0, sentinel
			}
			return i, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is through TaskError failed: %v", err)
	}
}

// TestMapWorkersStatePerGoroutine: each pool goroutine gets exactly one
// state from newState, every task sees its own goroutine's state, and no
// state is shared across goroutines. newState runs once per pool goroutine
// whether or not it takes work, so the state count is the pool size: the
// Workers count, or min(GOMAXPROCS, tasks) when Workers <= 0.
func TestMapWorkersStatePerGoroutine(t *testing.T) {
	type state struct {
		worker int
		tasks  []int
	}
	for _, c := range []struct{ workers, want int }{
		{1, 1}, {2, 2}, {5, 5},
		{0, min(runtime.GOMAXPROCS(0), 40)},
	} {
		workers := c.workers
		var mu sync.Mutex
		var states []*state
		_, err := MapWorkers(context.Background(), 40, Options{Workers: workers},
			func(w int) *state {
				s := &state{worker: w}
				mu.Lock()
				states = append(states, s)
				mu.Unlock()
				return s
			},
			func(_ context.Context, i int, s *state) (int, error) {
				s.tasks = append(s.tasks, i) // no lock: s must be goroutine-local
				return i, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(states) != c.want {
			t.Fatalf("workers=%d: newState ran %d times, want %d", workers, len(states), c.want)
		}
		seen := map[int]bool{}
		total := 0
		for _, s := range states {
			for _, i := range s.tasks {
				if seen[i] {
					t.Fatalf("workers=%d: task %d ran on two states", workers, i)
				}
				seen[i] = true
				total++
			}
		}
		if total != 40 {
			t.Fatalf("workers=%d: states saw %d tasks, want 40", workers, total)
		}
	}
}

// TestMapWorkersSerialReusesOneState: serial mode builds a single state and
// threads it through every task in index order — the arena-per-worker
// contract the sweep harness depends on for serial/parallel identity.
func TestMapWorkersSerialReusesOneState(t *testing.T) {
	builds := 0
	var order []int
	_, err := MapWorkers(context.Background(), 10, Options{Workers: 1},
		func(w int) *[]int {
			builds++
			if w != 0 {
				t.Fatalf("serial newState got worker index %d", w)
			}
			return &order
		},
		func(_ context.Context, i int, s *[]int) (struct{}, error) {
			*s = append(*s, i)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("serial mode built %d states, want 1", builds)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

// TestMapTaskLabels: when Options.Label is set, each task runs under pprof
// labels carrying its index and spec name, visible via pprof.Label inside
// the task.
func TestMapTaskLabels(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		got := map[int][2]string{}
		_, err := Map(context.Background(), 6,
			Options{
				Workers: workers,
				Label:   func(i int) string { return fmt.Sprintf("spec-%d", i) },
			},
			func(ctx context.Context, i int) (struct{}, error) {
				task, _ := pprof.Label(ctx, "task")
				spec, _ := pprof.Label(ctx, "spec")
				mu.Lock()
				got[i] = [2]string{task, spec}
				mu.Unlock()
				return struct{}{}, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < 6; i++ {
			want := [2]string{fmt.Sprintf("%d", i), fmt.Sprintf("spec-%d", i)}
			if got[i] != want {
				t.Fatalf("workers=%d task %d: labels %v, want %v", workers, i, got[i], want)
			}
		}
	}
}

// TestMapNoLabelsWithoutLabelFunc: without a Label func, tasks run without
// the pprof wrapper (no task label set).
func TestMapNoLabelsWithoutLabelFunc(t *testing.T) {
	_, err := Map(context.Background(), 2, Options{Workers: 1},
		func(ctx context.Context, i int) (struct{}, error) {
			if v, ok := pprof.Label(ctx, "task"); ok {
				t.Errorf("task %d: unexpected pprof label task=%q", i, v)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
