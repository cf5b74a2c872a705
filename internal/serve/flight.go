package serve

// flight is one simulation on its way through the pool: queued until a
// worker closes started, running until the worker closes done. The first
// submitter of a key creates the flight and enqueues its one task; every
// later submitter of that key, while the flight is in Service.flights,
// joins it and shares the outcome (singleflight). A flight is never
// withdrawn: once enqueued it runs, and its artifact lands in the cache
// whether or not anyone is still polling. A failed flight never leaves
// the table, so its key is simulated once per process.
//
// Both channels are closed exactly once, by the worker, in that order; err
// is written before done is closed, so whoever observed <-done may read it
// without further synchronization.
type flight struct {
	started chan struct{}
	done    chan struct{}
	err     error
}
