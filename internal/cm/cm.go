// Package cm holds the contention-management policy of the schemes the
// paper evaluates (Sec. IV-A): the baseline fixed backoff, randomized
// linear backoff (Scherer & Scott), the read-modify-write predictor of
// Bobba et al., PUNO's notification-guided backoff, and Adaptive
// Transaction Scheduling. Which of them a run uses is one row of the
// machine's scheme table; this package holds their arithmetic as plain
// functions and their state as two concrete types, RMWPred and ATSGroup.
package cm

import "repro/internal/sim"

// FixedBackoffCycles is the paper's baseline: "a nacked requester node
// backoffs for a fixed 20 cycles before retrying the request". Every
// scheme without a policy of its own for a wait uses it.
const FixedBackoffCycles sim.Time = 20

// Randomized linear restart backoff: the upper bound of the random part
// grows by randomBackoffBase per accumulated abort, up to randomBackoffCap.
const (
	randomBackoffBase sim.Time = 150
	randomBackoffCap  sim.Time = 6000
)

// RandomRestart is the randomized linear backoff an aborted transaction
// waits before restarting: a uniformly random delay whose upper bound grows
// linearly with its abort count ("transactions that abort frequently will
// have longer backoff"), capped to avoid unbounded serialization. attempts
// counts completed attempts of this instance; with none it draws nothing
// and waits the fixed backoff.
func RandomRestart(rng *sim.RNG, attempts int) sim.Time {
	bound := randomBackoffBase * sim.Time(attempts)
	if bound > randomBackoffCap {
		bound = randomBackoffCap
	}
	if bound == 0 {
		return FixedBackoffCycles
	}
	return FixedBackoffCycles + sim.Time(rng.Uint64n(uint64(bound)))
}

// NotifiedWait is PUNO's polling backoff: how long a requester whose NACKs
// carried tEst (the nacker's estimated remaining cycles; 0 = none) waits
// before re-issuing. guard is the guard band, twice the average
// cache-to-cache latency (Sec. III-D); maxWait caps a single wait.
//
// Every NACK that carries a T_est is slept on, as in the paper, but for
// half the estimate less the guard band: T_est derives from a
// recency-weighted average of highly variable attempt durations, so
// overshoot (which strands the line idle after the nacker commits and
// stretches the sleeper's own transaction, amplifying conflicts) is
// common. Halving bounds the overshoot cost, while undershoot
// self-corrects — the early retry collects a fresh NACK with a smaller
// T_est and the waits converge geometrically onto the nacker's commit.
// Without a usable notification the wait is the fixed backoff.
func NotifiedWait(tEst, guard, maxWait sim.Time) sim.Time {
	if tEst <= guard {
		return FixedBackoffCycles
	}
	wait := (tEst - guard) / 2
	if wait > maxWait {
		wait = maxWait
	}
	if wait < FixedBackoffCycles {
		wait = FixedBackoffCycles
	}
	return wait
}
