// Package cm implements the contention-management schemes the paper
// evaluates (Sec. IV-A): the baseline fixed backoff, randomized linear
// backoff (Scherer & Scott), the read-modify-write predictor of Bobba et
// al., and PUNO's notification-guided backoff. A Manager makes three kinds
// of per-node decisions: how long a NACKed requester waits before polling
// again, how long an aborted transaction waits before restarting, and
// whether a load should be promoted to an exclusive request.
package cm

import "repro/internal/sim"

// Manager is the per-node contention-management policy.
type Manager interface {
	// Name identifies the scheme in reports.
	Name() string
	// RetryDelay is the backoff before re-issuing a NACKed memory request.
	// retries counts prior NACKs of this same request; tEst is the
	// nacker's notification (estimated remaining cycles; 0 = none).
	RetryDelay(rng *sim.RNG, retries int, tEst sim.Time) sim.Time
	// RestartDelay is the backoff after an abort before the transaction
	// restarts. attempts counts completed attempts of this instance.
	RestartDelay(rng *sim.RNG, attempts int) sim.Time
	// PromoteLoad reports whether the load at (staticID, opIdx) should
	// request exclusive access up front (RMW prediction).
	PromoteLoad(staticID, opIdx int) bool
	// ObserveRMW trains the promotion predictor: the transaction stored to
	// a line it had earlier loaded at (staticID, opIdx).
	ObserveRMW(staticID, opIdx int)
	// ObserveNonRMW anti-trains it: a load promoted at (staticID, opIdx)
	// committed without the transaction ever storing to that line.
	ObserveNonRMW(staticID, opIdx int)
	// Notify reports whether this node attaches T_est notifications to
	// its conflict NACKs (the PUNO node-side mechanism).
	Notify() bool
}

// FixedBackoffCycles is the paper's baseline: "a nacked requester node
// backoffs for a fixed 20 cycles before retrying the request".
const FixedBackoffCycles sim.Time = 20

// Fixed is the baseline scheme: fixed backoff everywhere, no prediction,
// no notification.
type Fixed struct {
	Delay sim.Time
}

// NewFixed returns the baseline manager.
func NewFixed() *Fixed { return &Fixed{Delay: FixedBackoffCycles} }

// Name implements Manager.
func (f *Fixed) Name() string { return "Baseline" }

// RetryDelay implements Manager.
func (f *Fixed) RetryDelay(*sim.RNG, int, sim.Time) sim.Time { return f.Delay }

// RestartDelay implements Manager.
func (f *Fixed) RestartDelay(*sim.RNG, int) sim.Time { return f.Delay }

// PromoteLoad implements Manager.
func (f *Fixed) PromoteLoad(int, int) bool { return false }

// ObserveRMW implements Manager.
func (f *Fixed) ObserveRMW(int, int) {}

// ObserveNonRMW implements Manager.
func (f *Fixed) ObserveNonRMW(int, int) {}

// Notify implements Manager.
func (f *Fixed) Notify() bool { return false }

// RandomBackoff implements randomized linear backoff: an aborted
// transaction waits a uniformly random delay whose upper bound grows
// linearly with its abort count ("transactions that abort frequently will
// have longer backoff"), capped to avoid unbounded serialization.
type RandomBackoff struct {
	Base sim.Time // upper bound per accumulated abort
	Cap  sim.Time // maximum restart delay
}

// NewRandomBackoff returns the scheme with the defaults used in the
// evaluation.
func NewRandomBackoff() *RandomBackoff {
	return &RandomBackoff{Base: 150, Cap: 6000}
}

// Name implements Manager.
func (b *RandomBackoff) Name() string { return "Backoff" }

// RetryDelay implements Manager: polling backoff stays at the baseline.
func (b *RandomBackoff) RetryDelay(*sim.RNG, int, sim.Time) sim.Time {
	return FixedBackoffCycles
}

// RestartDelay implements Manager.
func (b *RandomBackoff) RestartDelay(rng *sim.RNG, attempts int) sim.Time {
	bound := b.Base * sim.Time(attempts)
	if bound > b.Cap {
		bound = b.Cap
	}
	if bound == 0 {
		return FixedBackoffCycles
	}
	return FixedBackoffCycles + sim.Time(rng.Uint64n(uint64(bound)))
}

// PromoteLoad implements Manager.
func (b *RandomBackoff) PromoteLoad(int, int) bool { return false }

// ObserveRMW implements Manager.
func (b *RandomBackoff) ObserveRMW(int, int) {}

// ObserveNonRMW implements Manager.
func (b *RandomBackoff) ObserveNonRMW(int, int) {}

// Notify implements Manager.
func (b *RandomBackoff) Notify() bool { return false }

// PUNO is the node-side half of the PUNO scheme: notification-guided
// polling backoff. When a NACK carries T_est, the requester backs off for
// T_est minus a guard band of twice the average cache-to-cache latency
// (Sec. III-D); without a notification it behaves like the baseline.
// Restart backoff is the baseline's (the paper changes only the polling
// behaviour).
//
// Every NACK that carries a T_est is slept on, as in the paper. An
// underestimate converges: the early retry collects a fresh NACK whose
// T_est reflects the nacker's remaining time. An overestimate (attempt
// lengths vary widely under contention) would strand the line idle after
// the nacker commits; RetryDelay bounds that cost by sleeping half the
// estimate.
type PUNO struct {
	GuardBand sim.Time // 2 x average cache-to-cache latency
	MaxWait   sim.Time // safety cap on a single notification-guided wait
}

// NewPUNO returns the PUNO manager. guard should be twice the average
// cache-to-cache latency of the interconnect.
func NewPUNO(guard sim.Time) *PUNO {
	return &PUNO{GuardBand: guard, MaxWait: 100000}
}

// Name implements Manager.
func (p *PUNO) Name() string { return "PUNO" }

// RetryDelay implements Manager. The notified wait is half the estimated
// remaining time: T_est derives from a recency-weighted average of highly
// variable attempt durations, so overshoot (which strands the line idle
// and stretches the sleeper's own transaction, amplifying conflicts) is
// common; halving bounds the overshoot cost while undershoot self-corrects
// — the early retry collects a fresh NACK with a smaller T_est and the
// waits converge geometrically onto the nacker's commit.
func (p *PUNO) RetryDelay(_ *sim.RNG, _ int, tEst sim.Time) sim.Time {
	if tEst > p.GuardBand {
		wait := (tEst - p.GuardBand) / 2
		if wait > p.MaxWait {
			wait = p.MaxWait
		}
		if wait < FixedBackoffCycles {
			wait = FixedBackoffCycles
		}
		return wait
	}
	return FixedBackoffCycles
}

// RestartDelay implements Manager.
func (p *PUNO) RestartDelay(*sim.RNG, int) sim.Time { return FixedBackoffCycles }

// PromoteLoad implements Manager.
func (p *PUNO) PromoteLoad(int, int) bool { return false }

// ObserveRMW implements Manager.
func (p *PUNO) ObserveRMW(int, int) {}

// ObserveNonRMW implements Manager.
func (p *PUNO) ObserveNonRMW(int, int) {}

// Notify implements Manager.
func (p *PUNO) Notify() bool { return true }
