package fault

import (
	"fmt"

	"accelshare/internal/sim"
)

// Backoff is a bounded, deterministic retry schedule for control-plane
// operations: doctor-triggered migrations that find their target busy,
// readmission probes for shed streams, departures re-issued after a chain
// died mid-transition. Delays grow geometrically from Base by Factor per
// attempt, clamp at Cap, and the total number of retries is bounded by
// Limit — a control plane must never spin, and it must never wait forever.
//
// The schedule is a pure function of the attempt number: sim-clock only, no
// wall clock, no jitter, so two runs of the same campaign retry at exactly
// the same cycle. (The determinism analyzer enforces the no-wall-clock half
// of that claim over this package.)
type Backoff struct {
	// Base is the delay before the first retry (attempt 0); must be > 0.
	Base sim.Time
	// Factor multiplies the delay per subsequent attempt (values < 2 mean a
	// constant delay).
	Factor uint64
	// Cap clamps any single delay (0 = uncapped).
	Cap sim.Time
	// Limit is the retry budget: attempts numbered >= Limit are refused.
	Limit int
}

// Validate rejects schedules that could never fire or never stop.
func (b Backoff) Validate() error {
	if b.Base <= 0 {
		return fmt.Errorf("backoff: base delay must be positive")
	}
	if b.Limit <= 0 {
		return fmt.Errorf("backoff: retry limit must be positive")
	}
	return nil
}

// Delay returns the delay before retry `attempt` (0-based) and whether the
// retry budget still allows that attempt.
func (b Backoff) Delay(attempt int) (sim.Time, bool) {
	if attempt < 0 || attempt >= b.Limit || b.Base <= 0 {
		return 0, false
	}
	d := b.Base
	f := sim.Time(b.Factor)
	if f >= 2 {
		for i := 0; i < attempt; i++ {
			next := d * f
			if next/f != d {
				// Overflow: the cap (or "effectively forever") is reached.
				d = next // wrapped; fall through to the cap clamp below
				if b.Cap > 0 {
					d = b.Cap
				} else {
					d = ^sim.Time(0) / 2
				}
				break
			}
			d = next
			if b.Cap > 0 && d >= b.Cap {
				d = b.Cap
				break
			}
		}
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	return d, true
}
