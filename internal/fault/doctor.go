package fault

import (
	"fmt"

	"accelshare/internal/sim"
)

// DoctorConfig parameterises the wedged-chain diagnosis. A single stream
// stalling repeatedly is that stream's problem (retry, then quarantine —
// PR 1's recovery ladder handles it); stalls spread across DISTINCT streams
// inside one observation window mean the chain itself — a tile, a link, the
// ring segment — is sick, and per-stream recovery only burns retry budget.
type DoctorConfig struct {
	// Window is the sliding observation window in cycles.
	Window sim.Time
	// StallLimit is the number of stalls inside the window that triggers a
	// verdict (minimum 1).
	StallLimit int
	// DistinctStreams is how many different streams must be represented
	// among the window's stalls (default 1: any StallLimit stalls convict).
	// Raising it avoids convicting the chain for one stream's stuck engine.
	DistinctStreams int
}

// Verdict is the doctor's one-shot diagnosis: the chain is wedged.
type Verdict struct {
	// At is the simulated time of the convicting stall.
	At sim.Time
	// Reason is a deterministic human-readable summary.
	Reason string
	// Streams are the distinct streams that stalled inside the window, in
	// first-stall order.
	Streams []int
}

// Doctor watches the stall feed from a gateway pair (wired through
// Pair.SetStallObserver) and renders a wedged-chain verdict at most once.
// It is the trigger half of chain failover; what happens on a verdict is
// the FailoverController's business.
type Doctor struct {
	k       *sim.Kernel
	cfg     DoctorConfig
	verdict func(Verdict)

	stalls  []stallEvent
	decided bool
}

type stallEvent struct {
	at     sim.Time
	stream int
}

// NewDoctor validates the configuration and returns a Doctor delivering at
// most one Verdict to onVerdict.
func NewDoctor(k *sim.Kernel, cfg DoctorConfig, onVerdict func(Verdict)) (*Doctor, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("fault doctor: window must be positive")
	}
	if cfg.StallLimit < 1 {
		return nil, fmt.Errorf("fault doctor: stall limit must be >= 1")
	}
	if cfg.DistinctStreams < 1 {
		cfg.DistinctStreams = 1
	}
	if onVerdict == nil {
		return nil, fmt.Errorf("fault doctor: nil verdict callback")
	}
	return &Doctor{k: k, cfg: cfg, verdict: onVerdict}, nil
}

// NoteStall feeds one watchdog stall into the window. Call it from the
// pair's stall observer. The first time the window accumulates StallLimit
// stalls across at least DistinctStreams streams, the verdict fires —
// synchronously, so the observer's caller (the gateway's stall handler) sees
// the pair already frozen and skips its own flush.
func (d *Doctor) NoteStall(stream int) {
	if d.decided {
		return
	}
	now := d.k.Now()
	d.stalls = append(d.stalls, stallEvent{at: now, stream: stream})
	// Prune events older than the window.
	cut := 0
	for cut < len(d.stalls) && now-d.stalls[cut].at > d.cfg.Window {
		cut++
	}
	d.stalls = d.stalls[cut:]
	if len(d.stalls) < d.cfg.StallLimit {
		return
	}
	var distinct []int
	seen := map[int]bool{}
	for _, ev := range d.stalls {
		if !seen[ev.stream] {
			seen[ev.stream] = true
			distinct = append(distinct, ev.stream)
		}
	}
	if len(distinct) < d.cfg.DistinctStreams {
		return
	}
	d.decided = true
	d.verdict(Verdict{
		At: now,
		Reason: fmt.Sprintf("%d stalls across %d streams within %d cycles",
			len(d.stalls), len(distinct), d.cfg.Window),
		Streams: distinct,
	})
}
