package gateway

// Replay-cost sweep (EXPERIMENTS.md "E11"): retry work versus checkpoint
// interval K across block sizes. Each cell injects a transient drop in the
// LAST sub-block of a block — the worst case for resume work, since the
// whole interval since the final checkpoint must be replayed — and measures
// the replayed input words and the retried block's service latency. The
// numbers recorded in EXPERIMENTS.md come from `go test -run
// TestReplayCostSweep -v ./internal/gateway`.

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/sim"
)

// replayCell runs one (η, K) point: a single block with a transient sample
// drop near its end, returning the replayed words and the retried block's
// Started→Done latency. K = 0 disables checkpointing (block-start retry).
func replayCell(t *testing.T, eta, k int64, faulty bool) (replayed int64, latency sim.Time) {
	t.Helper()
	r := newRig(t, ckptCfg("rc", k, true))
	s, in, out := r.addStream(t, "s", eta, int(eta)+8, int(eta)+8)
	if faulty {
		s.Engines = []accel.Engine{&transientDropEngine{dropAt: int(eta) - 3}}
	}
	r.feedRaw(t, in, 0, int(eta))
	r.pair.Start()
	r.k.Run(500_000)
	if s.Blocks != 1 {
		t.Fatalf("eta=%d K=%d: blocks = %d, want 1", eta, k, s.Blocks)
	}
	if faulty && s.RetryCount != 1 {
		t.Fatalf("eta=%d K=%d: retries = %d, want 1", eta, k, s.RetryCount)
	}
	got := r.drainAll(out)
	if int64(len(got)) != eta {
		t.Fatalf("eta=%d K=%d: %d output words, want %d", eta, k, len(got), eta)
	}
	for i, w := range got {
		if w != sim.Word(i) {
			t.Fatalf("eta=%d K=%d: output word %d = %d", eta, k, i, w)
		}
	}
	rec := s.Turnarounds[0]
	return rec.Replayed, rec.Done - rec.Started
}

// TestReplayCostSweep measures retry work as a function of the checkpoint
// interval: without checkpointing a late transient replays the whole block
// (η words); with interval K it replays at most K, independent of η — the
// empirical content of the adjusted Eq. 2 term and of core.ResumeBound.
func TestReplayCostSweep(t *testing.T) {
	etas := []int64{16, 64, 256}
	ks := []int64{0, 4, 8, 16}
	t.Logf("%6s %6s %10s %14s %16s", "eta", "K", "replayed", "retry-latency", "clean-latency")
	for _, eta := range etas {
		for _, k := range ks {
			_, clean := replayCell(t, eta, k, false)
			replayed, lat := replayCell(t, eta, k, true)
			want := eta // block-start retry replays everything
			if k > 0 && k < eta {
				want = k // the aborted final sub-block only
			}
			if replayed != want {
				t.Errorf("eta=%d K=%d: replayed = %d words, want %d", eta, k, replayed, want)
			}
			t.Logf("%6d %6d %10d %14d %16d", eta, k, replayed, lat, clean)
		}
	}
}
