package fault

import (
	"testing"

	"accelshare/internal/sim"
)

func TestBackoffValidate(t *testing.T) {
	cases := []struct {
		name string
		b    Backoff
		ok   bool
	}{
		{"valid", Backoff{Base: 200, Factor: 2, Cap: 3200, Limit: 8}, true},
		{"constant delay", Backoff{Base: 100, Factor: 1, Limit: 3}, true},
		{"uncapped", Backoff{Base: 1, Factor: 2, Limit: 4}, true},
		{"zero base", Backoff{Factor: 2, Limit: 3}, false},
		{"zero limit", Backoff{Base: 200, Factor: 2}, false},
	}
	for _, c := range cases {
		if err := c.b.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 200, Factor: 2, Cap: 3_200, Limit: 8}
	want := []sim.Time{200, 400, 800, 1_600, 3_200, 3_200, 3_200, 3_200}
	for i, w := range want {
		d, ok := b.Delay(i)
		if !ok || d != w {
			t.Errorf("Delay(%d) = %d,%v, want %d,true", i, d, ok, w)
		}
	}
	// Attempts past the budget are refused, as are nonsense attempts.
	if _, ok := b.Delay(8); ok {
		t.Error("Delay(Limit) allowed")
	}
	if _, ok := b.Delay(-1); ok {
		t.Error("Delay(-1) allowed")
	}
}

func TestBackoffConstantFactor(t *testing.T) {
	b := Backoff{Base: 150, Factor: 1, Limit: 3}
	for i := 0; i < 3; i++ {
		if d, ok := b.Delay(i); !ok || d != 150 {
			t.Errorf("Delay(%d) = %d,%v, want 150,true", i, d, ok)
		}
	}
}

// TestBackoffOverflowGuard drives the geometric growth past the sim.Time
// range: the delay must saturate (at Cap when set, at a huge-but-usable
// value otherwise) rather than wrap to something tiny or negative.
func TestBackoffOverflowGuard(t *testing.T) {
	capped := Backoff{Base: 1 << 40, Factor: 1 << 30, Cap: 1 << 50, Limit: 10}
	for i := 0; i < 10; i++ {
		d, ok := capped.Delay(i)
		if !ok || d <= 0 || d > 1<<50 {
			t.Fatalf("capped Delay(%d) = %d,%v", i, d, ok)
		}
	}
	uncapped := Backoff{Base: 1 << 40, Factor: 1 << 30, Limit: 10}
	prev := sim.Time(0)
	for i := 0; i < 10; i++ {
		d, ok := uncapped.Delay(i)
		if !ok || d <= 0 {
			t.Fatalf("uncapped Delay(%d) = %d,%v", i, d, ok)
		}
		if d < prev {
			t.Fatalf("uncapped Delay(%d) = %d shrank below %d", i, d, prev)
		}
		prev = d
	}
}

func TestBackoffRetryScheduling(t *testing.T) {
	k := sim.NewKernel()
	b := Backoff{Base: 200, Factor: 2, Cap: 3_200, Limit: 3}
	var fired []sim.Time
	attempt := 0
	// retry schedules again after attempt's delay, as the cluster's
	// retries do, and reports whether the budget allowed it.
	var again func()
	retry := func() bool {
		d, ok := b.Delay(attempt)
		if ok {
			k.Schedule(d, again)
		}
		return ok
	}
	again = func() {
		fired = append(fired, k.Now())
		attempt++
		retry()
	}
	if !retry() {
		t.Fatal("first retry refused")
	}
	k.Run(100_000)
	// Budget of 3: retries at 200, 200+400, 200+400+800; the fourth attempt
	// is refused, so nothing fires after 1400.
	want := []sim.Time{200, 600, 1_400}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if retry() {
		t.Error("retry past the budget accepted")
	}
}
