package sim

import "testing"

// groupCell is a self-contained workload on one kernel: a deterministic
// event chain that logs firings and occasionally receives cross-cell tokens
// via the barrier.
type groupCell struct {
	k   *Kernel
	log []firing
	rng diffRand
}

func newGroupCell(seed uint64) *groupCell {
	c := &groupCell{k: NewKernel(), rng: diffRand(seed | 1)}
	var churn func()
	churn = func() {
		c.log = append(c.log, firing{at: c.k.Now()})
		c.k.Schedule(1+Time(c.rng.next()%97), churn)
	}
	c.k.Schedule(1, churn)
	return c
}

func (c *groupCell) token(id int) func() {
	return func() { c.log = append(c.log, firing{at: c.k.Now(), id: id}) }
}

// runGroupScenario runs three cells to the horizon with a barrier that
// passes tokens between cells every window, returning the per-cell logs.
func runGroupScenario(parallel bool) [][]firing {
	cells := []*groupCell{newGroupCell(11), newGroupCell(22), newGroupCell(33)}
	ks := make([]*Kernel, len(cells))
	for i, c := range cells {
		ks[i] = c.k
	}
	g := NewGroup(512, ks...)
	g.SetParallel(parallel)
	tok := 0
	g.SetBarrier(func(end Time) {
		// Deterministic cross-cell exchange: cell i sends a token to cell
		// (i+1)%n, scheduled at the window boundary plus a spread.
		for i, c := range cells {
			tok++
			dst := cells[(i+1)%len(cells)]
			dst.k.ScheduleAt(end+Time(tok%7), dst.token(tok))
			_ = c
		}
	})
	g.Run(20_000)
	logs := make([][]firing, len(cells))
	for i, c := range cells {
		logs[i] = c.log
	}
	return logs
}

func TestGroupParallelMatchesSequential(t *testing.T) {
	seq := runGroupScenario(false)
	par := runGroupScenario(true)
	for i := range seq {
		if len(seq[i]) != len(par[i]) {
			t.Fatalf("cell %d: %d vs %d firings", i, len(seq[i]), len(par[i]))
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("cell %d firing %d: %+v vs %+v", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestGroupBarrierPastSchedulePanics(t *testing.T) {
	k1, k2 := NewKernel(), NewKernel()
	k1.Schedule(1, func() {})
	g := NewGroup(100, k1, k2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected scheduling-into-the-past panic from barrier")
		}
	}()
	g.SetBarrier(func(end Time) {
		// Scheduling before the window boundary must hit the kernel's
		// past-time panic — the guard the determinism argument relies on.
		k2.ScheduleAt(end-1, func() {})
	})
	g.Run(100)
}

func TestGroupMisalignedKernelsPanic(t *testing.T) {
	k1, k2 := NewKernel(), NewKernel()
	k1.Run(50)
	defer func() {
		if recover() == nil {
			t.Fatal("expected misalignment panic")
		}
	}()
	NewGroup(10, k1, k2).Run(100)
}
