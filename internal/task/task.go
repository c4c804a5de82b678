// Package task implements the priority-based budget scheduler the paper's
// processor tiles run their software tasks under (§IV-A, citing Steine,
// Bekooij, Wiggers — DSD'09): every task owns a budget of B cycles per
// replenishment period P, served in a fixed TDM window. A task is then
// temporally isolated from every other task on the tile — its worst-case
// response to a work item of cost C is bounded by
//
//	R(C) = ⌈C/B⌉ · (P − B) + C
//
// independent of other tasks' load, which is what lets the paper's software
// tasks (the L = (L+R) − R reconstruction, C-FIFO pumps) appear in the
// dataflow model as actors with constant worst-case firing durations.
//
// Tasks execute posted work items in FIFO order; an item of cost c receives
// service only inside its task's windows and completes once c cycles of
// service accumulate. The scheduler is an analytical DES component: it
// computes completion times in closed form over the window pattern and
// schedules a single kernel event per item.
package task

import (
	"fmt"

	"accelshare/internal/sim"
)

// Scheduler is one processor tile's budget scheduler.
type Scheduler struct {
	k *sim.Kernel
	// Period is the replenishment period P in cycles.
	Period sim.Time
	tasks  []*Task
	used   sim.Time
}

// Task is one budget-scheduled task.
type Task struct {
	// Budget is B, the service cycles per period.
	Budget sim.Time
	// Offset is the window start within the period (assigned by AddTask).
	Offset sim.Time

	s *Scheduler
	// freeAt is the service-timeline instant the previous item completes.
	freeAt sim.Time

	// Completed counts finished items; Busy accumulates service cycles.
	Completed uint64
	Busy      uint64
}

// NewScheduler creates a scheduler with the given period.
func NewScheduler(k *sim.Kernel, period sim.Time) (*Scheduler, error) {
	if period == 0 {
		return nil, fmt.Errorf("task: period must be positive")
	}
	return &Scheduler{k: k, Period: period}, nil
}

// AddTask reserves a budget window. Budgets are allocated back to back; the
// sum may not exceed the period.
func (s *Scheduler) AddTask(name string, budget sim.Time) (*Task, error) {
	if budget == 0 {
		return nil, fmt.Errorf("task: %q needs a positive budget", name)
	}
	if s.used+budget > s.Period {
		return nil, fmt.Errorf("task: budgets exceed period (%d + %d > %d)", s.used, budget, s.Period)
	}
	t := &Task{Budget: budget, Offset: s.used, s: s}
	s.used += budget
	s.tasks = append(s.tasks, t)
	return t, nil
}

// serviceEnd returns the earliest absolute time at which `cost` cycles of
// service accumulate for task t starting no earlier than `from`.
func (t *Task) serviceEnd(from sim.Time, cost sim.Time) sim.Time {
	P, B, O := t.s.Period, t.Budget, t.Offset
	now := from
	for cost > 0 {
		// Position within the current period.
		pos := now % P
		winStart, winEnd := O, O+B
		switch {
		case pos < winStart:
			now += winStart - pos
		case pos >= winEnd:
			now += P - pos + winStart
		default:
			avail := winEnd - pos
			if avail >= cost {
				return now + cost
			}
			cost -= avail
			now += avail
		}
	}
	return now
}

// Post enqueues a work item of the given cost; fn runs when the item
// completes. Items of one task execute in FIFO order.
func (t *Task) Post(cost sim.Time, fn func()) {
	start := t.s.k.Now()
	if t.freeAt > start {
		start = t.freeAt
	}
	end := t.serviceEnd(start, cost)
	t.freeAt = end
	t.Busy += uint64(cost)
	t.s.k.ScheduleAt(end, func() {
		t.Completed++
		if fn != nil {
			fn()
		}
	})
}

// WorstCaseLatency is the analytical response bound for a single item of
// the given cost posted to an otherwise idle task: ⌈C/B⌉·(P−B) + C.
func (t *Task) WorstCaseLatency(cost sim.Time) sim.Time {
	if cost == 0 {
		return 0
	}
	n := (cost + t.Budget - 1) / t.Budget
	return n*(t.s.Period-t.Budget) + cost
}
