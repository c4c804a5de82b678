package cluster

// The stream lifecycle (DESIGN §8.1): every registry stream is in one
// phase, and step moves it along one of the named transitions below. Each
// transition names the phases it may leave; step panics on any other.

import (
	"fmt"
	"slices"
)

// phase is where a stream is in its life.
type phase uint8

const (
	placing     phase = iota // an arrival without a chain
	live                     // running on its chain
	departing                // running; its removal is pending on its chain
	moving                   // running; a rebalance removal is pending on its chain
	migrating                // exported, between chains: an evacuee or a rebalance victim
	parked                   // shed: source stopped, export retained
	readmitting              // parked, with a readmission pending
	departed
	rejected
	stay // a transition's target: the phase it leaves
)

var phaseNames = [...]string{"placing", "live", "departing", "moving", "migrating", "parked", "readmitting", "departed", "rejected"}

// reported is the StreamStatus.State of each phase.
var reported = [...]string{"placing", "live", "live", "live", "placing", "parked", "parked", "departed", "rejected"}

func (p phase) String() string { return phaseNames[p] }

// shed reports a stream the ladder parked: parked, or readmitting.
func (si *streamInfo) shed() bool { return si.phase == parked || si.phase == readmitting }

// transition is one named edge of the lifecycle.
type transition struct {
	name string
	from []phase
	to   phase
}

var (
	// A chain took an admission request: the stream waits on it.
	offerAdmit   = transition{"offer admission", []phase{placing, migrating}, stay}
	offerRemoval = transition{"offer removal", []phase{live}, departing}
	offerReadmit = transition{"offer readmission", []phase{parked}, readmitting}
	// refusedRemoval is the depart quirk: a departure its chain refused at
	// once is marked departing all the same, with no request pending, so
	// its scheduled retry only defers it and the stream stays live until a
	// migration lands it again. The chaos transcripts and the chaos
	// benchmark digest record this behaviour.
	refusedRemoval = transition{"refused removal", []phase{live}, departing}
	// retract ends an admission the stream waited on without landing it.
	retract   = transition{"retract", []phase{placing, migrating}, stay}
	arrive    = transition{"arrive", []phase{placing}, live}
	reject    = transition{"reject", []phase{placing}, rejected}
	remove    = transition{"remove", []phase{departing}, departed}
	endDepart = transition{"end departure", []phase{departing}, live}
	endMove   = transition{"end move", []phase{moving}, live}
	departNow = transition{"depart parked", []phase{parked}, departed}
	rehome    = transition{"rehome", []phase{live}, live}
	evacuee   = transition{"evacuate", []phase{live}, migrating}
	beginMove = transition{"begin move", []phase{live}, moving}
	release   = transition{"release", []phase{moving}, migrating}
	land      = transition{"land", []phase{migrating}, live}
	park      = transition{"park", []phase{migrating}, parked}
	leave     = transition{"depart in transit", []phase{migrating}, departed}
	readmit   = transition{"readmit", []phase{readmitting}, live}
	unpark    = transition{"end readmission", []phase{readmitting}, parked}
)

// step moves si along t. at is the chain position of the new phase: the
// chain a live stream runs on, or the chain a pending admission waits on
// (-1 for none). A removal waits on the stream's own chain; parked and
// final phases have no chain.
func (si *streamInfo) step(t transition, at int) {
	if !slices.Contains(t.from, si.phase) {
		panic(fmt.Sprintf("cluster: %s of %s in phase %s", t.name, si.name, si.phase))
	}
	if t.to != stay {
		si.phase = t.to
	}
	switch si.phase {
	case live:
		si.chain, si.pendingOn = at, -1
	case departing, moving:
		si.pendingOn = si.chain
	default:
		si.chain, si.pendingOn = -1, at
	}
	if si.phase != migrating {
		si.m = nil
	}
}
