package main

import (
	"fmt"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/cluster"
	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// unit is one simulated job: a PAL decode or one fleet campaign. A
// workload's rep runs its units in order; each unit is set up, run and
// checked before the next one is built, so only one is alive at a time.
type unit interface {
	// setup builds the job up to its first simulated cycle.
	setup(tr *tracer, sv *timedSolver) error
	// run advances the simulation to the horizon, calling pause between
	// segments, and runs the job's own conformance pass: the phase
	// cpu_ns_per_cycle measures.
	run(tr *tracer, pause func()) error
	// cycles is the simulated horizon run covers.
	cycles() uint64
	// check verifies the job's outputs after run.
	check() error
	// observe adds the unit's deterministic layer counters and its
	// observable outputs to o.
	observe(o *observation)
}

// workload names one benchmark workload and lists its units.
type workload struct {
	name  string
	units func() []unit
}

// setupBatch is how many times a rep sets each unit up, so a rep's set-up
// sample averages tens of milliseconds of set-up work.
const setupBatch = 16

// Every workload runs fixed inputs. Traffic seeds move serve's cost per
// cycle by about ±8% and a chaos soak's by up to 5x (the exact ILP tier's
// branch-and-bound size depends on the stream mix), so seed-derived
// traffic would make the spread between runs measure the seed, not the
// code. serve and chaos use the campaigns' own default seeds instead.
var workloads = []workload{
	{name: "pal", units: func() []unit { return []unit{newPALUnit()} }},
	{name: "serve", units: func() []unit { return []unit{newFleetUnit(serveProfile(serveSeed))} }},
	{name: "chaos", units: func() []unit {
		us := make([]unit, chaosSoaks)
		for i := range us {
			us[i] = newFleetUnit(chaosProfile(chaosSeed + uint64(i)))
		}
		return us
	}},
}

// serveSeed and chaosSeed are the traffic seeds of `accelshare serve` and
// `accelshare chaos`; chaos soaks run on chaosSeed and its successors.
const (
	serveSeed  = 24601
	chaosSeed  = 1789
	chaosSoaks = 4
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want pal, serve or chaos)", name)
}

// palAudioSeconds is the span of audio one pal unit decodes. Twice that
// span of platform cycles drains the pipeline, as the package's stereo
// test does.
const palAudioSeconds = 0.05

// palSegment is the length of one measured pal segment in cycles.
const palSegment = 100_000

// palBlocks are the paper's block sizes Algorithm 1 must return (§VI-A).
var palBlocks = []int64{9848, 9848, 1232, 1232}

// palUnit is the §VI-A PAL stereo decoder.
type palUnit struct {
	p       pal.Params
	horizon sim.Time
	d       *pal.Decoder
}

func newPALUnit() *palUnit {
	p := pal.DefaultParams()
	p.Seconds = palAudioSeconds
	return &palUnit{p: p, horizon: sim.Time(2 * palAudioSeconds * p.ClockHz)}
}

func (u *palUnit) setup(tr *tracer, sv *timedSolver) error {
	gran := make([]int64, len(u.p.Blocks))
	for i := range gran {
		gran[i] = int64(u.p.Decimation)
	}
	res, err := sv.Solve(&solve.Problem{Model: pal.AnalysisModel(u.p), Granularity: gran})
	if err != nil {
		return fmt.Errorf("pal: algorithm 1: %w", err)
	}
	for i, b := range palBlocks {
		if res.Blocks[i] != b {
			return fmt.Errorf("pal: algorithm 1 returned blocks %v, want %v", res.Blocks, palBlocks)
		}
	}
	copy(u.p.Blocks[:], res.Blocks)
	u.d, err = pal.Build(u.p)
	return err
}

func (u *palUnit) run(tr *tracer, pause func()) error {
	advance(u.d.Run, u.d.Sys.K, u.horizon, palSegment, pause)
	return nil
}

func (u *palUnit) cycles() uint64 { return uint64(u.horizon) }

func (u *palUnit) check() error {
	for _, sr := range u.d.Sys.Report().PerStream {
		if sr.Overflows != 0 {
			return fmt.Errorf("pal: stream %s dropped %d samples", sr.Name, sr.Overflows)
		}
		if sr.Blocks == 0 {
			return fmt.Errorf("pal: stream %s never ran", sr.Name)
		}
	}
	const transient = 200
	if len(u.d.L) < 4*transient {
		return fmt.Errorf("pal: only %d audio samples decoded", len(u.d.L))
	}
	l, r := u.d.L[transient:], u.d.R[transient:]
	rate := u.p.AudioRate
	// ≥ 10 dB: each channel's own tone carries ten times the power of the
	// other channel's tone.
	if on, off := pal.GoertzelPower(l, u.p.ToneL, rate), pal.GoertzelPower(l, u.p.ToneR, rate); on < 10*off {
		return fmt.Errorf("pal: left channel does not isolate its tone: %g vs %g", on, off)
	}
	if on, off := pal.GoertzelPower(r, u.p.ToneR, rate), pal.GoertzelPower(r, u.p.ToneL, rate); on < 10*off {
		return fmt.Errorf("pal: right channel does not isolate its tone: %g vs %g", on, off)
	}
	return nil
}

func (u *palUnit) observe(o *observation) {
	sys := u.d.Sys
	o.platform(sys.K, sys.Net, []*gateway.Pair{sys.Pair}, sys.Tiles, sys.Strs, u.cycles())
	rep := sys.Report()
	model := pal.AnalysisModel(u.p)
	for i, sr := range rep.PerStream {
		o.add("gateway.blocks", float64(sr.Blocks))
		o.add("mpsoc.samples_out", float64(sr.SamplesOut))
		o.add("mpsoc.dropped", float64(sr.Overflows))
		if gh, err := model.GammaHat(i); err == nil {
			o.slack("gateway.gamma_slack_min_cycles", gh, uint64(sr.MaxTurnaround))
		}
		o.hash("turnaround", sr.Name, sr.Blocks, sr.SamplesIn, sr.SamplesOut, uint64(sr.MaxTurnaround))
	}
	// Offered front-end samples are the stage-1 inputs accepted plus those
	// the full input FIFO dropped.
	for _, st := range sys.Strs[:2] {
		pushed, _, _ := st.In.BufferStats()
		o.attempted += pushed + st.Overflows
		o.failed += st.Overflows
	}
	o.hashInts("audio.L", u.d.L)
	o.hashInts("audio.R", u.d.R)
}

// fleetProfile is one cluster campaign: the serve or chaos shape from the
// accelshare command, rebuilt here on cluster.Config.
type fleetProfile struct {
	name    string
	horizon sim.Time
	// segment is the length of one measured segment in cycles.
	segment sim.Time
	cfg     cluster.Config
	traffic cluster.Profile
	conf    conformance.Options
	// minAdmitted fails the unit when fewer lifetimes were admitted.
	minAdmitted int
}

// serveProfile is the full `accelshare serve` campaign: eight chains,
// 1.9M cycles, a diurnal ramp, a persistent flash crowd, the live
// rebalancer, slot reclamation and the float solver tier.
func serveProfile(seed uint64) fleetProfile {
	cfg := fleetConfig()
	cfg.InCapacity, cfg.OutCapacity = 512, 256
	cfg.ResidentPeriod = 150
	cfg.Retry.Limit = 8
	exact := &solve.Exact{ILPStreamCap: 1}
	cfg.Solver = &solve.Incremental{Inner: &solve.Fast{Fallback: exact}}
	cfg.ReclaimSlots = true
	cfg.Rebalance = cluster.RebalanceConfig{
		Every: 25_000, Start: 50_000, Stop: 1_750_000,
		HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
	}
	for i := 0; i < 8; i++ {
		cost := sim.Time(1)
		if i >= 6 {
			cost = 25
		}
		cfg.Chains = append(cfg.Chains, cluster.ChainSpec{Name: fmt.Sprintf("c%d", i), AccelCost: cost, ReserveSlots: 8})
	}
	return fleetProfile{
		name:    "serve",
		horizon: 1_900_000,
		segment: 10_000,
		cfg:     cfg,
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 1_700_000,
			MeanSpacing: 1_500, MinLifetime: 20_000, MeanLifetime: 40_000,
			Periods:       []int64{300, 600},
			Priorities:    []int{1, 3, 5},
			DiurnalPeriod: 400_000, DiurnalAmplitude: 50,
			FlashAt: 900_000, FlashCount: 8, FlashSpacing: 200,
			FlashPeriod: 300, FlashLifetime: 0,
		},
		conf: conformance.Options{
			After: 1_780_000, MinBlocks: 3, FilterQueued: true,
			ReplayBound: int64(cfg.Recovery.Checkpoint),
		},
		minAdmitted: 1_000,
	}
}

// chaosProfile is the full `accelshare chaos` soak on the default solver
// stack (Config.Solver left nil, as the command leaves it): three rolling
// kills walk failover, evacuate, shed and readmit, with a flash crowd and
// a late spare.
func chaosProfile(seed uint64) fleetProfile {
	wedge := func(at sim.Time) *fault.Plan {
		return &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: at}}}
	}
	cfg := fleetConfig()
	cfg.InCapacity, cfg.OutCapacity = 256, 128
	cfg.ResidentPeriod = 75
	cfg.Retry.Limit = 5
	cfg.Chains = []cluster.ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 6, Faults: wedge(40_000)},
		{Name: "c1", AccelCost: 1, ReserveSlots: 6, Faults: wedge(120_000)},
		{Name: "c2", AccelCost: 25, ReserveSlots: 6, Faults: wedge(90_000)},
		{Name: "c3", AccelCost: 25, ReserveSlots: 6},
		{Name: "sp0", AccelCost: 1, ReserveSlots: 6, Spare: true},
		{Name: "sp1", AccelCost: 1, ReserveSlots: 6, Spare: true, OnlineAt: 150_000},
	}
	return fleetProfile{
		name:    "chaos",
		horizon: 215_000,
		segment: 5_000,
		cfg:     cfg,
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 110_000,
			MeanSpacing: 7_000, MinLifetime: 30_000, MeanLifetime: 45_000,
			Periods: []int64{75, 150, 300}, Priorities: []int{1, 3, 5},
			FlashAt: 112_000, FlashCount: 4, FlashSpacing: 150,
			FlashPeriod: 150, FlashLifetime: 30_000,
		},
		conf: conformance.Options{After: 175_000, MinBlocks: 3, FilterQueued: true},
	}
}

// fleetConfig holds the fleet parameters serve and chaos share.
func fleetConfig() cluster.Config {
	return cluster.Config{
		EntryCost:    15,
		ExitCost:     1,
		HopLatency:   1,
		Reconfig:     50,
		DrainTimeout: 600,
		Recovery: gateway.Recovery{
			Enabled: true, RetryLimit: 2,
			Checkpoint: 4, CheckpointCost: 5, ValueExact: true,
		},
		PerSlotCost:      10,
		Doctor:           fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1},
		Retry:            fault.Backoff{Base: 200, Factor: 2, Cap: 3_200},
		ResidentPriority: 100,
		CollectOutputs:   true,
	}
}

// fleetUnit runs one fleet campaign.
type fleetUnit struct {
	p    fleetProfile
	c    *cluster.Controller
	ops  []cluster.Op
	conf []cluster.ChainConformance
}

func newFleetUnit(p fleetProfile) *fleetUnit { return &fleetUnit{p: p} }

func (u *fleetUnit) setup(tr *tracer, sv *timedSolver) error {
	cfg := u.p.cfg
	inner := cfg.Solver
	if inner == nil {
		inner = solve.Default(0, 0) // what admission.New uses when given none
	}
	cfg.Solver = sv.wrap(inner)
	c, err := cluster.New(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", u.p.name, err)
	}
	u.c = c
	u.ops = u.p.traffic.Ops()
	if tr == nil {
		cluster.Schedule(c, u.ops)
		return nil
	}
	// Same times and order as cluster.Schedule, with each call a span.
	k := c.System().K
	for _, op := range u.ops {
		if op.Depart {
			k.ScheduleAt(op.At, func() {
				id := tr.begin(spanDepart, op.Req.Name)
				c.Depart(op.Req.Name)
				tr.end(id)
			})
		} else {
			k.ScheduleAt(op.At, func() {
				id := tr.begin(spanSubmit, op.Req.Name)
				c.Submit(op.Req)
				tr.end(id)
			})
		}
	}
	return nil
}

func (u *fleetUnit) run(tr *tracer, pause func()) error {
	advance(u.c.Run, u.c.System().K, u.p.horizon, u.p.segment, pause)
	id := tr.begin(spanConformance, "")
	conf, err := u.c.Conformance(u.p.conf)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: conformance: %w", u.p.name, err)
	}
	u.conf = conf
	return nil
}

func (u *fleetUnit) cycles() uint64 { return uint64(u.p.horizon) }

func (u *fleetUnit) check() error {
	name := u.p.name
	for _, s := range u.c.LadderSteps() {
		if s.Measured > s.Bound {
			return fmt.Errorf("%s: %s step of %s at %d measured %d > bound %d",
				name, s.Rung, s.Stream, s.At, s.Measured, s.Bound)
		}
	}
	for _, ss := range u.c.StreamStatuses() {
		if ss.State == "live" && !ss.ContiguousOutputs {
			return fmt.Errorf("%s: live stream %s lost or duplicated samples", name, ss.Name)
		}
	}
	for _, cc := range u.conf {
		if n := len(cc.Result.Violations); n > 0 {
			return fmt.Errorf("%s: chain %s: %d conformance violations, first: %s",
				name, cc.Chain, n, cc.Result.Violations[0])
		}
	}
	admitted := 0
	for _, e := range u.c.Events() {
		if e.Kind == cluster.EvArrive {
			admitted++
		}
	}
	if admitted < u.p.minAdmitted {
		return fmt.Errorf("%s: %d lifetimes admitted, want >= %d", name, admitted, u.p.minAdmitted)
	}
	return nil
}

func (u *fleetUnit) observe(o *observation) {
	ms := u.c.System()
	var pairs []*gateway.Pair
	var tiles []*accel.Tile
	var strs []*mpsoc.Stream
	for _, ch := range ms.Chains {
		pairs = append(pairs, ch.Pair)
		tiles = append(tiles, ch.Tiles...)
		strs = append(strs, ch.Strs...)
	}
	o.platform(ms.K, ms.Net, pairs, tiles, strs, u.cycles())

	// Operations are arrival requests; a request fails when it was
	// rejected, lost or is parked at the end.
	arrivedAt := map[string]sim.Time{}
	for _, op := range u.ops {
		if !op.Depart {
			arrivedAt[op.Req.Name] = op.At
		}
	}
	o.attempted += uint64(len(arrivedAt))
	o.add("cluster.arrivals", float64(len(arrivedAt)))
	lost := map[string]bool{}
	for _, e := range u.c.Events() {
		o.hash("event", uint64(e.At), string(e.Kind), e.Chain, e.Stream, e.Detail)
		switch e.Kind {
		case cluster.EvArrive:
			o.add("cluster.admitted", 1)
			if at, ok := arrivedAt[e.Stream]; ok {
				o.admitLatency = append(o.admitLatency, uint64(e.At-at))
				delete(arrivedAt, e.Stream)
			}
		case cluster.EvLost:
			o.add("cluster.lost", 1)
			lost[e.Stream] = true
		}
	}
	for _, ss := range u.c.StreamStatuses() {
		o.hash("stream", ss.Name, ss.State, ss.Chain, uint64(ss.Priority), ss.Blocks, ss.Samples,
			ss.Overflow, ss.ContiguousOutputs)
		o.add("gateway.blocks", float64(ss.Blocks))
		o.add("mpsoc.samples_out", float64(ss.Samples))
		o.add("mpsoc.dropped", float64(ss.Overflow))
		if ss.State == "rejected" {
			o.add("cluster.rejected", 1)
		}
		if ss.State == "rejected" || ss.State == "parked" || lost[ss.Name] {
			o.failed++
		}
	}
	for _, s := range u.c.LadderSteps() {
		o.add("cluster.ladder."+s.Rung, 1)
		o.slack("cluster.ladder_slack_min_cycles", s.Bound, s.Measured)
		o.hash("ladder", uint64(s.At), s.Stream, s.Rung, s.From, s.To, s.Measured, s.Bound, uint64(s.Replay))
	}
	for _, cc := range u.conf {
		o.add("conformance.blocks_checked", float64(cc.Result.Checked))
		o.add("conformance.violations", float64(len(cc.Result.Violations)))
	}
	for _, st := range strs {
		if st.GW.Released {
			continue
		}
		o.hashWords("outputs", st.GW.Name, st.Outputs)
		for _, r := range st.GW.Turnarounds {
			o.hash("block", st.GW.Name, uint64(r.Queued), uint64(r.Started), uint64(r.Done),
				uint64(r.Retries), uint64(r.Replayed))
		}
	}
}
