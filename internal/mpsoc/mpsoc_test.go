package mpsoc

import (
	"math/big"
	"testing"
	"unsafe"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// onePassthroughConfig: a single stream over one passthrough accelerator.
func onePassthroughConfig(block int64, total uint64) MultiConfig {
	return MultiConfig{
		HopLatency: 1,
		Chains: []ChainSpec{{
			Name:      "t",
			EntryCost: 15,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels:    []AccelSpec{{Name: "acc", Cost: 1}},
			Streams: []StreamSpec{{
				Name:           "s0",
				Block:          block,
				Decimation:     1,
				Reconfig:       100,
				InCapacity:     int(3 * block),
				OutCapacity:    int(3 * block),
				Engines:        []accel.Engine{accel.Passthrough{}},
				TotalInputs:    total,
				CollectOutputs: true,
			}},
		}},
	}
}

func TestSingleStreamEndToEnd(t *testing.T) {
	sys, err := Build(onePassthroughConfig(8, 64))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000_000)
	if got := sys.Strs[0].collected; got != 64 {
		t.Fatalf("collected %d of 64", got)
	}
	for i, w := range sys.Strs[0].Outputs {
		if w != sim.Word(i) {
			t.Fatalf("output %d = %d (data corrupted)", i, w)
		}
	}
	rep := sys.Report()
	if rep.PerStream[0].Blocks != 8 {
		t.Errorf("blocks = %d, want 8", rep.PerStream[0].Blocks)
	}
	if rep.PerStream[0].Overflows != 0 {
		t.Errorf("overflows = %d", rep.PerStream[0].Overflows)
	}
}

// TestSourceGeneratesEachIndexOnce: while the input FIFO refuses writes
// although it has room (here a re-point gate; a busy or wedged ring node
// refuses the same way), the source task offers the word it already
// generated again instead of generating its index anew. A stateful source
// (a modulator that steps on every call) therefore steps once per index.
func TestSourceGeneratesEachIndexOnce(t *testing.T) {
	const total = 64
	cfg := onePassthroughConfig(8, total)
	var calls []uint64 // the index of every gen call, in order
	cfg.Chains[0].Streams[0].SourcePeriod = 50
	cfg.Chains[0].Streams[0].Source = func(n uint64) sim.Word {
		calls = append(calls, n)
		return sim.Word(len(calls) - 1) // counts calls, not indices
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Strs[0]
	var gated uint64
	sys.K.ScheduleAt(175, func() {
		st.In.BeginRepoint()
		gated = st.produced
	})
	sys.K.ScheduleAt(475, func() {
		if st.produced != gated || st.In.Space() <= 0 {
			t.Errorf("the gate did not hold back a source with room: produced %d → %d, space %d",
				gated, st.produced, st.In.Space())
		}
		st.In.RepointConsumer(sys.EntryNode)
	})
	sys.Run(1_000_000)
	if st.Overflows != 0 || st.collected != total {
		t.Fatalf("collected %d of %d, %d overflows", st.collected, total, st.Overflows)
	}
	for i, w := range st.Outputs {
		if w != sim.Word(i) {
			t.Fatalf("input word %d = %d: the source generated an index again", i, w)
		}
	}
	if len(calls) != total {
		t.Fatalf("%d source calls for %d indices", len(calls), total)
	}
	for i, n := range calls {
		if n != uint64(i) {
			t.Fatalf("source call %d generated index %d", i, n)
		}
	}
}

func TestTwoStreamsSharingChainKeepSeparateState(t *testing.T) {
	// Two streams over one Shift accelerator with per-stream counters: the
	// context switches must preserve each stream's count exactly.
	mk := func(name string) StreamSpec {
		return StreamSpec{
			Name:           name,
			Block:          4,
			Decimation:     1,
			Reconfig:       50,
			InCapacity:     16,
			OutCapacity:    16,
			Engines:        []accel.Engine{&enginetest.Shift{By: 1}},
			TotalInputs:    32,
			CollectOutputs: true,
		}
	}
	cfg := MultiConfig{
		HopLatency: 1,
		Chains: []ChainSpec{{
			Name:      "share",
			EntryCost: 3,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels:    []AccelSpec{{Name: "gain", Cost: 1}},
			Streams:   []StreamSpec{mk("a"), mk("b")},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000_000)
	for i := 0; i < 2; i++ {
		if got := sys.Strs[i].collected; got != 32 {
			t.Fatalf("stream %d collected %d of 32", i, got)
		}
		for n, w := range sys.Strs[i].Outputs {
			oi, _ := sim.UnpackIQ(w)
			ii, _ := sim.UnpackIQ(sim.Word(uint64(n)))
			if oi != ii<<1 {
				t.Fatalf("stream %d output %d = %d, want %d", i, n, oi, ii<<1)
			}
		}
		// Per-stream engine counted exactly its own samples.
		g := sys.Strs[i].Spec.Engines[0].(*enginetest.Shift)
		if g.Count != 32 {
			t.Errorf("stream %d engine count = %d, want 32", i, g.Count)
		}
	}
	rep := sys.Report()
	if rep.ReconfigCycles == 0 {
		t.Error("no reconfiguration cycles recorded")
	}
	// 16 blocks total (8 per stream) x 50 cycles.
	if rep.ReconfigCycles != 16*50 {
		t.Errorf("reconfig cycles = %d, want 800", rep.ReconfigCycles)
	}
}

func TestDecimatingChainOutBlockAccounting(t *testing.T) {
	// FIR decimating by 4: 16-sample blocks produce 4 outputs each.
	fir, err := accel.NewFIR([]int32{32767}, 4) // ~unity single tap
	if err != nil {
		t.Fatal(err)
	}
	cfg := MultiConfig{
		HopLatency: 1,
		Chains: []ChainSpec{{
			Name:      "dec",
			EntryCost: 2,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels:    []AccelSpec{{Name: "fir", Cost: 1}},
			Streams: []StreamSpec{{
				Name:           "s",
				Block:          16,
				Decimation:     4,
				Reconfig:       10,
				InCapacity:     64,
				OutCapacity:    64,
				Engines:        []accel.Engine{fir},
				TotalInputs:    64,
				CollectOutputs: true,
			}},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000_000)
	if got := sys.Strs[0].collected; got != 16 {
		t.Fatalf("collected %d outputs, want 64/4 = 16", got)
	}
	rep := sys.Report()
	if rep.PerStream[0].Blocks != 4 {
		t.Errorf("blocks = %d, want 4", rep.PerStream[0].Blocks)
	}
}

func TestBlockNotMultipleOfDecimationRejected(t *testing.T) {
	fir, _ := accel.NewFIR([]int32{32767}, 4)
	cfg := MultiConfig{
		Chains: []ChainSpec{{
			Name:      "bad",
			EntryCost: 1,
			ExitCost:  1,
			Accels:    []AccelSpec{{Name: "fir", Cost: 1}},
			Streams: []StreamSpec{{
				Name: "s", Block: 10, Decimation: 4,
				InCapacity: 64, OutCapacity: 64,
				Engines: []accel.Engine{fir},
			}},
		}},
	}
	if _, err := Build(cfg); err == nil {
		t.Fatal("block not divisible by decimation accepted")
	}
}

// TestHardwareRefinesModel is the central validation (paper §III): the
// cycle-level "hardware" must be a temporal refinement of the analysis
// model. We check the measured worst-case block turnaround of every stream
// against the γs bound (Eq. 4) and the measured throughput against Eq. 5.
func TestHardwareRefinesModel(t *testing.T) {
	// Two streams, distinct block sizes, a 2-accelerator chain.
	cfg := MultiConfig{
		HopLatency: 1,
		Chains: []ChainSpec{{
			Name:      "refine",
			EntryCost: 15,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels: []AccelSpec{
				{Name: "a0", Cost: 1},
				{Name: "a1", Cost: 1},
			},
			Streams: []StreamSpec{
				{
					Name: "fast", Block: 64, Decimation: 1, Reconfig: 500,
					InCapacity: 256, OutCapacity: 256,
					Engines:     []accel.Engine{accel.Passthrough{}, accel.Passthrough{}},
					TotalInputs: 4096,
				},
				{
					Name: "slow", Block: 16, Decimation: 1, Reconfig: 500,
					InCapacity: 64, OutCapacity: 64,
					Engines:     []accel.Engine{accel.Passthrough{}, accel.Passthrough{}},
					TotalInputs: 1024,
				},
			},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5_000_000)

	model := &core.System{
		Chain: core.Chain{
			Name:       "refine",
			AccelCosts: []uint64{1, 1},
			EntryCost:  15,
			ExitCost:   1,
		},
		ClockHz: 100_000_000, // irrelevant for cycle-domain comparison
		Streams: []core.Stream{
			{Name: "fast", Rate: big.NewRat(1, 1), Reconfig: 500, Block: 64},
			{Name: "slow", Rate: big.NewRat(1, 1), Reconfig: 500, Block: 16},
		},
	}
	rep := sys.Report()
	for i := range model.Streams {
		gamma, err := model.GammaHat(i)
		if err != nil {
			t.Fatal(err)
		}
		sr := rep.PerStream[i]
		if sr.Blocks < 10 {
			t.Fatalf("stream %s processed only %d blocks", sr.Name, sr.Blocks)
		}
		if sr.MaxTurnaround > gamma {
			t.Errorf("stream %s: measured turnaround %d exceeds γ̂ = %d — hardware does not refine the model",
				sr.Name, sr.MaxTurnaround, gamma)
		} else {
			t.Logf("stream %s: worst turnaround %d cycles vs bound %d (%.1f%% of bound)",
				sr.Name, sr.MaxTurnaround, gamma, 100*float64(sr.MaxTurnaround)/float64(gamma))
		}
	}
}

func TestSpaceCheckAblation(t *testing.T) {
	// A1: with a slow sink and NO space check, the active stream's block
	// stalls mid-flight at the exit gateway and head-of-line blocks the
	// other stream, pushing its turnaround past the γ̂ bound. With the
	// check, the slow stream simply never becomes eligible and the fast
	// stream stays within its bound.
	build := func(disable bool) Report {
		cfg := MultiConfig{
			HopLatency: 1,
			Chains: []ChainSpec{{
				Name:              "ablate",
				EntryCost:         15,
				ExitCost:          1,
				Mode:              gateway.ReconfigFixed,
				Accels:            []AccelSpec{{Name: "a", Cost: 1}},
				DisableSpaceCheck: disable,
				Streams: []StreamSpec{
					{
						// Stream whose consumer is extremely slow and whose
						// output FIFO is smaller than two blocks.
						Name: "clogged", Block: 16, Decimation: 1, Reconfig: 50,
						InCapacity: 64, OutCapacity: 20,
						Engines:     []accel.Engine{accel.Passthrough{}},
						SinkPeriod:  5_000,
						TotalInputs: 512,
					},
					{
						Name: "victim", Block: 16, Decimation: 1, Reconfig: 50,
						InCapacity: 64, OutCapacity: 64,
						Engines:     []accel.Engine{accel.Passthrough{}},
						TotalInputs: 2048,
					},
				},
			}},
		}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(2_000_000)
		return sys.Report()
	}

	model := &core.System{
		Chain:   core.Chain{Name: "ablate", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "clogged", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
			{Name: "victim", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
		},
	}
	gamma, err := model.GammaHat(1)
	if err != nil {
		t.Fatal(err)
	}

	with := build(false)
	without := build(true)
	if with.PerStream[1].MaxTurnaround > gamma {
		t.Errorf("WITH space check: victim turnaround %d exceeds γ̂ = %d",
			with.PerStream[1].MaxTurnaround, gamma)
	}
	if without.PerStream[1].MaxTurnaround <= gamma {
		t.Errorf("WITHOUT space check: victim turnaround %d unexpectedly within γ̂ = %d — ablation shows no effect",
			without.PerStream[1].MaxTurnaround, gamma)
	}
	t.Logf("victim worst turnaround: with check %d, without %d (bound %d)",
		with.PerStream[1].MaxTurnaround, without.PerStream[1].MaxTurnaround, gamma)
}

func TestReconfigPerWordMode(t *testing.T) {
	// A3: software state switching charges per state word; a FIR's delay
	// line makes reconfiguration dominate.
	fir1, _ := accel.NewFIR(make([]int32, 33), 1)
	fir2, _ := accel.NewFIR(make([]int32, 33), 1)
	cfg := MultiConfig{
		HopLatency: 1,
		Chains: []ChainSpec{{
			Name:       "sw",
			EntryCost:  2,
			ExitCost:   1,
			Mode:       gateway.ReconfigPerWord,
			BusBase:    50,
			BusPerWord: 20,
			Accels:     []AccelSpec{{Name: "fir", Cost: 1}},
			Streams: []StreamSpec{
				{
					Name: "x", Block: 8, Decimation: 1, Reconfig: 0,
					InCapacity: 32, OutCapacity: 32,
					Engines:     []accel.Engine{fir1},
					TotalInputs: 64,
				},
				{
					Name: "y", Block: 8, Decimation: 1, Reconfig: 0,
					InCapacity: 32, OutCapacity: 32,
					Engines:     []accel.Engine{fir2},
					TotalInputs: 64,
				},
			},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3_000_000)
	rep := sys.Report()
	if sys.Strs[0].collected != 64 || sys.Strs[1].collected != 64 {
		t.Fatalf("collected %d/%d", sys.Strs[0].collected, sys.Strs[1].collected)
	}
	if rep.ReconfigShare < rep.StreamingShare {
		t.Errorf("per-word state switch should dominate: reconfig %.2f vs streaming %.2f",
			rep.ReconfigShare, rep.StreamingShare)
	}
}

func TestArbiterAblationPriorityStarves(t *testing.T) {
	// A saturated high-priority stream under FixedPriority starves the
	// other stream; RoundRobin bounds both (the reason §IV-C uses RR).
	build := func(arb gateway.Arbitration) Report {
		cfg := MultiConfig{
			HopLatency: 1,
			Chains: []ChainSpec{{
				Name:      "arb",
				EntryCost: 15,
				ExitCost:  1,
				Mode:      gateway.ReconfigFixed,
				Arbiter:   arb,
				Accels:    []AccelSpec{{Name: "a", Cost: 1}},
				Streams: []StreamSpec{
					{
						// Saturating high-priority stream: always has a block.
						Name: "greedy", Block: 16, Decimation: 1, Reconfig: 50,
						InCapacity: 64, OutCapacity: 64,
						Engines: []accel.Engine{accel.Passthrough{}},
					},
					{
						Name: "meek", Block: 16, Decimation: 1, Reconfig: 50,
						InCapacity: 64, OutCapacity: 64,
						Engines: []accel.Engine{accel.Passthrough{}},
					},
				},
			}},
		}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(500_000)
		return sys.Report()
	}
	model := &core.System{
		Chain:   core.Chain{Name: "arb", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "greedy", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
			{Name: "meek", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
		},
	}
	gamma, err := model.GammaHat(1)
	if err != nil {
		t.Fatal(err)
	}
	rr := build(gateway.RoundRobin)
	pr := build(gateway.FixedPriority)
	if rr.PerStream[1].MaxTurnaround > gamma {
		t.Errorf("RR: meek turnaround %d exceeds γ̂ = %d", rr.PerStream[1].MaxTurnaround, gamma)
	}
	// Under fixed priority the meek stream is starved: it serves far fewer
	// blocks and its turnaround blows past the bound.
	if pr.PerStream[1].Blocks*4 > pr.PerStream[0].Blocks {
		t.Errorf("priority: meek got %d blocks vs greedy %d — expected starvation",
			pr.PerStream[1].Blocks, pr.PerStream[0].Blocks)
	}
	if pr.PerStream[1].PendingWait <= gamma {
		t.Errorf("priority: meek pending wait %d within γ̂ = %d — ablation shows no effect",
			pr.PerStream[1].PendingWait, gamma)
	}
	if rr.PerStream[1].PendingWait > gamma {
		t.Errorf("RR: meek pending wait %d exceeds γ̂ = %d", rr.PerStream[1].PendingWait, gamma)
	}
	t.Logf("meek blocks: RR %d vs priority %d; meek pending wait: RR %d vs priority %d (γ̂=%d)",
		rr.PerStream[1].Blocks, pr.PerStream[1].Blocks,
		rr.PerStream[1].PendingWait, pr.PerStream[1].PendingWait, gamma)
}

// TestStreamSizeClass: on 64-bit platforms a Stream stays in the 288-byte
// malloc size class (the next is 320). A fleet allocates one per admitted
// stream, and the benchmark's allocation figures rest on that class.
func TestStreamSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Stream{}); got > 288 {
		t.Errorf("a Stream is %d bytes, past its 288-byte size class", got)
	}
}
