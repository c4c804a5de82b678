package mpsoc

import (
	"reflect"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

func twoChainConfig() MultiConfig {
	mkStream := func(name string, block int64, total uint64) StreamSpec {
		return StreamSpec{
			Name: name, Block: block, Decimation: 1, Reconfig: 50,
			InCapacity: int(4 * block), OutCapacity: int(4 * block),
			Engines:        []accel.Engine{&accel.Gain{Shift: 1}},
			TotalInputs:    total,
			CollectOutputs: true,
		}
	}
	return MultiConfig{
		Name:       "fig1",
		HopLatency: 1,
		Chains: []ChainSpec{
			{
				Name: "g0g1", EntryCost: 3, ExitCost: 1, Mode: gateway.ReconfigFixed,
				Accels:  []AccelSpec{{Name: "acc0", Cost: 1, NICapacity: 2}},
				Streams: []StreamSpec{mkStream("a0", 8, 128), mkStream("a1", 8, 128)},
			},
			{
				Name: "g2g3", EntryCost: 5, ExitCost: 1, Mode: gateway.ReconfigFixed,
				Accels: []AccelSpec{
					{Name: "acc1", Cost: 2, NICapacity: 2},
					{Name: "acc2", Cost: 1, NICapacity: 2},
				},
				Streams: []StreamSpec{func() StreamSpec {
					s := mkStream("b0", 16, 256)
					// Two-tile chain: gain on the first, passthrough after.
					s.Engines = []accel.Engine{&accel.Gain{Shift: 1}, accel.Passthrough{}}
					return s
				}()},
			},
		},
	}
}

func TestBuildMultiValidation(t *testing.T) {
	if _, err := BuildMulti(MultiConfig{}); err == nil {
		t.Error("no chains accepted")
	}
	cfg := twoChainConfig()
	cfg.Chains[0].Accels = nil
	if _, err := BuildMulti(cfg); err == nil {
		t.Error("chain without accelerators accepted")
	}
	cfg = twoChainConfig()
	cfg.Chains[1].Streams = nil
	if _, err := BuildMulti(cfg); err == nil {
		t.Error("chain without streams accepted")
	}
	cfg = twoChainConfig()
	cfg.Chains[0].ReserveSlots = -1
	if _, err := BuildMulti(cfg); err == nil {
		t.Error("negative reserved slots accepted")
	}
}

// TestBuildTakesOneChain: Build is BuildMulti for exactly one chain.
func TestBuildTakesOneChain(t *testing.T) {
	if _, err := Build(MultiConfig{HopLatency: 1}); err == nil {
		t.Error("Build accepted zero chains")
	}
	if _, err := Build(twoChainConfig()); err == nil {
		t.Error("Build accepted two chains")
	}
	cfg := twoChainConfig()
	cfg.Chains = cfg.Chains[1:]
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Chain != sys.Chains[0] || sys.Spec.Name != "g2g3" {
		t.Errorf("System views chain %q, want the platform's only chain g2g3", sys.Spec.Name)
	}
}

// TestChainSpecTimingMatchesBuiltChain: the temporal model read from a
// spec before the build is the chain the build assembles: ε and δ from
// the gateway pair, ρA from each tile in chain order, and α the NI depth
// of the shallowest tile, an unset depth counting as the tile's default.
func TestChainSpecTimingMatchesBuiltChain(t *testing.T) {
	engines := func(n int) []accel.Engine {
		e := make([]accel.Engine, n)
		for i := range e {
			e[i] = accel.Passthrough{}
		}
		return e
	}
	for _, tc := range []struct {
		name   string
		accels []AccelSpec
		want   core.Chain
	}{
		{"explicit-depth", []AccelSpec{{Name: "a", Cost: 3, NICapacity: 4}},
			core.Chain{AccelCosts: []uint64{3}, NICapacity: 4}},
		{"default-depth", []AccelSpec{{Name: "a", Cost: 2}},
			core.Chain{AccelCosts: []uint64{2}, NICapacity: 2}},
		{"several-accels", []AccelSpec{
			{Name: "a", Cost: 1, NICapacity: 5},
			{Name: "b", Cost: 4, NICapacity: 3},
			{Name: "c", Cost: 2, NICapacity: 6},
		}, core.Chain{AccelCosts: []uint64{1, 4, 2}, NICapacity: 3}},
		{"default-is-shallowest", []AccelSpec{
			{Name: "a", Cost: 1, NICapacity: 4},
			{Name: "b", Cost: 1},
		}, core.Chain{AccelCosts: []uint64{1, 1}, NICapacity: 2}},
	} {
		for _, standby := range []bool{false, true} {
			spec := ChainSpec{
				Name: tc.name, EntryCost: 7, ExitCost: 2, Mode: gateway.ReconfigFixed,
				Accels: tc.accels, Standby: standby,
			}
			if !standby {
				spec.Streams = []StreamSpec{{
					Name: "s", Block: 4, Decimation: 1, InCapacity: 16, OutCapacity: 16,
					Engines: engines(len(tc.accels)),
				}}
			}
			want := tc.want
			want.Name, want.EntryCost, want.ExitCost = tc.name, 7, 2
			got := spec.Timing()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (standby %v): Timing() = %+v, want %+v", tc.name, standby, got, want)
			}
			sys, err := Build(MultiConfig{HopLatency: 1, Chains: []ChainSpec{spec}})
			if err != nil {
				t.Fatal(err)
			}
			built := core.Chain{Name: tc.name, EntryCost: 7, ExitCost: 2, NICapacity: int64(sys.Tiles[0].In().Cap())}
			for _, tile := range sys.Tiles {
				built.AccelCosts = append(built.AccelCosts, uint64(tile.Cost))
				built.NICapacity = min(built.NICapacity, int64(tile.In().Cap()))
			}
			if !reflect.DeepEqual(got, built) {
				t.Errorf("%s (standby %v): Timing() = %+v, built chain %+v", tc.name, standby, got, built)
			}
		}
	}
}

func TestTwoChainsOnOneRing(t *testing.T) {
	// The Fig. 1 architecture: two independent gateway pairs on one dual
	// ring, running concurrently.
	ms, err := BuildMulti(twoChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	ms.Run(2_000_000)
	reps := ms.Report()
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].PerStream[0].SamplesOut != 128 || reps[0].PerStream[1].SamplesOut != 128 {
		t.Errorf("chain 0 outputs: %+v", reps[0].PerStream)
	}
	if reps[1].PerStream[0].SamplesOut != 256 {
		t.Errorf("chain 1 outputs: %+v", reps[1].PerStream)
	}
	// Functional integrity through separate chains.
	for _, ch := range ms.Chains {
		for _, st := range ch.Strs {
			for n, w := range st.Outputs {
				oi, _ := sim.UnpackIQ(w)
				ii, _ := sim.UnpackIQ(sim.Word(uint64(n)))
				if oi != ii<<1 {
					t.Fatalf("chain %s stream %s output %d corrupted", ch.Spec.Name, st.GW.Name, n)
				}
			}
		}
	}
}

func TestChainsAreTemporallyIndependent(t *testing.T) {
	// Chain 1's results must be identical whether chain 0 exists or not
	// (separate gateways, separate accelerators; the ring is dimensioned
	// for both). This is the paper's multi-application deployment story.
	solo := MultiConfig{
		Name:       "solo",
		HopLatency: 1,
		Chains:     []ChainSpec{twoChainConfig().Chains[1]},
	}
	msSolo, err := BuildMulti(solo)
	if err != nil {
		t.Fatal(err)
	}
	msSolo.Run(2_000_000)
	soloRep := msSolo.Report()[0]

	msBoth, err := BuildMulti(twoChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	msBoth.Run(2_000_000)
	bothRep := msBoth.Report()[1]

	if soloRep.PerStream[0].SamplesOut != bothRep.PerStream[0].SamplesOut {
		t.Errorf("sample counts differ: solo %d vs both %d",
			soloRep.PerStream[0].SamplesOut, bothRep.PerStream[0].SamplesOut)
	}
	if soloRep.PerStream[0].Blocks != bothRep.PerStream[0].Blocks {
		t.Errorf("block counts differ: solo %d vs both %d",
			soloRep.PerStream[0].Blocks, bothRep.PerStream[0].Blocks)
	}
	// Turnarounds may differ slightly through ring hop distances (node
	// indices shift), but must stay in the same ballpark.
	s, b := soloRep.PerStream[0].MaxTurnaround, bothRep.PerStream[0].MaxTurnaround
	if b > 2*s+100 {
		t.Errorf("turnaround degraded from %d to %d with a second chain", s, b)
	}
}
