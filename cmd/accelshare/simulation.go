package main

// Simulation-layer experiments: the cycle-level MPSoC running the PAL
// stereo decoder and the ablations that need real hardware behaviour.

import (
	"flag"
	"fmt"
	"math"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
)

func init() {
	register("paldemo", "decode PAL stereo audio end to end on the simulated MPSoC (§VI-A)", runPALDemo)
	register("utilization", "gateway duty cycle and accelerator utilisation (§VI-A, E5/E8, A3)", runUtilization)
	register("ablation-spacecheck", "what breaks without the output space check (§V-G, A1)", runSpaceCheckAblation)
	register("all", "run every experiment in sequence", runAll)
}

func runPALDemo(args []string) error {
	fs := flag.NewFlagSet("paldemo", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 0.03, "seconds of audio to synthesise and decode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	p := pal.DefaultParams()
	p.Seconds = *seconds
	d, err := pal.Build(p)
	if err != nil {
		return err
	}
	horizon := sim.Time(*seconds*p.ClockHz) * 2
	fmt.Printf("§VI-A — PAL stereo audio decoder on the simulated MPSoC\n")
	fmt.Printf("front-end %.5g S/s, audio %.5g S/s, blocks %v, Rs = %d, ε = %d, δ = %d\n",
		p.FrontendRate(), p.AudioRate, p.Blocks, p.Reconfig, p.EntryCost, p.ExitCost)
	fmt.Printf("decoding %.3f s of a two-tone stereo broadcast (L = %.0f Hz, R = %.0f Hz)...\n\n",
		*seconds, p.ToneL, p.ToneR)
	d.Run(horizon)

	rep := d.Sys.Report()
	fmt.Printf("%-12s %8s %12s %12s %6s %14s\n", "stream", "blocks", "samples in", "samples out", "drops", "worst turn(cyc)")
	for _, sr := range rep.PerStream {
		fmt.Printf("%-12s %8d %12d %12d %6d %14d\n",
			sr.Name, sr.Blocks, sr.SamplesIn, sr.SamplesOut, sr.Overflows, sr.MaxTurnaround)
	}
	fmt.Printf("\ndecoded %d stereo samples (%.1f ms of audio)\n", len(d.L), 1000*float64(len(d.L))/p.AudioRate)
	if len(d.L) > 400 {
		l, r := d.L[200:], d.R[200:]
		lAtL := pal.GoertzelPower(l, p.ToneL, p.AudioRate)
		lAtR := pal.GoertzelPower(l, p.ToneR, p.AudioRate)
		rAtR := pal.GoertzelPower(r, p.ToneR, p.AudioRate)
		rAtL := pal.GoertzelPower(r, p.ToneL, p.AudioRate)
		fmt.Printf("left  channel: %.1f dB separation (own tone vs other tone)\n", 10*log10(lAtL/lAtR))
		fmt.Printf("right channel: %.1f dB separation\n", 10*log10(rAtR/rAtL))
	}
	ok := true
	for _, sr := range rep.PerStream {
		if sr.Overflows > 0 {
			ok = false
		}
	}
	if ok {
		fmt.Println("real-time constraint met: no front-end sample was ever dropped (44.1 kS/s sustained)")
	} else {
		fmt.Println("REAL-TIME VIOLATION: the front-end dropped samples")
	}
	return nil
}

func log10(x float64) float64 {
	if x <= 0 {
		return -99
	}
	return math.Log10(x)
}

func runUtilization(args []string) error {
	fs := flag.NewFlagSet("utilization", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 0.02, "seconds of audio to run")
	swState := fs.Bool("sw-state", false, "A3: switch accelerator state from software (per-word cost) instead of Rs cycles")
	perWord := fs.Uint64("per-word", 500, "software state-switch cost per word (cycles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *swState {
		return runUtilizationSW(*perWord)
	}
	p := pal.DefaultParams()
	p.Seconds = *seconds
	d, err := pal.Build(p)
	if err != nil {
		return err
	}
	d.Run(sim.Time(*seconds*p.ClockHz) * 2)
	rep := d.Sys.Report()

	fmt.Println("E5/E8 — gateway duty cycle and accelerator utilisation (PAL decoder)")
	fmt.Printf("\ngateway busy time: %.1f%% streaming, %.1f%% reconfiguration\n",
		100*rep.StreamingShare, 100*rep.ReconfigShare)
	fmt.Println("(the paper's §VI-A prose says 5%/95%; with its own Rs = 4100 and ε = 15 the")
	fmt.Println(" model predicts ≈95% streaming — see EXPERIMENTS.md for the discussion; the")
	fmt.Println(" -sw-state flag reproduces the prototype's software-switch regime)")

	fmt.Printf("\naccelerator utilisation (busy fraction of wall time):\n")
	names := []string{"CORDIC", "FIR+D"}
	for i, u := range rep.TileBusy {
		fmt.Printf("  %-8s %6.2f%%  — one shared instance serves 4 streams (4× the per-instance\n", names[i], 100*u)
		fmt.Printf("  %-8s %8s    utilisation of a private-per-stream design)\n", "", "")
	}

	// γ bound check against the analysis model at the implementable
	// (multiple-of-8) block sizes the simulator runs: the default
	// parameters, of which -seconds does not enter the model.
	model := pal.AnalysisModel(pal.DefaultParams())
	fmt.Printf("\nworst-case block turnaround vs γ̂s (Eq. 4):\n")
	fmt.Printf("%-12s %14s %14s\n", "stream", "measured", "bound")
	for i, sr := range rep.PerStream {
		gamma, err := model.GammaHat(i)
		if err != nil {
			return err
		}
		flag := ""
		if sr.MaxTurnaround > gamma {
			flag = "  VIOLATED"
		}
		fmt.Printf("%-12s %14d %14d%s\n", sr.Name, sr.MaxTurnaround, gamma, flag)
	}
	return nil
}

// runUtilizationSW reproduces the paper's prototype regime: state switched
// from software, charged per state word. With 33-tap FIR delay lines the
// reconfiguration dominates the gateway — the paper's "95% of the time is
// spent to save and restore state".
func runUtilizationSW(perWord uint64) error {
	fmt.Println("A3 — software state switching (the paper's prototype regime)")
	// An equivalent two-stream synthetic workload keeps the run short while
	// exercising the per-word reconfiguration path.
	fir1, err := accel.NewFIR(make([]int32, 33), 1)
	if err != nil {
		return err
	}
	fir2, err := accel.NewFIR(make([]int32, 33), 1)
	if err != nil {
		return err
	}
	sys, err := mpsoc.Build(mpsoc.MultiConfig{
		HopLatency: 1,
		Chains: []mpsoc.ChainSpec{{
			Name:       "sw-state",
			EntryCost:  15,
			ExitCost:   1,
			Mode:       gateway.ReconfigPerWord,
			BusBase:    200,
			BusPerWord: sim.Time(perWord),
			Accels:     []mpsoc.AccelSpec{{Name: "fir", Cost: 1}},
			Streams: []mpsoc.StreamSpec{
				{
					Name: "s0", Block: 64, Decimation: 1, Reconfig: 0,
					InCapacity: 256, OutCapacity: 256,
					Engines:     []accel.Engine{fir1},
					TotalInputs: 8192,
				},
				{
					Name: "s1", Block: 64, Decimation: 1, Reconfig: 0,
					InCapacity: 256, OutCapacity: 256,
					Engines:     []accel.Engine{fir2},
					TotalInputs: 8192,
				},
			},
		}},
	})
	if err != nil {
		return err
	}
	sys.Run(40_000_000)
	rep := sys.Report()
	fmt.Printf("\nstate footprint: 34 words per FIR engine, %d cycles/word over the config bus\n", perWord)
	fmt.Printf("gateway busy time: %.1f%% streaming, %.1f%% save/restore\n",
		100*rep.StreamingShare, 100*rep.ReconfigShare)
	fmt.Println("(compare `accelshare utilization`: with hardware-supported switching at")
	fmt.Println(" Rs = 4100 the same pipeline spends ≈95% of its busy time streaming)")
	return nil
}

func runSpaceCheckAblation(args []string) error {
	fmt.Println("A1 — ablating the output-space check (§V-G; the check missing from [8])")
	fmt.Println("scenario: stream `clogged` has a very slow consumer; stream `victim` shares")
	fmt.Println("the accelerator. Without the space check the clogged block stalls inside the")
	fmt.Println("chain and head-of-line blocks the victim past its γ̂ bound.")
	chain := func(disable bool) mpsoc.ChainSpec {
		return mpsoc.ChainSpec{
			Name:              "ablate",
			EntryCost:         15,
			ExitCost:          1,
			Mode:              gateway.ReconfigFixed,
			DisableSpaceCheck: disable,
			Accels:            []mpsoc.AccelSpec{{Name: "a", Cost: 1}},
			Streams: []mpsoc.StreamSpec{
				{
					Name: "clogged", Block: 16, Decimation: 1, Reconfig: 50,
					InCapacity: 64, OutCapacity: 20,
					Engines:     []accel.Engine{accel.Passthrough{}},
					SinkPeriod:  5000,
					TotalInputs: 512,
				},
				{
					Name: "victim", Block: 16, Decimation: 1, Reconfig: 50,
					InCapacity: 64, OutCapacity: 64,
					Engines:     []accel.Engine{accel.Passthrough{}},
					TotalInputs: 2048,
				},
			},
		}
	}
	run := func(disable bool) (mpsoc.Report, error) {
		sys, err := mpsoc.Build(mpsoc.MultiConfig{HopLatency: 1, Chains: []mpsoc.ChainSpec{chain(disable)}})
		if err != nil {
			return mpsoc.Report{}, err
		}
		sys.Run(2_000_000)
		return sys.Report(), nil
	}
	model := &core.System{
		Chain:   chain(false).Timing(),
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "clogged", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
			{Name: "victim", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
		},
	}
	gamma, err := model.GammaHat(1)
	if err != nil {
		return err
	}
	with, err := run(false)
	if err != nil {
		return err
	}
	without, err := run(true)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-22s %18s %18s\n", "", "with space check", "without")
	fmt.Printf("%-22s %18d %18d\n", "victim worst turnaround", with.PerStream[1].MaxTurnaround, without.PerStream[1].MaxTurnaround)
	fmt.Printf("%-22s %18d %18d\n", "victim blocks served", with.PerStream[1].Blocks, without.PerStream[1].Blocks)
	fmt.Printf("γ̂ bound for the victim: %d cycles\n", gamma)
	if with.PerStream[1].MaxTurnaround <= gamma && without.PerStream[1].MaxTurnaround > gamma {
		fmt.Println("\nresult: with the check the bound holds; without it the victim blows through")
		fmt.Println("the bound — no conservative dataflow model exists for the unchecked design,")
		fmt.Println("which is exactly why the paper adds the check over [8].")
	} else {
		return fmt.Errorf("unexpected ablation outcome")
	}
	return nil
}

func runAll(args []string) error {
	type step struct {
		name string
		args []string
	}
	steps := []step{
		{"blocksizes", nil},
		{"blocksizes", []string{"-granularity", "8"}},
		{"fig6", nil},
		{"fig8", nil},
		{"fig11", nil},
		{"table1", nil},
		{"breakeven", nil},
		{"refinement", nil},
		{"paldemo", nil},
		{"utilization", nil},
		{"utilization", []string{"-sw-state"}},
		{"ablation-spacecheck", nil},
		{"memopt", nil},
		{"sharing-sweep", nil},
		{"ablation-arbiter", nil},
		{"ablation-flowcontrol", nil},
		{"ring-vs-crossbar", nil},
		{"faults", nil},
	}
	for _, st := range steps {
		fmt.Printf("\n================ accelshare %s %v ================\n\n", st.name, st.args)
		for _, c := range commands {
			if c.name == st.name {
				if err := c.run(st.args); err != nil {
					return fmt.Errorf("%s: %w", st.name, err)
				}
			}
		}
	}
	return nil
}
