package main

// Analysis-layer experiments: everything derivable from the dataflow models
// and Algorithm 1 without running the cycle-level simulator.

import (
	"flag"
	"fmt"
	"math/big"
	"os"

	"accelshare/internal/buffer"
	"accelshare/internal/core"
	"accelshare/internal/cost"
	"accelshare/internal/dataflow"
	"accelshare/internal/pal"
	"accelshare/internal/trace"
)

func init() {
	register("fig6", "execution schedule of one block (Fig. 6) and the τ̂s bound (Eq. 2)", runFig6)
	register("fig8", "non-monotone minimum buffer capacities vs block size (Fig. 8)", runFig8)
	register("fig11", "per-component hardware costs (Fig. 11)", runFig11)
	register("table1", "shared vs non-shared hardware cost savings (Table I)", runTable1)
	register("blocksizes", "minimum block sizes via Algorithm 1 (paper §VI-A: 10136 / 1267)", runBlockSizes)
	register("breakeven", "stream count at which sharing pays for the gateway pair", runBreakEven)
	register("refinement", "the-earlier-the-better check: CSDF refines the single-actor SDF (A2)", runRefinement)
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ContinueOnError)
	eta := fs.Int64("eta", 16, "block size ηs to schedule")
	width := fs.Int("width", 100, "gantt width in columns")
	svgPath := fs.String("svg", "", "also write the schedule as an SVG file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eta < 1 {
		return fmt.Errorf("-eta must be positive, got %d", *eta)
	}
	s := &core.System{
		Chain:   core.Chain{Name: "demo", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1, NICapacity: 2},
		ClockHz: 100_000_000,
		Streams: []core.Stream{{Name: "s", Rate: big.NewRat(1, 1), Reconfig: 4100, Block: *eta}},
	}
	sched, err := s.ScheduleBlock(0)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 6 — execution schedule of one block of η = %d samples\n", *eta)
	fmt.Printf("(ε = 15, ρA = 1, δ = 1, Rs = 4100 cycles; the long leading vG0 phase is Rs + ε)\n\n")
	ga := trace.FromFirings(sched.Model.Graph, sched.Trace)
	fmt.Print(ga.Render(*width))
	fmt.Println()
	fmt.Print(ga.Summary())
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(ga.SVG(1000)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	fmt.Printf("\nmeasured block time τs  = %7d cycles\n", sched.Tau)
	fmt.Printf("Eq. 2 bound      τ̂s  = %7d cycles (Rs + (η+2)·max(ε,ρA,δ))\n", sched.TauHat)
	if sched.Tau > sched.TauHat {
		return fmt.Errorf("BOUND VIOLATED: τ > τ̂")
	}
	fmt.Printf("bound holds with %d cycles slack (%.2f%%)\n",
		sched.TauHat-sched.Tau, 100*float64(sched.TauHat-sched.Tau)/float64(sched.TauHat))

	// Validate the bound across a sweep of block sizes (E2).
	fmt.Printf("\nτ vs τ̂ sweep:\n%8s %10s %10s %8s\n", "η", "τ", "τ̂", "slack")
	for _, e := range []int64{1, 2, 4, 16, 64, 256, 1024} {
		s.Streams[0].Block = e
		sc, err := s.ScheduleBlock(0)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %10d %10d %8d\n", e, sc.Tau, sc.TauHat, sc.TauHat-sc.Tau)
		if sc.Tau > sc.TauHat {
			return fmt.Errorf("bound violated at η=%d", e)
		}
	}
	return nil
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ContinueOnError)
	maxEta := fs.Int64("max", 8, "largest block size to size buffers for")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxEta < 5 { // the closing claim compares α(5) with α(2)
		return fmt.Errorf("-max must be at least 5, got %d", *maxEta)
	}
	fmt.Println("Fig. 8 — minimum buffer capacities are non-monotone in the block size")
	fmt.Println("model: producer emits 5 tokens/firing, consumer takes ηs/firing (Fig. 8a)")
	fmt.Printf("\n%8s %12s %18s %18s\n", "ηs", "min αs", "paper Fig. 8b", "p+c-gcd(p,c)")
	paper := map[int64]string{1: "5", 2: "6", 3: "7", 4: "8", 5: "5"}
	for eta := int64(1); eta <= *maxEta; eta++ {
		g := dataflow.NewGraph("fig8")
		a := g.AddActor("vA", 5)
		b := g.AddActor("vB", 0)
		fwd, back := g.AddBuffer("ab", a, b, dataflow.Const(5), dataflow.Const(eta), 1)
		sz := &buffer.Sizer{G: g, Channels: []buffer.Channel{{Fwd: fwd, Back: back}}, Monitor: a}
		maxTh, err := sz.MaxThroughput()
		if err != nil {
			return err
		}
		caps, err := sz.MinCapacitiesForThroughput(maxTh)
		if err != nil {
			return err
		}
		pp := paper[eta]
		if pp == "" {
			pp = "-"
		}
		fmt.Printf("%8d %12d %18s %18d\n", eta, caps[0], pp, buffer.ClassicalMinCapacity(5, eta))
	}
	fmt.Println("\nnon-monotonicity: α(2) > α(5) while α(1) < α(2) — exactly the paper's claim;")
	fmt.Println("minimising block sizes does not minimise buffer memory.")
	return nil
}

func runFig11(args []string) error {
	fmt.Println("Fig. 11 — hardware costs of components in a Virtex 6 FPGA")
	fmt.Println("(per-component numbers are the paper's synthesis results; derived rows computed)")
	fmt.Println()
	fmt.Print(cost.FormatFig11())
	return nil
}

func runTable1(args []string) error {
	fmt.Println("Table I — hardware costs and savings in a Virtex 6 FPGA")
	fmt.Println()
	fmt.Print(cost.FormatTableI())
	fmt.Println("\npaper reports: savings 20890 slices (63.5%) and 33712 LUTs (66.3%)")
	return nil
}

func runBlockSizes(args []string) error {
	fs := flag.NewFlagSet("blocksizes", flag.ContinueOnError)
	clock := fs.Int64("clock", 100_000_000, "platform clock in Hz")
	granularity := fs.Int64("granularity", 0, "round blocks up to this multiple (0 = exact minimum; 8 = implementable with ÷8 chain)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clock <= 0 {
		return fmt.Errorf("-clock must be positive, got %d", *clock)
	}
	if *granularity < 0 {
		return fmt.Errorf("-granularity must not be negative, got %d", *granularity)
	}
	p := pal.DefaultParams()
	p.ClockHz = float64(*clock)
	s := pal.AnalysisModel(p)
	fmt.Printf("§VI-A — minimum block sizes for the PAL decoder (Algorithm 1)\n")
	fmt.Printf("streams: 2 × %.4g S/s (stage 1) and 2 × %.4g S/s (stage 2) share one\n", 44100*64.0, 44100*8.0)
	fmt.Printf("CORDIC + FIR chain; ε = 15, ρA = δ = 1, Rs = 4100 cycles, clock %.4g Hz\n", float64(*clock))
	u, _ := s.Utilization().Float64()
	fmt.Printf("gateway utilisation demand Σ μs·c0 = %.4f (must stay < 1)\n\n", u)

	var gr []int64
	if *granularity > 0 {
		gr = make([]int64, len(s.Streams))
		for i := range gr {
			gr[i] = *granularity
		}
	}
	res, err := s.ComputeBlockSizesRounded(gr)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %14s %14s\n", "stream", "ηs (ours)", "paper", "guaranteed S/s")
	paper := []int64{10136, 10136, 1267, 1267}
	for i := range s.Streams {
		rate, err := s.GuaranteedRate(i)
		if err != nil {
			return err
		}
		rf, _ := rate.Float64()
		fmt.Printf("%-12s %12d %14d %14.1f\n", s.Streams[i].Name, res.Blocks[i], paper[i], rf)
	}
	fmt.Printf("\nstage ratio ours %d/%d = %.4f (paper 10136/1267 = 8 exactly; the ÷8 chain)\n",
		res.Blocks[0], res.Blocks[2], float64(res.Blocks[0])/float64(res.Blocks[2]))
	if err := s.VerifyThroughput(); err != nil {
		return fmt.Errorf("throughput verification failed: %w", err)
	}
	fmt.Println("Eq. 5 verified: every stream's guaranteed rate meets its requirement")
	if s.FeasibleBlocks(paper) {
		fmt.Println("the paper's published sizes are feasible under our model as well")
	}
	return nil
}

func runBreakEven(args []string) error {
	comps := cost.PaperComponents()
	g := cost.GatewayPair()
	fmt.Println("Break-even analysis: streams needed before sharing beats duplication")
	fmt.Printf("%-16s %10s\n", "accelerator", "streams")
	for _, name := range []string{cost.FIRDownsample, cost.CORDIC} {
		fmt.Printf("%-16s %10d\n", name, cost.BreakEven(comps[name], g))
	}
	fmt.Println("\nSavings sweep (FIR+D and CORDIC shared together, slices):")
	fmt.Printf("%8s %12s %12s %10s\n", "streams", "non-shared", "shared", "savings")
	for i, cmp := range cost.SavingsSweep([]cost.SharingCase{
		{Name: cost.FIRDownsample, Unit: comps[cost.FIRDownsample]},
		{Name: cost.CORDIC, Unit: comps[cost.CORDIC]},
	}, g, 8) {
		fmt.Printf("%8d %12d %12d %9.1f%%\n", i+1, cmp.NonShared.Slices, cmp.Shared.Slices, cmp.SlicesPct)
	}
	return nil
}

func runRefinement(args []string) error {
	fs := flag.NewFlagSet("refinement", flag.ContinueOnError)
	eta := fs.Int64("eta", 8, "block size")
	tokens := fs.Int64("tokens", 64, "output tokens to compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eta < 1 {
		return fmt.Errorf("-eta must be positive, got %d", *eta)
	}
	if *tokens < 1 {
		return fmt.Errorf("-tokens must be positive, got %d", *tokens)
	}
	s := &core.System{
		Chain:   core.Chain{Name: "demo", AccelCosts: []uint64{3}, EntryCost: 2, ExitCost: 1, NICapacity: 2},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "s", Rate: big.NewRat(1000, 1), Reconfig: 50, Block: *eta},
			{Name: "other", Rate: big.NewRat(1000, 1), Reconfig: 50, Block: 2 * *eta},
		},
	}
	p := core.ModelParams{
		ProducerCost: 1, ConsumerCost: 2,
		InputCapacity: 2 * *eta, OutputCapacity: 2 * *eta,
		IncludeInterference: true,
	}
	rep, err := s.CheckRefinement(0, p, *tokens)
	if err != nil {
		return err
	}
	fmt.Printf("A2 — the-earlier-the-better refinement: detailed CSDF (Fig. 5) vs single-actor SDF (Fig. 7)\n")
	fmt.Printf("η = %d, %d output tokens compared\n\n", *eta, *tokens)
	if !rep.Refines {
		return fmt.Errorf("REFINEMENT VIOLATED at token %d: CSDF %d > SDF %d",
			rep.FirstViolation, rep.RefinedTimes[rep.FirstViolation], rep.AbstractTimes[rep.FirstViolation])
	}
	var worst, sum int64
	for i := range rep.RefinedTimes {
		d := int64(rep.AbstractTimes[i]) - int64(rep.RefinedTimes[i])
		sum += d
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("CSDF ⊑ SDF holds on all %d tokens.\n", len(rep.RefinedTimes))
	fmt.Printf("SDF pessimism: mean %.1f cycles, max %d cycles per token\n",
		float64(sum)/float64(len(rep.RefinedTimes)), worst)
	fmt.Println("(the only loss: the SDF actor releases its whole block atomically at firing end — §V-C)")
	return nil
}
