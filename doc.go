// Package accelshare is a full reimplementation of
//
//	B.H.J. Dekens, M.J.G. Bekooij, G.J.M. Smit,
//	"Real-Time Multiprocessor Architecture for Sharing Stream Processing
//	Accelerators", IEEE IPDPSW 2015.
//
// The library lives in internal/ packages layered bottom-up:
//
//	dataflow  SDF/CSDF graphs, repetition vectors, self-timed execution
//	          (HSDF expansion and max cycle ratio as test oracles)
//	buffer    exact minimum buffer-capacity computation
//	ilp       exact rational simplex + branch and bound (test oracle,
//	          test-only)
//	core      the paper's models: Fig. 5 CSDF, Fig. 7 SDF, Eqs. 2-5,
//	          Algorithm 1 block sizes, refinement checking
//	sim       deterministic discrete-event kernel (cycle clock)
//	ring      dual-ring interconnect with credit ring
//	cfifo     C-FIFO software FIFOs over posted writes
//	accel     accelerator tiles, engines, credit links, config bus
//	          (accel/enginetest, test-only: the engine snapshot-contract
//	          check and the CIC decimator engine)
//	gateway   entry-/exit-gateway pair (RR arbitration, space check,
//	          watchdog retry, checkpointed resume, value-exact staging)
//	mpsoc     full-platform assembly, measurement, multi-chain failover
//	fault     deterministic fault injection and the wedged-chain doctor
//	admission online stream add/remove/readmit (incremental Algorithm 1)
//	conformance  bound-conformance harness (τ̂/γ̂/μs + replay-cost checks)
//	dsp       CORDIC, FIR design, FM mod/demod
//	pal       the PAL stereo audio decoder demonstrator
//	cost      Virtex-6 cost model (Table I / Fig. 11)
//	trace     Gantt rendering (Fig. 6)
//	task      processor-tile budget scheduler
//	tdm       TDM crossbar baseline (ring ablation)
//	wav       WAV output for the audio demonstrators
//
// Extending the paper, the repo grows a recovery ladder over the shared
// chain — detection (drain watchdog from Eq. 2's flush allowance), block
// retry, checkpointed mid-block resume with value-exact replay (adjusted
// bound τ̂s(K), internal/gateway), stream quarantine, online readmission
// (internal/admission) and whole-chain failover to a standby gateway pair
// (internal/mpsoc) — each rung's cost bounded by the same temporal model
// and checked by internal/conformance.
//
// Production code is what runs: reach_test.go builds every binary and fails
// on any non-test function that none of them links, and on any non-test
// file that imports a test-only package (ilp, accel/enginetest,
// analysis/analysistest). Its field census fails on an exported field that
// production reads but only tests set, and on one that nothing reads.
//
// The benchmarks in this directory regenerate every table and figure of the
// paper's evaluation; `go run ./cmd/accelshare all` prints them. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results.
package accelshare
