// Package hgw is a faithful reimplementation of the measurement system
// from Hätönen et al., "An Experimental Study of Home Gateway
// Characteristics" (ACM IMC 2010), with the paper's 34 hardware
// gateways replaced by calibrated software emulations running on a
// deterministic network simulator.
//
// # Experiments
//
// Every experiment in the paper's evaluation (Figures 2-10, Table 2)
// plus the extensions (bindrate, keepalive, holepunch, natmap,
// punchmatrix) is an Experiment registered in the package registry;
// Run executes any subset of them and returns uniform Result
// envelopes:
//
//	results, err := hgw.Run(ctx, []string{"udp1", "tcp1"},
//		hgw.WithTags("je", "owrt", "ls1"),
//		hgw.WithIterations(3),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Print(results.Render())
//
// Run executes experiments concurrently in sealed domains, each a
// freshly built Figure 1 testbed (bring-up of all 34 devices costs
// milliseconds of wall time) that the Runner builds, bounds, faults,
// observes and shuts down the same way: every experiment except the
// Standalone ones gets one of its own, so it observes exactly what a
// run of it alone observes, and the Standalone ones get one per
// device, mode or pair. Registry, ExperimentIDs and Lookup expose the
// catalog, so front-ends render table-driven instead of
// hand-maintaining experiment lists; new experiments plug in once via
// Register.
//
// # Synthetic fleets
//
// The Table 1 inventory caps a run at the paper's 34 physical devices;
// fleet mode scales past it. WithFleet(n) replaces the inventory with
// n synthetic profiles sampled from the paper's published population
// distributions (DESIGN.md §7), and WithShards(k) partitions them
// across k independent sub-testbeds that build and probe concurrently:
//
//	results, err := hgw.Run(ctx, nil, // nil = hgw.FleetIDs()
//		hgw.WithFleet(1000),
//		hgw.WithShards(8),
//		hgw.WithSeed(1),
//	)
//
// Fleet experiments are the registry entries with a population Sweep
// (udp1, udp2, udp3, tcp1, tcp4, bindrate). Shards stream through a
// bounded pipeline of WithMaxProcs workers (default: NumCPU): each
// shard is built, swept by every experiment, reduced to population
// points and released, so even WithFleet(1_000_000) runs in memory
// proportional to maxProcs, not fleet size, and WithDeviceResults
// streams per-device completions in a deterministic shard-major order
// while shards run. Fleet output is a pure function of (ids, fleet,
// shards, seed, options) — each shard is an independent virtual time
// domain whose seed and device slice depend only on the fleet seed and
// shard index, and shard results merge in shard order — so equal
// settings render byte-identically on any machine at any core count
// (DESIGN.md §12).
//
// # Errors and cancellation
//
// When experiments fail, Run returns a *RunError carrying one
// *ExperimentError per failed experiment — every failure, not just
// the first one encountered — alongside the Results
// that did complete; RunError.IDs lists exactly which experiments need
// re-running, and errors.Is/As see each underlying cause through the
// usual unwrapping. Cancelling the context interrupts in-flight
// simulations between events, so even a mid-fleet cancellation returns
// promptly with the context error; fleet shards are ephemeral to their
// Run, so a Runner stays reusable after a cancelled fleet run — the
// half-run simulators are discarded with the run, never reused.
//
// # Reproducibility
//
// Output is a pure function of the request: the id list, tags, seed,
// probe options, fault plan and the fleet shard count are explicit
// parts of the contract, and nothing machine-dependent is, which is why
// equal-seed runs are comparable across CI and laptops alike. The one
// concurrency knob, WithMaxProcs, moves only wall clock: every
// testbed a run builds — a shared-testbed experiment's, each of a
// Standalone experiment's own, a fleet shard — is an isolated time
// domain whose results are assembled in request (or shard) order, so
// maxProcs may safely default to NumCPU. It bounds the testbeds alive
// at once across the whole run, not per experiment. CacheKey condenses the contract into a
// content address: a stable hash of everything output is a function
// of, which is what lets the hgwd daemon (internal/service, DESIGN.md
// §8) answer repeated requests from cache byte-identically.
//
// Run (with Results.Table2) is the only way to execute an experiment;
// the earlier per-experiment entry points (RunUDP1, RunICMP, ...) have
// been removed.
//
// Lower-level building blocks (the simulator, packet codecs, transport
// stacks, the NAT engine, the device profiles and the probers) live in
// the internal packages; this facade is the supported API surface.
// DESIGN.md documents the simulator model, the testbed topology and the
// profile-calibration methodology; README.md has the quickstart.
package hgw
