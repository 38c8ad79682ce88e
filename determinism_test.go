package hgw_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hgw"
)

// fleetTrace runs a fleet job and captures both its render and the
// WithDeviceResults event stream, serialized one line per event. The
// stream is part of the determinism contract — shard order, experiment
// order within a shard, device order within an experiment — so tests
// compare it byte for byte, exactly like the render.
func fleetTrace(t *testing.T, ids []string, opts ...hgw.Option) (render, trace string) {
	t.Helper()
	var mu sync.Mutex
	var sb strings.Builder
	all := make([]hgw.Option, 0, len(opts)+1)
	all = append(all, opts...)
	all = append(all, hgw.WithDeviceResults(func(ev hgw.DeviceEvent) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&sb, "%s/%d/%s/%v\n", ev.ExperimentID, ev.Shard, ev.Result.Tag, ev.Result.Samples)
	}))
	results, err := hgw.Run(context.Background(), ids, all...)
	if err != nil {
		t.Fatal(err)
	}
	return results.Render(), sb.String()
}

// TestFleetDeterminismMatrix is the multicore determinism acceptance
// test: the same fleet job — the PR 5 fleet256 golden configuration —
// run at maxProcs 1, 2, 4 and NumCPU must produce byte-identical
// renders AND byte-identical streamed device-row sequences. The
// maxProcs=1 baseline is additionally pinned to the committed golden,
// so the matrix re-asserts the pre-refactor behavior under multicore
// execution rather than merely agreeing with itself.
//
// The matrix runs with telemetry ON (WithRunReport): the render still
// matching the pre-telemetry golden proves instrumentation never feeds
// back into the simulation, and the canonical report — wall-clock and
// process fields excluded — must itself be byte-identical at every
// worker count.
func TestFleetDeterminismMatrix(t *testing.T) {
	ids := []string{"udp1", "udp3"}
	var mu sync.Mutex
	var lastCanon string
	opts := func(procs int) []hgw.Option {
		return []hgw.Option{
			hgw.WithSeed(11), hgw.WithFleet(256), hgw.WithShards(8),
			hgw.WithIterations(1), hgw.WithMaxProcs(procs),
			hgw.WithRunReport(func(rep *hgw.RunReport) {
				mu.Lock()
				defer mu.Unlock()
				lastCanon = rep.Canonical()
			}),
		}
	}
	takeCanon := func() string {
		mu.Lock()
		defer mu.Unlock()
		c := lastCanon
		lastCanon = ""
		return c
	}
	baseRender, baseTrace := fleetTrace(t, ids, opts(1)...)
	baseCanon := takeCanon()

	golden, err := os.ReadFile(filepath.Join("testdata", "behavior", "fleet256.golden"))
	if err != nil {
		t.Fatalf("missing fleet256 golden: %v", err)
	}
	if baseRender != string(golden) {
		t.Errorf("maxProcs=1 render (telemetry on) differs from the committed golden\n--- got ---\n%s\n--- want ---\n%s",
			baseRender, golden)
	}
	if baseTrace == "" {
		t.Fatal("no device events streamed")
	}
	if baseCanon == "" {
		t.Fatal("no run report delivered")
	}

	for _, procs := range []int{2, 4, runtime.NumCPU()} {
		procs := procs
		t.Run(fmt.Sprintf("maxprocs=%d", procs), func(t *testing.T) {
			render, trace := fleetTrace(t, ids, opts(procs)...)
			canon := takeCanon()
			if render != baseRender {
				t.Errorf("render at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s",
					procs, render, baseRender)
			}
			if trace != baseTrace {
				t.Errorf("device-event stream at maxProcs=%d differs from maxProcs=1", procs)
			}
			if canon != baseCanon {
				t.Errorf("canonical telemetry report at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s",
					procs, canon, baseCanon)
			}
		})
	}
}

// TestInventoryDeterminismMatrix is the inventory counterpart: the
// golden inventory configuration, telemetry on, must render — and
// report, canonically — byte-identically at maxProcs 1, 2 and NumCPU,
// and match the committed golden. Every experiment runs in a sealed
// domain, so each one's result must also equal a run of that id alone.
func TestInventoryDeterminismMatrix(t *testing.T) {
	g := goldenRuns[0]
	if g.name != "inventory" {
		t.Fatalf("goldenRuns[0] is %q, want the inventory configuration", g.name)
	}
	run := func(procs int) (hgw.Results, string) {
		var canon string
		opts := append(append([]hgw.Option{}, g.opts...), hgw.WithMaxProcs(procs),
			hgw.WithRunReport(func(rep *hgw.RunReport) { canon = rep.Canonical() }))
		results, err := hgw.Run(context.Background(), g.ids, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if canon == "" {
			t.Fatal("no run report delivered")
		}
		return results, canon
	}
	base, baseCanon := run(1)
	golden, err := os.ReadFile(filepath.Join("testdata", "behavior", "inventory.golden"))
	if err != nil {
		t.Fatalf("missing inventory golden: %v", err)
	}
	if base.Render() != string(golden) {
		t.Errorf("maxProcs=1 render (telemetry on) differs from the committed golden\n--- got ---\n%s\n--- want ---\n%s",
			base.Render(), golden)
	}
	for _, procs := range []int{2, runtime.NumCPU()} {
		results, canon := run(procs)
		if got := results.Render(); got != base.Render() {
			t.Errorf("render at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s",
				procs, got, base.Render())
		}
		if canon != baseCanon {
			t.Errorf("canonical telemetry report at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s",
				procs, canon, baseCanon)
		}
	}
	for i, id := range g.ids {
		alone, err := hgw.Run(context.Background(), []string{id}, g.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := base[i].Render(), alone[0].Render(); got != want {
			t.Errorf("%s in the inventory run differs from %s run alone\n--- got ---\n%s\n--- want ---\n%s",
				id, id, got, want)
		}
	}
}

// TestFaultedFleetDeterminismMatrix extends the determinism contract
// to chaos runs: a fleet job with fault injection enabled — link flaps,
// loss/corrupt windows, blackholes and gateway reboots all in play —
// must render byte-identically, with a byte-identical device-event
// stream, at maxProcs 1, 2, 4 and NumCPU. The faulted baseline must
// also differ from the unfaulted run of the same seed: a plan at rate
// 1 per class over 96 devices that changed nothing would mean the
// injector is dead code.
func TestFaultedFleetDeterminismMatrix(t *testing.T) {
	ids := []string{"udp3"}
	opts := func(procs int) []hgw.Option {
		return []hgw.Option{
			hgw.WithSeed(11), hgw.WithFleet(96), hgw.WithShards(4),
			hgw.WithIterations(1), hgw.WithMaxProcs(procs),
			hgw.WithFaults(hgw.FaultSpec{Rate: 1}), hgw.WithRetries(2),
		}
	}
	baseRender, baseTrace := fleetTrace(t, ids, opts(1)...)
	if baseTrace == "" {
		t.Fatal("no device events streamed")
	}
	cleanRender, _ := fleetTrace(t, ids,
		hgw.WithSeed(11), hgw.WithFleet(96), hgw.WithShards(4),
		hgw.WithIterations(1), hgw.WithMaxProcs(1))
	if cleanRender == baseRender {
		t.Error("faulted render identical to the unfaulted run; faults never bit")
	}
	for _, procs := range []int{2, 4, runtime.NumCPU()} {
		procs := procs
		t.Run(fmt.Sprintf("maxprocs=%d", procs), func(t *testing.T) {
			render, trace := fleetTrace(t, ids, opts(procs)...)
			if render != baseRender {
				t.Errorf("faulted render at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s",
					procs, render, baseRender)
			}
			if trace != baseTrace {
				t.Errorf("faulted device-event stream at maxProcs=%d differs from maxProcs=1", procs)
			}
		})
	}
}

// TestFaultedStandaloneDeterminism extends the chaos contract to the
// Standalone experiments: every testbed they ask for is a domain of
// the Runner's, drawing its own fault plan from (seed, experiment
// position, testbed position), so a faulted run of all four renders
// byte-identically at maxProcs 1, 2 and NumCPU, and its fig2 differs
// from the clean run's. A plan whose faults strike inside tcp2's bulk
// transfers (a one-second horizon) fails tcp2 with the same error at
// every worker count instead of hanging on a dead connection.
func TestFaultedStandaloneDeterminism(t *testing.T) {
	run := func(ids []string, procs int, extra ...hgw.Option) (hgw.Results, string) {
		t.Helper()
		opts := append([]hgw.Option{
			hgw.WithTags("je", "owrt"), hgw.WithSeed(1), hgw.WithIterations(1),
			hgw.WithTransferBytes(1 << 20), hgw.WithMaxProcs(procs),
		}, extra...)
		type out struct {
			res hgw.Results
			err error
		}
		done := make(chan out, 1)
		go func() {
			res, err := hgw.Run(context.Background(), ids, opts...)
			done <- out{res, err}
		}()
		select {
		case o := <-done:
			text := o.res.Render()
			if o.err != nil {
				text += "error: " + o.err.Error() + "\n"
			}
			return o.res, text
		case <-time.After(2 * time.Minute):
			t.Fatalf("%v at maxProcs=%d did not return within 2 minutes", ids, procs)
			return nil, ""
		}
	}
	ids := []string{"fig2", "tcp2", "holepunch", "punchmatrix"}
	faulted := []hgw.Option{hgw.WithFaults(hgw.FaultSpec{Rate: 1}), hgw.WithRetries(2)}
	baseRes, base := run(ids, 1, faulted...)
	if len(baseRes) != len(ids) {
		t.Fatalf("faulted run returned %d results, want %d:\n%s", len(baseRes), len(ids), base)
	}
	cleanRes, _ := run(ids, 1)
	if baseRes.Get("fig2").Render() == cleanRes.Get("fig2").Render() {
		t.Error("faulted fig2 renders like the clean run; faults never reached its testbeds")
	}
	for _, procs := range []int{2, runtime.NumCPU()} {
		if _, got := run(ids, procs, faulted...); got != base {
			t.Errorf("faulted render at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s",
				procs, got, base)
		}
	}

	inTransfer := hgw.WithFaults(hgw.FaultSpec{Rate: 1, Horizon: time.Second})
	_, broken := run([]string{"tcp2"}, 1, inTransfer)
	if !strings.Contains(broken, "error: experiment tcp2: probe: ") {
		t.Fatalf("tcp2 with faults inside its transfers did not fail:\n%s", broken)
	}
	for _, procs := range []int{2, runtime.NumCPU()} {
		if _, got := run([]string{"tcp2"}, procs, inTransfer); got != broken {
			t.Errorf("failed tcp2 at maxProcs=%d reads %q, at maxProcs=1 %q", procs, got, broken)
		}
	}
}

// TestShardStreamIndependence pins the seed-split scheme: a shard's rng
// stream, device slice and VLAN range are pure functions of (seed,
// shard index), so adding shards to the fleet — or however completion
// happens to be ordered across workers — never perturbs an existing
// shard's draws. A 128-device/8-shard fleet and a 256-device/16-shard
// fleet at the same seed give shards 0..7 identical 16-device slices
// (the synthetic population is prefix-stable), identical simulator
// seeds and identical VLAN bases, so the larger fleet's device-event
// stream must begin with the smaller fleet's entire stream, byte for
// byte.
func TestShardStreamIndependence(t *testing.T) {
	run := func(fleet, shards int) string {
		_, trace := fleetTrace(t, []string{"udp1"},
			hgw.WithSeed(5), hgw.WithFleet(fleet), hgw.WithShards(shards),
			hgw.WithIterations(1))
		return trace
	}
	small := run(128, 8)
	big := run(256, 16)
	if !strings.HasPrefix(big, small) {
		t.Fatalf("doubling the fleet perturbed the original shards' draws:\n--- 128/8 ---\n%s\n--- 256/16 (prefix) ---\n%s",
			small, big[:min(len(big), len(small))])
	}
	if len(big) <= len(small) {
		t.Fatal("256-device trace is not longer than the 128-device trace")
	}
}

// TestFleetStress is the CI -race workload for the multicore shard
// path: a 10k-device fleet across 32 shards at NumCPU workers, run to
// completion and then again with a mid-run cancellation. It is gated
// behind HGW_STRESS so tier-1 test runs stay fast.
func TestFleetStress(t *testing.T) {
	if os.Getenv("HGW_STRESS") == "" {
		t.Skip("set HGW_STRESS=1 to run the multicore fleet stress test")
	}
	var mu sync.Mutex
	devices := 0
	results, err := hgw.Run(context.Background(), []string{"udp1"},
		hgw.WithSeed(1), hgw.WithFleet(10_000), hgw.WithShards(32),
		hgw.WithMaxProcs(runtime.NumCPU()), hgw.WithIterations(1),
		hgw.WithDeviceResults(func(ev hgw.DeviceEvent) {
			mu.Lock()
			devices++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if devices != 10_000 {
		t.Errorf("streamed %d device events, want 10000", devices)
	}
	r := results.Get("udp1")
	if r == nil || r.Figure == nil || len(r.Figure.Points) != 10_000 {
		t.Fatalf("udp1 figure incomplete: %+v", r)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := hgw.Run(ctx, []string{"udp1"},
			hgw.WithSeed(1), hgw.WithFleet(10_000), hgw.WithShards(32),
			hgw.WithMaxProcs(runtime.NumCPU()), hgw.WithIterations(1))
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled stress run: err = %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled stress run did not return within 60s")
	}
}

// TestFleetMillion is the scale ceiling acceptance test:
// WithFleet(1_000_000) across 256 shards completes with streamed
// device rows — the run never materializes a million-row slice; memory
// follows the maxProcs window, not the fleet size. Gated behind
// HGW_FLEET_MILLION: the run takes many core-minutes.
func TestFleetMillion(t *testing.T) {
	if os.Getenv("HGW_FLEET_MILLION") == "" {
		t.Skip("set HGW_FLEET_MILLION=1 to run the million-device fleet")
	}
	var mu sync.Mutex
	devices := 0
	results, err := hgw.Run(context.Background(), []string{"udp1"},
		hgw.WithSeed(1), hgw.WithFleet(1_000_000), hgw.WithShards(256),
		hgw.WithMaxProcs(runtime.NumCPU()), hgw.WithIterations(1),
		hgw.WithDeviceResults(func(ev hgw.DeviceEvent) {
			mu.Lock()
			devices++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if devices != 1_000_000 {
		t.Errorf("streamed %d device events, want 1000000", devices)
	}
	r := results.Get("udp1")
	if r == nil || r.Figure == nil || len(r.Figure.Points) != 1_000_000 {
		t.Fatal("udp1 figure incomplete")
	}
	if r.Payload != nil {
		t.Errorf("fleet result materialized a %T payload; rows must stream", r.Payload)
	}
}

// TestStandalonePoolDeterminism covers the Standalone experiments,
// whose testbeds queue on the run's slot pool beside a shared-testbed
// domain (bindrate): the render and the canonical run report must be
// byte-identical at maxProcs 1, 2 and NumCPU, and equal the committed
// golden, which was recorded while each Standalone experiment still
// built its testbeds one after another (tcp2 on a private pool). Its
// sim_compactions and sim_slab_slots lines were re-recorded once, when
// NAT timer refreshes began moving pending events in place: they
// describe the event queue's representation, not the run's work. Its
// sim_events_fired and sim_events_scheduled lines were re-recorded
// once, when a link hop became one event: both fell by the frames that
// finished serializing.
func TestStandalonePoolDeterminism(t *testing.T) {
	ids := []string{"bindrate", "tcp2", "fig2", "holepunch", "punchmatrix"}
	run := func(procs int) string {
		var canon string
		results, err := hgw.Run(context.Background(), ids,
			hgw.WithTags("al", "ap"), hgw.WithSeed(1), hgw.WithIterations(1),
			hgw.WithTransferBytes(1<<20), hgw.WithMaxProcs(procs),
			hgw.WithRunReport(func(rep *hgw.RunReport) { canon = rep.Canonical() }))
		if err != nil {
			t.Fatal(err)
		}
		return results.Render() + "\n--- canonical run report ---\n" + canon + "\n"
	}
	base := run(1)
	path := filepath.Join("testdata", "behavior", "standalone.golden")
	if os.Getenv(updateEnv) != "" {
		if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing standalone golden: %v", err)
	}
	if base != string(golden) {
		t.Errorf("maxProcs=1 output differs from the committed golden\n--- got ---\n%s\n--- want ---\n%s", base, golden)
	}
	for _, procs := range []int{2, runtime.NumCPU()} {
		if got := run(procs); got != base {
			t.Errorf("output at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s", procs, got, base)
		}
	}
}
