package hgw_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hgw"
)

// fleetOpts keeps fleet tests quick: one iteration per device.
var fleetOpts = hgw.Options{Iterations: 1}

func TestFleetRun(t *testing.T) {
	var mu sync.Mutex
	devices := map[string]int{}
	results, err := hgw.Run(context.Background(), []string{"udp1"},
		hgw.WithSeed(3), hgw.WithFleet(12), hgw.WithShards(3),
		hgw.WithOptions(fleetOpts),
		hgw.WithDeviceResults(func(ev hgw.DeviceEvent) {
			mu.Lock()
			defer mu.Unlock()
			if ev.ExperimentID != "udp1" {
				t.Errorf("device event for %q", ev.ExperimentID)
			}
			devices[ev.Result.Tag]++
		}))
	if err != nil {
		t.Fatal(err)
	}
	r := results.Get("udp1")
	if r == nil || r.Figure == nil {
		t.Fatal("no udp1 figure")
	}
	if len(r.Figure.Points) != 12 {
		t.Fatalf("figure has %d points, want 12", len(r.Figure.Points))
	}
	if len(devices) != 12 {
		t.Fatalf("device callbacks for %d devices, want 12", len(devices))
	}
	//hgwlint:allow detlint per-entry assertions commute; any visit order fails the same way
	for tag, n := range devices {
		if n != 1 {
			t.Fatalf("device %s reported %d times", tag, n)
		}
	}
}

// TestFleetDeterministic checks the fleet reproducibility contract:
// equal (ids, fleet, shards, seed, options) render byte-identically.
func TestFleetDeterministic(t *testing.T) {
	render := func() string {
		results, err := hgw.Run(context.Background(), []string{"udp1"},
			hgw.WithSeed(9), hgw.WithFleet(9), hgw.WithShards(3),
			hgw.WithOptions(fleetOpts))
		if err != nil {
			t.Fatal(err)
		}
		return results.Render()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("equal-seed fleet runs render differently:\n%s\n--- vs ---\n%s", a, b)
	}
}

func TestFleetDefaultIDs(t *testing.T) {
	results, err := hgw.Run(context.Background(), nil,
		hgw.WithSeed(2), hgw.WithFleet(6), hgw.WithShards(2),
		hgw.WithOptions(fleetOpts))
	if err != nil {
		t.Fatal(err)
	}
	want := hgw.FleetIDs()
	if len(results) != len(want) {
		t.Fatalf("fleet default ran %d experiments, want %d", len(results), len(want))
	}
	for i, id := range want {
		if results[i].ID != id {
			t.Fatalf("result[%d] = %s, want %s", i, results[i].ID, id)
		}
	}
}

func TestFleetRejectsNonSweepExperiments(t *testing.T) {
	_, err := hgw.Run(context.Background(), []string{"icmp"},
		hgw.WithFleet(4), hgw.WithOptions(fleetOpts))
	if !errors.Is(err, hgw.ErrNotFleetCapable) {
		t.Fatalf("err = %v, want ErrNotFleetCapable", err)
	}
}

// TestFleetTestbedReuse checks testbed sharing within one fleet Run:
// every experiment sweeps the same shard testbeds, so a
// multi-experiment fleet run builds one testbed per shard, not one per
// (experiment, shard). Shards are ephemeral to their Run — a second
// Run rebuilds them — which is what keeps million-device fleets in
// bounded memory and a Runner reusable after cancellation.
func TestFleetTestbedReuse(t *testing.T) {
	r := hgw.NewRunner(hgw.WithSeed(4), hgw.WithFleet(6), hgw.WithShards(2),
		hgw.WithOptions(fleetOpts))
	if _, err := r.Run(context.Background(), []string{"udp1", "udp2"}); err != nil {
		t.Fatal(err)
	}
	if got := r.TestbedsBuilt(); got != 2 {
		t.Fatalf("testbeds built = %d, want 2 (one per shard, shared by both experiments)", got)
	}
	if _, err := r.Run(context.Background(), []string{"udp3"}); err != nil {
		t.Fatal(err)
	}
	if got := r.TestbedsBuilt(); got != 4 {
		t.Fatalf("testbeds built after second run = %d, want 4 (shards are ephemeral per Run)", got)
	}
}
