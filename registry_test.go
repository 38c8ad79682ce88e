package hgw_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hgw"
)

// smallOpts is the 1-iteration/2-device configuration every registry
// experiment must survive end to end.
func smallOpts(extra ...hgw.Option) []hgw.Option {
	opts := []hgw.Option{
		hgw.WithTags("je", "owrt"),
		hgw.WithSeed(7),
		hgw.WithIterations(1),
		hgw.WithTransferBytes(1 << 20),
	}
	return append(opts, extra...)
}

// TestRegistryEndToEnd runs every registered experiment under the small
// configuration and checks the uniform envelope: a non-empty render, a
// matching id, and JSON marshalling.
func TestRegistryEndToEnd(t *testing.T) {
	for _, e := range hgw.Registry() {
		t.Run(e.ID, func(t *testing.T) {
			results, err := hgw.Run(context.Background(), []string{e.ID}, smallOpts()...)
			if err != nil {
				t.Fatalf("Run(%s): %v", e.ID, err)
			}
			if len(results) != 1 {
				t.Fatalf("Run(%s) returned %d results, want 1", e.ID, len(results))
			}
			r := results[0]
			if r.ID != e.ID {
				t.Errorf("result id = %q, want %q", r.ID, e.ID)
			}
			if r.Render() == "" {
				t.Errorf("empty render for %s", e.ID)
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("json marshal %s: %v", e.ID, err)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	_, err := hgw.Run(context.Background(), []string{"udp1", "nosuch"})
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !errors.Is(err, hgw.ErrUnknownExperiment) {
		t.Errorf("errors.Is(err, ErrUnknownExperiment) = false for %v", err)
	}
	var ue *hgw.UnknownExperimentError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *UnknownExperimentError", err)
	}
	if ue.ID != "nosuch" {
		t.Errorf("UnknownExperimentError.ID = %q, want %q", ue.ID, "nosuch")
	}
}

func TestRunAliases(t *testing.T) {
	results, err := hgw.Run(context.Background(), []string{"tcp3"}, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "tcp2" {
		t.Fatalf("alias tcp3 resolved to %+v, want one tcp2 result", results)
	}
}

// TestRunDeterminism checks that two multi-experiment runs with equal
// seeds produce byte-identical Result.Render output, even with
// experiments executing concurrently.
func TestRunDeterminism(t *testing.T) {
	ids := []string{"udp1", "udp4", "quirks", "sctp", "dns"}
	run := func() string {
		results, err := hgw.Run(context.Background(), ids, smallOpts(hgw.WithMaxProcs(2))...)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(ids) {
			t.Fatalf("got %d results, want %d", len(results), len(ids))
		}
		return results.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("equal-seed runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestFleetRenderDeterministicPooled re-asserts the equal-seed
// byte-identical render guarantee on top of the pooled packet codecs
// and the slab event queue, in the configuration that stresses them
// hardest: fleet mode, where concurrent shards refill their packet
// pools from one shared depot and every shard runs its own event slab.
// Which buffers a shard gets differs run to run (the depot is served
// in scheduling order); the rendered figures — and therefore
// hgw.CacheKey-addressed cache entries — must not.
func TestFleetRenderDeterministicPooled(t *testing.T) {
	run := func() string {
		results, err := hgw.Run(context.Background(), []string{"udp1"},
			hgw.WithSeed(11), hgw.WithFleet(48), hgw.WithShards(4),
			hgw.WithIterations(1))
		if err != nil {
			t.Fatal(err)
		}
		return results.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("equal-seed fleet runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestRunTestbedPerExperiment checks the sealed-domain contract: every
// non-Standalone experiment gets a testbed of its own, the Runner
// builds every testbed of a Standalone one too (tcp2 here: three per
// device, for je and owrt), and results come back in requested order
// whatever order the domains finish in.
func TestRunTestbedPerExperiment(t *testing.T) {
	ids := []string{"udp1", "tcp2", "udp4", "quirks", "sctp", "dns"}
	r := hgw.NewRunner(smallOpts(hgw.WithMaxProcs(2))...)
	results, err := r.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	if built, want := r.TestbedsBuilt(), len(ids)-1+3*2; built != want {
		t.Errorf("built %d testbeds, want %d: one per non-Standalone experiment, three per tcp2 device", built, want)
	}
	for i, id := range ids {
		if results[i].ID != id {
			t.Errorf("results[%d] = %s, want %s", i, results[i].ID, id)
		}
	}
}

func TestRunResultsCollection(t *testing.T) {
	results, err := hgw.Run(context.Background(), []string{"icmp", "sctp", "dccp", "dns"},
		smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if results.Get("sctp") == nil || results.Get("nosuch") != nil {
		t.Error("Results.Get misbehaves")
	}
	table, ok := results.Table2()
	if !ok || table == "" {
		t.Fatal("Results.Table2 found no component results")
	}
	for _, tag := range []string{"je", "owrt", "summary:"} {
		if !strings.Contains(table, tag) {
			t.Errorf("combined Table 2 lacks %q:\n%s", tag, table)
		}
	}
}

// TestFig2MatchesStandalone checks that fig2's per-sweep fresh
// testbeds keep its columns identical to the standalone udp3 figure.
func TestFig2MatchesStandalone(t *testing.T) {
	results, err := hgw.Run(context.Background(), []string{"fig2", "udp3"}, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	figs := results.Get("fig2").Payload.(map[string]hgw.Figure)
	udp3 := results.Get("udp3").Figure
	for _, p := range udp3.Points {
		got := -1.0
		for _, q := range figs["UDP-3"].Points {
			if q.Tag == p.Tag {
				got = q.Median
			}
		}
		if got != p.Median {
			t.Errorf("fig2 UDP-3 %s = %v, standalone udp3 = %v", p.Tag, got, p.Median)
		}
	}
}

func TestHolePunchOddTags(t *testing.T) {
	_, err := hgw.Run(context.Background(), []string{"holepunch"},
		hgw.WithTags("owrt", "bu1", "smc"))
	if err == nil || !strings.Contains(err.Error(), `"smc" unpaired`) {
		t.Fatalf("odd tag count not rejected: %v", err)
	}
	_, err = hgw.Run(context.Background(), []string{"holepunch"}, hgw.WithTags("owrt"))
	if err == nil {
		t.Fatal("single tag not rejected")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := hgw.Run(ctx, []string{"udp1"}, smallOpts()...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunProgress(t *testing.T) {
	var events []hgw.Progress
	_, err := hgw.Run(context.Background(), []string{"quirks", "sctp"},
		smallOpts(hgw.WithProgress(func(p hgw.Progress) { events = append(events, p) }))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4 (start+done per experiment)", len(events))
	}
	done := 0
	for _, ev := range events {
		if ev.Total != 2 {
			t.Errorf("event total = %d, want 2", ev.Total)
		}
		if ev.Done {
			done++
		}
	}
	if done != 2 {
		t.Errorf("got %d done events, want 2", done)
	}
}
