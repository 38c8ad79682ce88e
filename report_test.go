package hgw_test

import (
	"context"
	"strings"
	"testing"

	"hgw"
	"hgw/internal/obs"
)

// TestFleetRunReport checks the shape and content of a fleet run's
// telemetry report: one section per shard in shard order, device
// counts matching the partition, simulator/NAT counters that actually
// moved, shard traces bracketed by start/merge markers, and a merged
// total consistent with the per-shard sections.
func TestFleetRunReport(t *testing.T) {
	var rep *hgw.RunReport
	r := hgw.NewRunner(
		hgw.WithSeed(7), hgw.WithFleet(64), hgw.WithShards(4),
		hgw.WithIterations(1),
		hgw.WithRunReport(func(got *hgw.RunReport) { rep = got }),
	)
	if _, err := r.Run(context.Background(), []string{"udp1"}); err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("WithRunReport callback never fired")
	}
	if r.Report() != rep {
		t.Error("Runner.Report() does not return the delivered report")
	}
	if !rep.Fleet || rep.Devices != 64 {
		t.Errorf("report header = fleet %v devices %d, want fleet 64", rep.Fleet, rep.Devices)
	}
	if len(rep.Shards) != 4 {
		t.Fatalf("report has %d shard sections, want 4", len(rep.Shards))
	}
	devices := 0
	var fired, created uint64
	for i, sh := range rep.Shards {
		if sh.Index != i {
			t.Errorf("shard section %d has index %d (merge order violated)", i, sh.Index)
		}
		if sh.Devices != 16 {
			t.Errorf("shard %d devices = %d, want 16", i, sh.Devices)
		}
		devices += sh.Devices
		if sh.SimEndNS <= 0 {
			t.Errorf("shard %d sim end = %d, want > 0", i, sh.SimEndNS)
		}
		if sh.Metrics.Counters["sim_events_fired"] == 0 {
			t.Errorf("shard %d fired no simulator events", i)
		}
		if sh.Metrics.Counters["nat_bindings_created"] == 0 {
			t.Errorf("shard %d created no NAT bindings", i)
		}
		fired += sh.Metrics.Counters["sim_events_fired"]
		created += sh.Metrics.Counters["nat_bindings_created"]
		if len(sh.Trace) == 0 {
			t.Fatalf("shard %d has no trace", i)
		}
		if first := sh.Trace[0]; first.Kind != "shard_start" || first.Arg != uint32(i) {
			t.Errorf("shard %d trace starts with %+v, want shard_start/%d", i, first, i)
		}
		if last := sh.Trace[len(sh.Trace)-1]; last.Kind != "shard_merge" || int64(last.AtNS) != sh.SimEndNS {
			t.Errorf("shard %d trace ends with %+v, want shard_merge at sim end %d", i, last, sh.SimEndNS)
		}
	}
	if devices != 64 {
		t.Errorf("shard device counts sum to %d, want 64", devices)
	}
	if got := rep.Totals.Counters["sim_events_fired"]; got != fired {
		t.Errorf("merged sim_events_fired = %d, want per-shard sum %d", got, fired)
	}
	if got := rep.Totals.Counters["nat_bindings_created"]; got != created {
		t.Errorf("merged nat_bindings_created = %d, want per-shard sum %d", got, created)
	}
	// Merged totals carry no trace; canonical form excludes the only
	// machine-dependent fields.
	canon := rep.Canonical()
	if strings.Contains(canon, "\"wall_ms\": 0") == false {
		t.Error("canonical report does not zero wall_ms")
	}
	if rep.Render() == "" {
		t.Error("report renders empty")
	}
}

// TestInventoryRunReport checks inventory (non-fleet) runs report one
// section per testbed the Runner built, in id order: one per
// shared-testbed experiment and one per testbed of a Standalone
// experiment (tcp2: three per device), each domain's registry
// accounting its whole build+probe trajectory, and TestbedsBuilt
// counting every one.
func TestInventoryRunReport(t *testing.T) {
	var rep *hgw.RunReport
	r := hgw.NewRunner(
		hgw.WithSeed(3), hgw.WithTags("al", "ap"),
		hgw.WithIterations(1), hgw.WithTransferBytes(1<<20),
		hgw.WithRunReport(func(got *hgw.RunReport) { rep = got }),
	)
	if _, err := r.Run(context.Background(), []string{"udp1", "tcp2", "udp3"}); err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report delivered")
	}
	if rep.Fleet {
		t.Error("inventory report marked fleet")
	}
	// Positions in the id list: udp1, then tcp2's six testbeds, then udp3.
	want := []int{0, 1, 1, 1, 1, 1, 1, 2}
	if len(rep.Shards) != len(want) {
		t.Fatalf("report has %d sections, want one per testbed (%d)", len(rep.Shards), len(want))
	}
	if built := r.TestbedsBuilt(); built != len(want) {
		t.Errorf("TestbedsBuilt = %d, want %d", built, len(want))
	}
	var shared uint64
	for i, idx := range want {
		sec := rep.Shards[i]
		if sec.Index != idx {
			t.Errorf("section %d has index %d, want %d", i, sec.Index, idx)
		}
		if sec.Metrics.Counters["sim_events_fired"] == 0 {
			t.Errorf("section %d fired no simulator events", i)
		}
		if idx != 1 {
			shared += sec.Metrics.Counters["sim_events_fired"]
		}
	}
	// Totals merge the shared-testbed sections only, not tcp2's.
	if got := rep.Totals.Counters["sim_events_fired"]; got != shared {
		t.Errorf("totals fired %d events, want the shared-testbed sections' %d", got, shared)
	}
	if rep.Totals.Counters["nat_translations"] == 0 {
		t.Error("merged totals show no NAT translations")
	}
}

// TestFleetShardProgress checks fleet runs emit ProgressShard events:
// one start per shard (scheduling order) and one done per shard in
// strict shard index order, without disturbing the experiment events'
// exactly-one-Done contract.
func TestFleetShardProgress(t *testing.T) {
	var starts, dones []int
	expDone := map[string]int{}
	_, err := hgw.Run(context.Background(), []string{"udp1"},
		hgw.WithSeed(7), hgw.WithFleet(32), hgw.WithShards(4), hgw.WithIterations(1),
		hgw.WithProgress(func(p hgw.Progress) {
			if p.Kind != hgw.ProgressShard {
				if p.Done {
					expDone[p.ID]++
				}
				return
			}
			if p.Done {
				dones = append(dones, p.Shard)
			} else {
				starts = append(starts, p.Shard)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 4 {
		t.Errorf("shard start events = %v, want one per shard", starts)
	}
	if len(dones) != 4 {
		t.Fatalf("shard done events = %v, want one per shard", dones)
	}
	for i, s := range dones {
		if s != i {
			t.Fatalf("shard done order = %v, want strict shard order", dones)
		}
	}
	if expDone["udp1"] != 1 {
		t.Errorf("experiment done events = %v, want exactly one for udp1", expDone)
	}
}

// TestRunReleasesResources is the goroutine-leak tripwire: after a
// completed fleet run (whose shards each spawn dozens of simulator
// process goroutines) the process-wide live-shard and sim-proc gauges
// must return to their pre-run baseline — every shard was Shutdown and
// every parked server goroutine unwound.
func TestRunReleasesResources(t *testing.T) {
	base := obs.Proc.Snapshot()
	_, err := hgw.Run(context.Background(), []string{"udp1"},
		hgw.WithSeed(9), hgw.WithFleet(32), hgw.WithShards(4),
		hgw.WithIterations(1), hgw.WithRunReport(nil))
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Proc.Snapshot()
	if after.LiveShards != base.LiveShards {
		t.Errorf("live shards %d -> %d: a shard outlived its run", base.LiveShards, after.LiveShards)
	}
	if after.SimProcs != base.SimProcs {
		t.Errorf("sim procs %d -> %d: simulator goroutines leaked", base.SimProcs, after.SimProcs)
	}
	if after.SimProcs < 0 || after.LiveShards < 0 {
		t.Errorf("gauges went negative: procs %d shards %d", after.SimProcs, after.LiveShards)
	}
}
