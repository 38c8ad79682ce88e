package hgw_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hgw"
	"hgw/internal/obs"
)

// The goldens under testdata/behavior were rendered by the engine
// BEFORE the RFC 4787 behavior-module refactor (PR 5), from the exact
// configurations below. They pin the refactor's central contract: the
// zero-value behavior policies (address-and-port-dependent mapping and
// filtering, preservation-or-sequential port allocation) reproduce the
// monolithic engine byte for byte. Regenerate only when a behavior
// change is intended: HGW_UPDATE_GOLDEN=1 go test -run BehaviorGolden .
//
// inventory.golden was re-pinned once, on purpose, when inventory
// experiments became sealed domains (each on a testbed of its own): it
// is the concatenation of each of its ids' single-experiment renders
// from the engine before that change. TestInventoryDeterminismMatrix
// keeps asserting that equality against the current engine.
const updateEnv = "HGW_UPDATE_GOLDEN"

// goldenRuns lists the acceptance renders: the UDP-1..5, TCP-1..4 and
// ICMP experiments on a mixed device subset (preserve+reuse,
// preserve+new, no-preservation, coarse timers, >24 h TCP all covered),
// a 256-device / 8-shard fleet sweep, the binding-rate probe on the
// two devices of the flow_churn benchmark (its rate is an exact count
// of arrivals over simulated time, so any change to how the probe
// creates bindings or counts them shows here), and the fleet_sweep
// benchmark's exact request. flow_churn's whole request is pinned by
// standalone.golden (TestStandalonePoolDeterminism).
var goldenRuns = []struct {
	name string
	ids  []string
	opts []hgw.Option
}{
	{
		name: "inventory",
		ids:  []string{"udp1", "udp2", "udp3", "udp4", "udp5", "tcp1", "tcp2", "tcp4", "icmp"},
		opts: []hgw.Option{
			hgw.WithTags("je", "owrt", "smc", "be1"),
			hgw.WithSeed(7),
			hgw.WithIterations(1),
			hgw.WithTransferBytes(1 << 20),
		},
	},
	{
		name: "fleet256",
		ids:  []string{"udp1", "udp3"},
		opts: []hgw.Option{
			hgw.WithSeed(11),
			hgw.WithFleet(256),
			hgw.WithShards(8),
			hgw.WithIterations(1),
		},
	},
	{
		name: "bindrate",
		ids:  []string{"bindrate"},
		opts: []hgw.Option{
			hgw.WithTags("al", "ap"),
			hgw.WithSeed(1),
		},
	},
	{
		name: "fleet_sweep",
		ids:  hgw.FleetIDs(),
		opts: []hgw.Option{
			hgw.WithFleet(1024),
			hgw.WithShards(4),
			hgw.WithIterations(1),
			hgw.WithSeed(1),
		},
	},
}

// workCountsPath holds one line of exact work counts per golden run:
// the simulator and NAT counters of the run report's totals, and the
// process-wide frame and buffer pool traffic the run caused. They are
// deterministic and exact because no test in this package runs in
// parallel. Pool misses, each domain's refills of an empty free list,
// are left out: they describe the pools' batching, not work. A change that
// moves work without moving any render fails here; re-pin it with
// HGW_UPDATE_GOLDEN=1 and name the moved counts in CHANGES.md.
var workCountsPath = filepath.Join("testdata", "behavior", "workcounts.golden")

// workCounts formats one run's line of workcounts.golden.
func workCounts(name string, totals hgw.MetricsSnapshot, before, after obs.ProcSnapshot) string {
	var sb strings.Builder
	sb.WriteString(name)
	for _, c := range []string{
		"sim_events_fired", "sim_events_canceled", "sim_procs_spawned",
		"nat_bindings_created", "nat_translations", "nat_drops",
	} {
		fmt.Fprintf(&sb, " %s=%d", c, totals.Counters[c])
	}
	fmt.Fprintf(&sb, " netpkt_frames=%d netpkt_buf_gets=%d netpkt_buf_puts=%d",
		after.FrameGets-before.FrameGets, after.PoolGets-before.PoolGets, after.PoolPuts-before.PoolPuts)
	return sb.String()
}

// readWorkCounts maps each run name in workcounts.golden to its line.
func readWorkCounts(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(workCountsPath)
	if os.IsNotExist(err) && os.Getenv(updateEnv) != "" {
		return map[string]string{}
	}
	if err != nil {
		t.Fatalf("missing work counts (run with %s=1 to generate): %v", updateEnv, err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		lines[name] = line
	}
	return lines
}

func TestBehaviorGoldenRenders(t *testing.T) {
	wantCounts := readWorkCounts(t)
	gotCounts := map[string]string{}
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			var rep *hgw.RunReport
			opts := append(g.opts[:len(g.opts):len(g.opts)], hgw.WithRunReport(func(r *hgw.RunReport) { rep = r }))
			before := obs.Proc.Snapshot()
			results, err := hgw.Run(context.Background(), g.ids, opts...)
			after := obs.Proc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			counts := workCounts(g.name, rep.Totals, before, after)
			gotCounts[g.name] = counts
			if os.Getenv(updateEnv) == "" && counts != wantCounts[g.name] {
				t.Errorf("work counts differ from %s\n got: %s\nwant: %s", workCountsPath, counts, wantCounts[g.name])
			}
			got := results.Render()
			path := filepath.Join("testdata", "behavior", g.name+".golden")
			if os.Getenv(updateEnv) != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with %s=1 to generate): %v", updateEnv, err)
			}
			if got != string(want) {
				t.Errorf("render differs from pre-refactor golden %s\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
	if os.Getenv(updateEnv) != "" {
		// Runs a -run filter skipped keep their recorded lines.
		var sb strings.Builder
		for _, g := range goldenRuns {
			line, ok := gotCounts[g.name]
			if !ok {
				line, ok = wantCounts[g.name]
			}
			if ok {
				sb.WriteString(line + "\n")
			}
		}
		if err := os.WriteFile(workCountsPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInventoryBuffersReturn runs each built-in experiment alone, with
// the inventory golden run's options, and checks that every packet
// buffer and frame the run took from the pools went back: one that
// never does is a drop path that skips the ownership rules (DESIGN.md
// §9). Like the work counts, it reads the process-wide pool counters,
// so it must not run in parallel.
func TestInventoryBuffersReturn(t *testing.T) {
	inv := goldenRuns[0]
	ids := append(inv.ids[:len(inv.ids):len(inv.ids)],
		"fig2", "sctp", "dccp", "dns", "quirks", "bindrate", "keepalive", "holepunch", "natmap", "punchmatrix")
	for _, id := range ids {
		before := obs.Proc.Snapshot()
		if _, err := hgw.Run(context.Background(), []string{id}, inv.opts...); err != nil {
			t.Fatal(err)
		}
		after := obs.Proc.Snapshot()
		gets, puts := after.PoolGets-before.PoolGets, after.PoolPuts-before.PoolPuts
		frames, framePuts := after.FrameGets-before.FrameGets, after.FramePuts-before.FramePuts
		if gets != puts || frames != framePuts {
			t.Errorf("%s: %d buffer gets, %d puts; %d frame gets, %d puts", id, gets, puts, frames, framePuts)
		}
	}
}
