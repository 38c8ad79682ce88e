package hgw_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"hgw"
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
// a 256-device / 8-shard fleet sweep, and the binding-rate probe on the
// two devices of the flow_churn benchmark (its rate is an exact count
// of arrivals over simulated time, so any change to how the probe
// creates bindings or counts them shows here).
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
}

func TestBehaviorGoldenRenders(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			results, err := hgw.Run(context.Background(), g.ids, g.opts...)
			if err != nil {
				t.Fatal(err)
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
}
