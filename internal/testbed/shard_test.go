package testbed

import (
	"testing"

	"hgw/internal/gateway"
)

func TestPartition(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 4, 7, 10}},
		{3, 8, []int{0, 1, 2, 3}}, // more shards than devices collapse
		{5, 1, []int{0, 5}},
		{7, 0, []int{0, 7}}, // zero shards clamp to one
	} {
		got := Partition(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("Partition(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Partition(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
			}
		}
	}
}

// buildShards builds every shard of a fleet of profiles over k shards
// the way the fleet runner does, through Partition and BuildShard, and
// closes them when the test ends.
func buildShards(t *testing.T, profiles []gateway.Profile, k int, seed int64) []*Shard {
	t.Helper()
	bounds := Partition(len(profiles), k)
	shards := make([]*Shard, len(bounds)-1)
	for i := range shards {
		sh, err := BuildShard(profiles[bounds[i]:bounds[i+1]], i, bounds[i], seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		shards[i] = sh
	}
	return shards
}

func TestBuildFleetShards(t *testing.T) {
	profiles := gateway.NewSynthStream(5).Next(10)
	shards := buildShards(t, profiles, 3, 5)
	if len(shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(shards))
	}
	seen := map[string]bool{}
	total := 0
	for i, sh := range shards {
		if sh.Index != i {
			t.Fatalf("shard %d has Index %d", i, sh.Index)
		}
		if sh.Sim == shards[0].Sim && i != 0 {
			t.Fatal("shards share a simulator")
		}
		for _, n := range sh.Testbed.Nodes {
			if !n.WANAddr.IsValid() || !n.ClientAddr.IsValid() {
				t.Fatalf("shard %d node %s not brought up", i, n.Tag)
			}
			if seen[n.Tag] {
				t.Fatalf("device %s appears in two shards", n.Tag)
			}
			seen[n.Tag] = true
			total++
		}
	}
	if total != len(profiles) {
		t.Fatalf("fleet covers %d devices, want %d", total, len(profiles))
	}
	// Contiguous partition: shard 0 starts at the fleet's first device.
	if shards[0].Testbed.Nodes[0].Tag != profiles[0].Tag {
		t.Fatalf("shard 0 starts at %s, want %s", shards[0].Testbed.Nodes[0].Tag, profiles[0].Tag)
	}
	if shards[0].Offset != 0 || shards[1].Offset != 4 {
		t.Fatalf("offsets = %d,%d, want 0,4", shards[0].Offset, shards[1].Offset)
	}
}

// TestBuildLargeIndexAddressing exercises the >255-node addressing
// paths (10.x WAN continuation, 172.16/12 LAN space) that fleets
// larger than a /16 of 24-bit subnets need. Building 300 devices in a
// single testbed is the worst case a one-shard fleet of that size hits.
func TestBuildLargeIndexAddressing(t *testing.T) {
	if testing.Short() {
		t.Skip("300-device bring-up")
	}
	profiles := gateway.NewSynthStream(11).Next(300)
	shards := buildShards(t, profiles, 1, 11)
	nodes := shards[0].Testbed.Nodes
	if len(nodes) != 300 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	n := nodes[299] // index 300: past both the 10.0.x and 192.168.x spaces
	if got, want := n.ServerAddr, wanSubnetAddr(300, 1); got != want {
		t.Fatalf("node 300 server addr = %v, want %v", got, want)
	}
	if !n.WANAddr.IsValid() || !n.ClientAddr.IsValid() {
		t.Fatal("node 300 did not complete DHCP")
	}
}
