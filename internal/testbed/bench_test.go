package testbed

import (
	"testing"

	"hgw/internal/gateway"
)

// BenchmarkBuildShard brings up one fleet shard of 256 synthetic
// devices (topology, DHCP on every WAN and LAN, ARP) and tears it down:
// the bring-up cost every fleet shard pays before its first probe.
func BenchmarkBuildShard(b *testing.B) {
	profiles := gateway.NewSynthStream(1).Next(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := BuildShard(profiles, 0, 0, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		sh.Close()
	}
}
