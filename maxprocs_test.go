package hgw_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"hgw"
)

// TestThroughputHonorsMaxProcs: tcp2 builds a testbed per device, and
// WithMaxProcs bounds how many of them are alive at once. Each stand-in
// measurement stays alive long enough for a peer to start beside it, so
// a pool wider than the bound shows as overlap; at maxProcs 2 the
// overlap must show, which proves the test can see it.
func TestThroughputHonorsMaxProcs(t *testing.T) {
	for _, procs := range []int{1, 2} {
		var mu sync.Mutex
		live, peak := 0, 0
		restore := hgw.SetThroughputProbe(func(tag string) hgw.Throughput {
			mu.Lock()
			live++
			peak = max(peak, live)
			mu.Unlock()
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			live--
			mu.Unlock()
			return hgw.Throughput{Tag: tag}
		})
		res, err := hgw.Run(context.Background(), []string{"tcp2"},
			hgw.WithTags("al", "ap", "je"), hgw.WithMaxProcs(procs))
		restore()
		if err != nil {
			t.Fatal(err)
		}
		tps, err := res.Get("tcp2").Throughputs()
		if err != nil || len(tps) != 3 || tps[0].Tag != "al" || tps[2].Tag != "je" {
			t.Fatalf("maxProcs %d: throughputs %+v, %v; want al, ap, je in order", procs, tps, err)
		}
		if peak != procs {
			t.Errorf("maxProcs %d: %d throughput testbeds alive at once, want %d", procs, peak, procs)
		}
	}
}
