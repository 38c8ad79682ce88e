package hgw_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hgw/internal/obs"
	"hgw/internal/probe"
	"hgw/internal/testbed"
)

// TestDomainPoolIsolation runs two testbed domains on two goroutines at
// once, each churning its own packet pool (bindrate's binding churn
// through the gateway) and releasing it into the shared depot at
// Shutdown, for several rounds, so later rounds refill from what the
// earlier ones released. Each domain must render exactly as it does
// alone, and a round's pool traffic must be the sum of the two solo
// runs': a buffer shared across domains shows as a race (the test runs
// under -race in CI), a changed figure or a lost count.
func TestDomainPoolIsolation(t *testing.T) {
	tags := []string{"al", "ap"}
	run := func(tag string) string {
		tb, s := testbed.Run(testbed.Config{Tags: []string{tag}, Seed: 1})
		defer s.Shutdown()
		return fmt.Sprint(probe.BindRate(tb, s, 200*time.Millisecond, probe.Options{}))
	}
	traffic := func(before, after obs.ProcSnapshot) [3]uint64 {
		return [3]uint64{after.PoolGets - before.PoolGets, after.PoolPuts - before.PoolPuts, after.FrameGets - before.FrameGets}
	}
	want := make([]string, len(tags))
	var wantTraffic [3]uint64
	for i, tag := range tags {
		before := obs.Proc.Snapshot()
		want[i] = run(tag)
		for k, v := range traffic(before, obs.Proc.Snapshot()) {
			wantTraffic[k] += v
		}
	}
	if wantTraffic[0] == 0 || wantTraffic[2] == 0 {
		t.Fatalf("solo runs drew no pooled buffers or frames: %v", wantTraffic)
	}
	for round := 0; round < 3; round++ {
		got := make([]string, len(tags))
		before := obs.Proc.Snapshot()
		var wg sync.WaitGroup
		for i, tag := range tags {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run(tag)
			}()
		}
		wg.Wait()
		for i, tag := range tags {
			if got[i] != want[i] {
				t.Fatalf("round %d: %s beside another domain rendered %s, alone %s", round, tag, got[i], want[i])
			}
		}
		if tr := traffic(before, obs.Proc.Snapshot()); tr != wantTraffic {
			t.Fatalf("round %d: pool gets, puts and frames %v, want the solo runs' sum %v", round, tr, wantTraffic)
		}
	}
}
