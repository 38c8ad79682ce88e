package hgw_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hgw"
)

// liveCounter records how many stand-in testbeds are alive at once.
type liveCounter struct {
	mu         sync.Mutex
	live, peak int
}

// hold counts itself live for d.
func (c *liveCounter) hold(d time.Duration) {
	c.mu.Lock()
	c.live++
	c.peak = max(c.peak, c.live)
	c.mu.Unlock()
	time.Sleep(d)
	c.mu.Lock()
	c.live--
	c.mu.Unlock()
}

// takePeak returns the peak since the last call and resets it.
func (c *liveCounter) takePeak() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peak
	c.peak = 0
	return p
}

// TestThroughputHonorsMaxProcs: tcp2 runs each device's transfers on
// testbeds of their own, and WithMaxProcs bounds how many of them are
// alive at once. Each stand-in run stays alive long enough for a peer
// to start beside it, so a pool wider than the bound shows as overlap;
// at maxProcs 2 the overlap must show, which proves the test can see
// it.
func TestThroughputHonorsMaxProcs(t *testing.T) {
	for _, procs := range []int{1, 2} {
		var c liveCounter
		restore := hgw.SetThroughputProbe(func(string) { c.hold(50 * time.Millisecond) })
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
		if peak := c.takePeak(); peak != procs {
			t.Errorf("maxProcs %d: %d throughput testbeds alive at once, want %d", procs, peak, procs)
		}
	}
}

// TestRunWideDomainBound: WithMaxProcs bounds the testbeds alive at
// once across the whole run, not per experiment. A shared-testbed
// experiment registered here and tcp2's per-testbed stand-in both count
// themselves live; tcp2's nine testbeds (three devices, three runs
// each) outlast the shared one, so a Standalone pool beside the run's
// (the layout that let a run keep 2·maxProcs−1 testbeds alive) shows
// as overlap above the bound. At maxProcs 2 the peak must reach 2,
// which proves the test sees overlap at all.
func TestRunWideDomainBound(t *testing.T) {
	var c liveCounter
	const id = "test-shared-bound"
	hgw.Register(&hgw.Experiment{
		ID:           id,
		Title:        "shared-testbed stand-in",
		ExplicitOnly: true,
		Run: func(ctx context.Context, env *hgw.Env) (*hgw.Result, error) {
			if env.Testbed == nil {
				return nil, errors.New("no shared testbed")
			}
			c.hold(200 * time.Millisecond)
			return &hgw.Result{ID: id}, nil
		},
	})
	t.Cleanup(func() { hgw.Unregister(id) })
	restore := hgw.SetThroughputProbe(func(string) { c.hold(50 * time.Millisecond) })
	defer restore()
	for _, procs := range []int{1, 2} {
		res, err := hgw.Run(context.Background(), []string{id, "tcp2"},
			hgw.WithTags("al", "ap", "je"), hgw.WithMaxProcs(procs))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 || res[0].ID != id || res[1].ID != "tcp2" {
			t.Fatalf("maxProcs %d: results %v, want %s then tcp2", procs, res, id)
		}
		peak := c.takePeak()
		if peak > procs {
			t.Errorf("maxProcs %d: %d testbeds alive at once", procs, peak)
		}
		if procs == 2 && peak < 2 {
			t.Errorf("maxProcs 2: peak %d; the shared domain and a tcp2 device never overlapped", peak)
		}
	}
}

// TestStandaloneTaskPanicFailsExperiment: a panic in the measurement
// on one of a Standalone experiment's testbeds (tcp2's throughput run)
// fails that experiment alone, with the panic as its error, instead of
// killing the program; a testbed that cannot be built (fig2 for an
// unknown device) fails it with the build error.
func TestStandaloneTaskPanicFailsExperiment(t *testing.T) {
	restore := hgw.SetThroughputProbe(func(string) { panic("boom") })
	_, err := hgw.Run(context.Background(), []string{"udp1", "tcp2"},
		hgw.WithTags("je", "owrt"), hgw.WithIterations(1), hgw.WithMaxProcs(2))
	restore()
	var re *hgw.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) does not unwrap to *RunError", err, err)
	}
	if ids := re.IDs(); len(ids) != 1 || ids[0] != "tcp2" || !strings.Contains(err.Error(), "panic: boom") {
		t.Errorf("RunError = %v (ids %v), want tcp2 alone failed with the panic value", err, ids)
	}

	_, err = hgw.Run(context.Background(), []string{"fig2"},
		hgw.WithTags("nosuch"), hgw.WithIterations(1), hgw.WithMaxProcs(2))
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) does not unwrap to *RunError", err, err)
	}
	if ids := re.IDs(); len(ids) != 1 || ids[0] != "fig2" || !strings.Contains(err.Error(), "testbed setup: ") {
		t.Errorf("RunError = %v (ids %v), want fig2 failed with the build error", err, ids)
	}
}

// TestStandaloneNeedsRunner: a Standalone experiment's Run called on an
// Env no Runner built fails with an error instead of waiting forever.
func TestStandaloneNeedsRunner(t *testing.T) {
	for _, id := range []string{"fig2", "tcp2", "holepunch", "punchmatrix"} {
		e, err := hgw.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := e.Run(context.Background(), &hgw.Env{Tags: []string{"je", "owrt"}, Seed: 1})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "only under a Runner") {
				t.Errorf("%s: Run on a bare Env = %v, want the Runner error", id, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run on a bare Env did not return", id)
		}
	}
}
