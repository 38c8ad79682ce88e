package hgw_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hgw"
)

// TestFleetCancelMidRun checks that cancelling during a WithFleet(1000)
// run interrupts the shard simulators mid-sweep: Run returns promptly
// with the context error instead of finishing the fleet.
func TestFleetCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		results hgw.Results
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		// 50 iterations over 1000 devices would run for minutes
		// uncancelled; the test cancels a moment after it starts.
		results, err := hgw.Run(ctx, []string{"udp3"},
			hgw.WithSeed(3), hgw.WithFleet(1000), hgw.WithShards(2),
			hgw.WithIterations(50))
		done <- outcome{results, err}
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()

	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", out.err)
		}
		if len(out.results) != 0 {
			t.Errorf("cancelled run returned %d results, want none", len(out.results))
		}
		var re *hgw.RunError
		if !errors.As(out.err, &re) {
			t.Fatalf("error %T does not unwrap to *RunError", out.err)
		}
		if len(re.IDs()) != 1 || re.IDs()[0] != "udp3" {
			t.Errorf("RunError.IDs() = %v, want [udp3]", re.IDs())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled fleet run did not return within 30s")
	}
}

// TestFleetCancelThenReuse checks that a cancelled fleet run leaves
// its Runner reusable: shards are ephemeral per Run, so whatever
// half-run simulator state the cancellation abandoned is discarded
// with the run, and a later Run on the same Runner rebuilds from
// scratch and renders exactly like a fresh Runner's run. (Mid-sweep
// interruption itself is covered by TestFleetCancelMidRun; this test
// pins the reuse contract, so it uses a fleet small enough to rerun.)
func TestFleetCancelThenReuse(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel on the experiment's progress-start event: it fires before
	// the shard pipeline dispatches, so the cancellation lands on the
	// run whatever the machine's timing.
	opts := []hgw.Option{hgw.WithSeed(4), hgw.WithFleet(24), hgw.WithShards(3),
		hgw.WithOptions(hgw.Options{Iterations: 1})}
	r := hgw.NewRunner(append(opts, hgw.WithProgress(func(p hgw.Progress) {
		if !p.Done {
			cancel()
		}
	}))...)
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, []string{"udp1"})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled fleet run did not return within 30s")
	}
	results, err := r.Run(context.Background(), []string{"udp1"})
	if err != nil {
		t.Fatalf("reusing a Runner after cancellation: %v", err)
	}
	fresh, err := hgw.Run(context.Background(), []string{"udp1"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := results.Render(), fresh.Render(); got != want {
		t.Fatalf("reused Runner renders differently from a fresh Runner:\n%s\n--- vs ---\n%s", got, want)
	}
}

// TestFaultedFleetCancelMidRun is the mid-run cancellation check for a
// chaos run: a WithFleet(1000) job with a reboot-heavy fault plan —
// gateway power cycles, DHCP re-leases and binding wipes all in flight
// — must still return ctx.Err() promptly when cancelled, and leave the
// Runner reusable for an unfaulted run afterwards.
func TestFaultedFleetCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := hgw.Run(ctx, []string{"udp3"},
			hgw.WithSeed(3), hgw.WithFleet(1000), hgw.WithShards(2),
			hgw.WithIterations(50), hgw.WithRetries(3),
			hgw.WithFaults(hgw.FaultSpec{Reboots: 3, Flaps: 2, LossWindows: 2}))
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled faulted fleet run did not return within 30s")
	}

	// Runner reuse after a faulted cancellation: cancel a small chaos
	// run on the experiment's start event, then rerun to completion on
	// the same Runner and compare against a fresh Runner byte for byte.
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	opts := []hgw.Option{hgw.WithSeed(4), hgw.WithFleet(24), hgw.WithShards(3),
		hgw.WithIterations(1), hgw.WithRetries(2),
		hgw.WithFaults(hgw.FaultSpec{Reboots: 2, Flaps: 1})}
	r := hgw.NewRunner(append(opts, hgw.WithProgress(func(p hgw.Progress) {
		if !p.Done {
			rcancel()
		}
	}))...)
	if _, err := r.Run(rctx, []string{"udp1"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("small faulted cancel: err = %v, want context.Canceled", err)
	}
	results, err := r.Run(context.Background(), []string{"udp1"})
	if err != nil {
		t.Fatalf("reusing the Runner after a cancelled faulted run: %v", err)
	}
	fresh, err := hgw.Run(context.Background(), []string{"udp1"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := results.Render(), fresh.Render(); got != want {
		t.Fatalf("Runner reused after faulted cancellation renders differently:\n%s\n--- vs ---\n%s", got, want)
	}
}

// TestStandaloneCancelMidRun checks that Standalone experiments are
// interruptible too: a cancelled tcp2 run aborts its per-device
// transfer simulations instead of finishing all 34 devices.
func TestStandaloneCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// 256 MB transfers across 34 devices would run for minutes
		// uncancelled.
		_, err := hgw.Run(ctx, []string{"tcp2"},
			hgw.WithSeed(2), hgw.WithTransferBytes(256<<20))
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled tcp2 run did not return within 30s")
	}
}

// TestRunErrorListsAllFailures checks the typed run error: every failed
// experiment id is reported, not just the first one to fail.
func TestRunErrorListsAllFailures(t *testing.T) {
	_, err := hgw.Run(context.Background(), []string{"tcp2", "holepunch"},
		hgw.WithTags("zzz"), hgw.WithIterations(1))
	if err == nil {
		t.Fatal("run with a bogus tag succeeded")
	}
	var re *hgw.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not unwrap to *RunError", err)
	}
	ids := re.IDs()
	if len(ids) != 2 || ids[0] != "tcp2" || ids[1] != "holepunch" {
		t.Fatalf("RunError.IDs() = %v, want [tcp2 holepunch]", ids)
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), "experiment "+id) {
			t.Errorf("error text lacks %q: %v", id, err)
		}
	}
	var ee *hgw.ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("error does not expose *ExperimentError")
	}
}
