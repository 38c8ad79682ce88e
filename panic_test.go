package hgw_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hgw"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// registerPanicker registers an explicit-only experiment whose sweep
// spawns a simulator process that panics one simulated second in, the
// way a probe panics on a broken invariant.
func registerPanicker(t *testing.T) string {
	const id = "panicker"
	sweep := func(env *hgw.Env) []hgw.DeviceResult {
		env.Sim.Spawn("panicker", func(p *sim.Proc) {
			p.Sleep(time.Second)
			panic("probe: panicker: boom")
		})
		env.Sim.Run(0)
		t.Error("the simulator ran on past the process panic")
		return nil
	}
	hgw.Register(&hgw.Experiment{
		ID:           id,
		Title:        "panicking process",
		ExplicitOnly: true,
		Sweep:        sweep,
		Run: func(ctx context.Context, env *hgw.Env) (*hgw.Result, error) {
			sweep(env)
			return nil, nil
		},
	})
	t.Cleanup(func() { hgw.Unregister(id) })
	return id
}

// TestProcessPanicFailsRun checks that a panic inside a simulator
// process fails only its run, with a typed error, instead of killing
// the program: a fleet run returns *ShardError, an inventory run
// *RunError, and both unwind every simulator process.
func TestProcessPanicFailsRun(t *testing.T) {
	id := registerPanicker(t)
	base := obs.Proc.Snapshot()

	_, err := hgw.Run(context.Background(), []string{id},
		hgw.WithSeed(5), hgw.WithFleet(8), hgw.WithShards(2), hgw.WithIterations(1))
	var se *hgw.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("fleet run error %v (%T) does not unwrap to *ShardError", err, err)
	}
	if se.ExperimentID != id || !strings.Contains(se.Error(), "boom") {
		t.Errorf("ShardError = %+v, want experiment %s and the panic value", se, id)
	}

	_, err = hgw.Run(context.Background(), []string{id}, hgw.WithTags("owrt"), hgw.WithIterations(1))
	var re *hgw.RunError
	if !errors.As(err, &re) {
		t.Fatalf("inventory run error %v (%T) does not unwrap to *RunError", err, err)
	}
	if ids := re.IDs(); len(ids) != 1 || ids[0] != id || !strings.Contains(err.Error(), "boom") {
		t.Errorf("RunError = %v (ids %v), want %s failed with the panic value", err, ids, id)
	}

	after := obs.Proc.Snapshot()
	if after.SimProcs != base.SimProcs || after.LiveShards != base.LiveShards {
		t.Errorf("sim procs %d -> %d, live shards %d -> %d: a panicked run leaked",
			base.SimProcs, after.SimProcs, base.LiveShards, after.LiveShards)
	}
}
