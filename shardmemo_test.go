package hgw_test

import (
	"context"
	"runtime"
	"testing"

	"hgw"
)

// shardKeys resolves every shard key of a fleet request.
func shardKeys(t *testing.T, shards int, ids []string, opts ...hgw.Option) []string {
	t.Helper()
	keys := make([]string, shards)
	for i := range keys {
		k, err := hgw.ShardKey(i, ids, opts...)
		if err != nil {
			t.Fatalf("ShardKey(%d): %v", i, err)
		}
		keys[i] = k
	}
	return keys
}

// TestShardKeyContract pins what a shard's content address does and
// does not depend on. The load-bearing property is prefix stability:
// growing a fleet at constant per-shard size leaves the surviving
// shards' keys untouched, which is what lets a memoized re-run simulate
// only the new shard (DESIGN.md §15).
func TestShardKeyContract(t *testing.T) {
	ids := []string{"udp1", "udp3"}
	base := []hgw.Option{hgw.WithSeed(7), hgw.WithIterations(1), hgw.WithFleet(96), hgw.WithShards(4)}

	keys := shardKeys(t, 4, ids, base...)
	seen := make(map[string]bool)
	for i, k := range keys {
		if seen[k] {
			t.Fatalf("shard %d shares a key with an earlier shard", i)
		}
		seen[k] = true
	}

	// Deterministic across processes' worth of recomputation.
	again := shardKeys(t, 4, ids, base...)
	for i := range keys {
		if keys[i] != again[i] {
			t.Fatalf("shard %d key not stable: %s vs %s", i, keys[i], again[i])
		}
	}

	// Prefix stability: 96/4 → 120/5 keeps shards 0..3 (24 devices
	// each), adds one new shard.
	grown := shardKeys(t, 5, ids, hgw.WithSeed(7), hgw.WithIterations(1), hgw.WithFleet(120), hgw.WithShards(5))
	for i := 0; i < 4; i++ {
		if grown[i] != keys[i] {
			t.Errorf("shard %d key changed when the fleet grew at constant shard size", i)
		}
	}
	if seen[grown[4]] {
		t.Error("the new shard's key collides with an old one")
	}

	// Concurrency knobs and observation callbacks do not key.
	withProcs := shardKeys(t, 4, ids, append(append([]hgw.Option{}, base...), hgw.WithMaxProcs(1))...)
	for i := range keys {
		if withProcs[i] != keys[i] {
			t.Errorf("shard %d key depends on WithMaxProcs; it must not", i)
		}
	}

	// Seed, options and fault specs do key.
	//hgwlint:allow detlint per-case assertions commute; any visit order fails the same way
	for name, opts := range map[string][]hgw.Option{
		"seed":    {hgw.WithSeed(8), hgw.WithIterations(1), hgw.WithFleet(96), hgw.WithShards(4)},
		"iters":   {hgw.WithSeed(7), hgw.WithIterations(2), hgw.WithFleet(96), hgw.WithShards(4)},
		"faults":  {hgw.WithSeed(7), hgw.WithIterations(1), hgw.WithFleet(96), hgw.WithShards(4), hgw.WithFaults(hgw.FaultSpec{Rate: 1})},
		"retries": {hgw.WithSeed(7), hgw.WithIterations(1), hgw.WithFleet(96), hgw.WithShards(4), hgw.WithRetries(2)},
	} {
		k, err := hgw.ShardKey(0, ids, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == keys[0] {
			t.Errorf("changing %s did not change shard 0's key", name)
		}
	}

	// Misuse errors.
	if _, err := hgw.ShardKey(0, ids, hgw.WithSeed(7)); err == nil {
		t.Error("want an error for a non-fleet request")
	}
	if _, err := hgw.ShardKey(4, ids, base...); err == nil {
		t.Error("want an error for an out-of-range shard")
	}
	if _, err := hgw.ShardKey(0, []string{"nope"}, base...); err == nil {
		t.Error("want an error for an unknown id")
	}
}

// TestShardMemoFleetGrowth is the reuse acceptance test at unit scale:
// prime a store with a 96-device/4-shard run, grow the fleet to 120/5,
// and the re-run must execute exactly the one new shard — while
// rendering and streaming byte-identically to a cold run of the grown
// fleet.
func TestShardMemoFleetGrowth(t *testing.T) {
	ids := []string{"udp1"}
	store, err := hgw.OpenMemo(hgw.MemoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := func(fleet, shards int, extra ...hgw.Option) []hgw.Option {
		o := []hgw.Option{hgw.WithSeed(7), hgw.WithIterations(1),
			hgw.WithFleet(fleet), hgw.WithShards(shards)}
		return append(o, extra...)
	}

	fleetTrace(t, ids, opts(96, 4, hgw.WithShardMemo(store))...)
	st := store.Stats()
	if st.Puts != 4 || st.Misses != 4 || st.MemHits != 0 {
		t.Fatalf("after priming: %+v", st)
	}

	coldRender, coldTrace := fleetTrace(t, ids, opts(120, 5)...)
	memoRender, memoTrace := fleetTrace(t, ids, opts(120, 5, hgw.WithShardMemo(store))...)
	if memoRender != coldRender {
		t.Error("memoized grown-fleet render differs from cold render")
	}
	if memoTrace != coldTrace {
		t.Error("memoized grown-fleet device stream differs from cold stream")
	}
	st = store.Stats()
	if st.MemHits != 4 {
		t.Errorf("want the 4 surviving shards served from memo, got %d hits", st.MemHits)
	}
	if st.Puts != 5 {
		t.Errorf("want exactly the new shard executed and recorded (5 puts total), got %d", st.Puts)
	}
}

// TestShardMemoFaultedReplay proves fault specs key and replay
// correctly: a faulted run primes the store, an equal-spec re-run is
// served entirely from memo and renders byte-identically, and the
// clean-spec run never sees the faulted entries.
func TestShardMemoFaultedReplay(t *testing.T) {
	ids := []string{"udp3"}
	store, err := hgw.OpenMemo(hgw.MemoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	faulted := []hgw.Option{hgw.WithSeed(11), hgw.WithIterations(1),
		hgw.WithFleet(64), hgw.WithShards(2),
		hgw.WithFaults(hgw.FaultSpec{Rate: 1}), hgw.WithRetries(2), hgw.WithShardMemo(store)}
	clean := []hgw.Option{hgw.WithSeed(11), hgw.WithIterations(1),
		hgw.WithFleet(64), hgw.WithShards(2), hgw.WithShardMemo(store)}

	fRender, fTrace := fleetTrace(t, ids, faulted...)
	replayRender, replayTrace := fleetTrace(t, ids, faulted...)
	if replayRender != fRender || replayTrace != fTrace {
		t.Error("faulted replay differs from its own cold run")
	}
	if st := store.Stats(); st.MemHits != 2 {
		t.Errorf("want both shards replayed, got %d hits", st.MemHits)
	}

	cRender, _ := fleetTrace(t, ids, clean...)
	if cRender == fRender {
		t.Error("clean render equals faulted render; fault spec leaked into (or out of) the memo key")
	}
	if st := store.Stats(); st.Puts != 4 {
		t.Errorf("want 2 faulted + 2 clean entries, got %d puts", st.Puts)
	}
}

// TestShardMemoReport: memoized shards surface as Memoized sections in
// the run report instead of carrying fabricated metrics.
func TestShardMemoReport(t *testing.T) {
	ids := []string{"udp1"}
	store, err := hgw.OpenMemo(hgw.MemoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := []hgw.Option{hgw.WithSeed(3), hgw.WithIterations(1),
		hgw.WithFleet(48), hgw.WithShards(2), hgw.WithShardMemo(store)}
	if _, err := hgw.Run(context.Background(), ids, opts...); err != nil {
		t.Fatal(err)
	}
	var rep *hgw.RunReport
	all := append(append([]hgw.Option{}, opts...), hgw.WithRunReport(func(r *hgw.RunReport) { rep = r }))
	if _, err := hgw.Run(context.Background(), ids, all...); err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Shards) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	for _, sh := range rep.Shards {
		if !sh.Memoized {
			t.Errorf("shard %d executed; want it served from memo", sh.Index)
		}
		if sh.WallMS != 0 || len(sh.Metrics.Counters) != 0 {
			t.Errorf("memoized shard %d carries execution telemetry", sh.Index)
		}
	}
}

// TestShardMemoReplacesStaleBlob: a shard blob that no longer decodes
// (written by an older build, say) is counted and served as a miss,
// and the re-executed shard's rows replace it in both tiers, so the
// next run — in this process or after a restart — is a memo hit that
// simulates nothing.
func TestShardMemoReplacesStaleBlob(t *testing.T) {
	ids := []string{"udp1"}
	dir := t.TempDir()
	opts := []hgw.Option{hgw.WithSeed(5), hgw.WithIterations(1), hgw.WithFleet(32), hgw.WithShards(2)}
	keys := shardKeys(t, 2, ids, opts...)
	store, err := hgw.OpenMemo(hgw.MemoConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(keys[0], []byte("not a gob of device rows"))

	memoized := func(store *hgw.MemoStore) []bool {
		t.Helper()
		var rep *hgw.RunReport
		all := append(append([]hgw.Option{}, opts...), hgw.WithShardMemo(store),
			hgw.WithRunReport(func(r *hgw.RunReport) { rep = r }))
		if _, err := hgw.Run(context.Background(), ids, all...); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(rep.Shards))
		for i, sh := range rep.Shards {
			out[i] = sh.Memoized
		}
		return out
	}
	if got := memoized(store); got[0] || got[1] {
		t.Fatalf("first run memoized = %v; want both shards executed", got)
	}
	if st := store.Stats(); st.MemHits != 0 || st.Misses != 2 {
		t.Fatalf("first run: %d memory hits, %d misses; want 0 and 2 (the undecodable blob is a miss)", st.MemHits, st.Misses)
	}
	if got := memoized(store); !got[0] || !got[1] {
		t.Fatalf("second run memoized = %v; want both shards served from memo", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := hgw.OpenMemo(hgw.MemoConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := memoized(reopened); !got[0] || !got[1] {
		t.Fatalf("run after reopening memoized = %v; want both shards served from disk", got)
	}
}

// TestMemoDeterminismMatrix extends the determinism matrix to the memo
// path (the tentpole's acceptance bar): memo-hit renders and device
// streams must be byte-identical to cold renders at any worker count.
func TestMemoDeterminismMatrix(t *testing.T) {
	ids := []string{"udp1", "udp3"}
	store, err := hgw.OpenMemo(hgw.MemoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := func(procs int, extra ...hgw.Option) []hgw.Option {
		o := []hgw.Option{hgw.WithSeed(11), hgw.WithIterations(1),
			hgw.WithFleet(96), hgw.WithShards(4), hgw.WithMaxProcs(procs)}
		return append(o, extra...)
	}

	coldRender, coldTrace := fleetTrace(t, ids, opts(1)...)

	// Priming run (cold, memo attached) must itself match the cold run.
	primeRender, primeTrace := fleetTrace(t, ids, opts(1, hgw.WithShardMemo(store))...)
	if primeRender != coldRender || primeTrace != coldTrace {
		t.Fatal("priming run with memo attached differs from the plain cold run")
	}

	procsList := []int{1, 2, 4, runtime.NumCPU()}
	for _, procs := range procsList {
		render, trace := fleetTrace(t, ids, opts(procs, hgw.WithShardMemo(store))...)
		if render != coldRender {
			t.Errorf("maxProcs=%d: memoized render differs from cold render", procs)
		}
		if trace != coldTrace {
			t.Errorf("maxProcs=%d: memoized device stream differs from cold stream", procs)
		}
	}
	st := store.Stats()
	if want := uint64(4 * len(procsList)); st.MemHits != want {
		t.Errorf("want %d memo hits (all shards, every matrix run), got %d", want, st.MemHits)
	}
	if st.Puts != 4 {
		t.Errorf("want the fleet executed exactly once (4 puts), got %d", st.Puts)
	}
}
