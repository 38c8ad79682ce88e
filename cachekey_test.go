package hgw_test

import (
	"errors"
	"testing"

	"hgw"
)

func TestCacheKeyCanonicalization(t *testing.T) {
	base, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}

	same := []struct {
		name string
		ids  []string
		opts []hgw.Option
	}{
		{"alias resolves", []string{"tcp3"}, nil},
		{"duplicates dedupe", []string{"tcp2", "tcp2"}, nil},
		{"whitespace trims", []string{" tcp2 "}, nil},
		{"zero options take defaults", []string{"tcp2"}, []hgw.Option{hgw.WithIterations(0)}},
		{"explicit defaults match", []string{"tcp2"}, []hgw.Option{hgw.WithIterations(5)}},
	}
	canonical, err := hgw.CacheKey([]string{"tcp2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range same {
		got, err := hgw.CacheKey(tc.ids, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != canonical {
			t.Errorf("%s: key %s != canonical %s", tc.name, got, canonical)
		}
	}

	different := []struct {
		name string
		ids  []string
		opts []hgw.Option
	}{
		{"different id", []string{"udp2"}, []hgw.Option{hgw.WithSeed(1)}},
		{"different seed", []string{"udp1"}, []hgw.Option{hgw.WithSeed(2)}},
		{"id order matters", []string{"udp2", "udp1"}, []hgw.Option{hgw.WithSeed(1)}},
		{"tags matter", []string{"udp1"}, []hgw.Option{hgw.WithSeed(1), hgw.WithTags("je")}},
		{"iterations matter", []string{"udp1"}, []hgw.Option{hgw.WithSeed(1), hgw.WithIterations(9)}},
		{"fleet matters", []string{"udp1"}, []hgw.Option{hgw.WithSeed(1), hgw.WithFleet(10)}},
		{"shards matter", []string{"udp1"}, []hgw.Option{hgw.WithSeed(1), hgw.WithFleet(10), hgw.WithShards(2)}},
	}
	seen := map[string]string{base: "base"}
	for _, tc := range different {
		got, err := hgw.CacheKey(tc.ids, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: key collides with %s", tc.name, prev)
		}
		seen[got] = tc.name
	}
	// udp1+udp2 in either order: both valid, but distinct keys because
	// results come back in request order and fault plans seed-split by
	// experiment index.
	ab, _ := hgw.CacheKey([]string{"udp1", "udp2"}, hgw.WithSeed(1))
	ba, _ := hgw.CacheKey([]string{"udp2", "udp1"}, hgw.WithSeed(1))
	if ab == ba {
		t.Error("id order canonicalized away; result order depends on it")
	}
}

// TestCacheKeyIgnoresMaxProcs proves hit-equivalence across core
// counts: inventory experiments and fleet shards each run in a sealed
// domain and render byte-identically at any maxProcs, so hgwd must
// answer the same job submitted from differently-sized machines out of
// one cache entry.
func TestCacheKeyIgnoresMaxProcs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []hgw.Option
	}{
		{"inventory", []hgw.Option{hgw.WithSeed(1), hgw.WithTags("je", "owrt")}},
		{"fleet", []hgw.Option{hgw.WithSeed(1), hgw.WithFleet(64), hgw.WithShards(4)}},
	} {
		base, err := hgw.CacheKey([]string{"udp1", "udp2"}, mode.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 64} {
			opts := append(append([]hgw.Option{}, mode.opts...), hgw.WithMaxProcs(procs))
			got, err := hgw.CacheKey([]string{"udp1", "udp2"}, opts...)
			if err != nil {
				t.Fatalf("%s maxprocs %d: %v", mode.name, procs, err)
			}
			if got != base {
				t.Errorf("%s maxprocs %d: key %s != base %s; identical jobs would miss the cache",
					mode.name, procs, got, base)
			}
		}
	}
	// The knobs that do change fleet output still change the key.
	base, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithFleet(64), hgw.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithFleet(64), hgw.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if shards == base {
		t.Error("shard count canonicalized away; it decides the device partition")
	}
}

// TestCacheKeyFaults: an empty fault spec hashes exactly like no fault
// spec at all (every pre-fault client keeps its content address), while
// any enabled spec changes the key — faulted output is different output.
func TestCacheKeyFaults(t *testing.T) {
	base, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithFaults(hgw.FaultSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if empty != base {
		t.Error("zero FaultSpec changed the cache key; pre-fault clients lose their cache entries")
	}
	faulted, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithFaults(hgw.FaultSpec{Rate: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if faulted == base {
		t.Error("fault rate canonicalized away; faulted runs would share unfaulted cache entries")
	}
	// The blanket rate hashes like its explicit per-class fan-out, and
	// distinct rates hash distinctly.
	fanned, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithFaults(hgw.FaultSpec{
		Flaps: 0.1, LossWindows: 0.1, Corrupts: 0.1, Blackholes: 0.1, Reboots: 0.1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if fanned != faulted {
		t.Error("Rate 0.1 does not hash like its per-class expansion")
	}
	other, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithFaults(hgw.FaultSpec{Rate: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	if other == faulted {
		t.Error("distinct fault rates share a key")
	}
	// Retries change probe schedules, so they change the key too — but
	// the zero default does not.
	retried, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	if retried == base {
		t.Error("retry budget canonicalized away")
	}
	zeroRetry, err := hgw.CacheKey([]string{"udp1"}, hgw.WithSeed(1), hgw.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if zeroRetry != base {
		t.Error("WithRetries(0) changed the key; the default is retry-free")
	}
}

func TestCacheKeyDefaultIDs(t *testing.T) {
	empty, err := hgw.CacheKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := hgw.CacheKey(hgw.DefaultIDs())
	if err != nil {
		t.Fatal(err)
	}
	if empty != explicit {
		t.Error("empty id list does not hash like DefaultIDs")
	}
	fleetEmpty, err := hgw.CacheKey(nil, hgw.WithFleet(8))
	if err != nil {
		t.Fatal(err)
	}
	fleetExplicit, err := hgw.CacheKey(hgw.FleetIDs(), hgw.WithFleet(8))
	if err != nil {
		t.Fatal(err)
	}
	if fleetEmpty != fleetExplicit {
		t.Error("empty fleet id list does not hash like FleetIDs")
	}
}

func TestCacheKeyUnknownID(t *testing.T) {
	_, err := hgw.CacheKey([]string{"nosuch"})
	if !errors.Is(err, hgw.ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
}
