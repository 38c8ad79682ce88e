package fault

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
	"hgw/internal/testbed"
)

func TestCompileDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Nodes: 16, Flaps: 1.5, LossWindows: 0.5,
		Corrupts: 0.25, Blackholes: 0.1, Reboots: 2}
	a := Compile(spec)
	b := Compile(spec)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("equal specs compiled to different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("no events drawn from a non-zero spec")
	}
	// Different seeds must draw different schedules (16 nodes × ~4
	// events each makes a collision astronomically unlikely).
	c := Compile(Spec{Seed: 43, Nodes: 16, Flaps: 1.5, LossWindows: 0.5,
		Corrupts: 0.25, Blackholes: 0.1, Reboots: 2})
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds compiled to identical plans")
	}
}

func TestCompileEventsSortedWithinHorizon(t *testing.T) {
	p := Compile(Spec{Seed: 7, Nodes: 8, Flaps: 2, Reboots: 1,
		Horizon: 3 * time.Minute})
	for i, ev := range p.Events {
		if ev.At < 0 || ev.At >= 3*time.Minute {
			t.Fatalf("event %d at %v outside horizon", i, ev.At)
		}
		if i == 0 {
			continue
		}
		prev := p.Events[i-1]
		if ev.At < prev.At {
			t.Fatalf("events unsorted at %d: %v after %v", i, ev.At, prev.At)
		}
	}
}

func TestCompileIntegerRatesAreExact(t *testing.T) {
	p := Compile(Spec{Seed: 3, Nodes: 5, Reboots: 2})
	if len(p.Events) != 10 {
		t.Fatalf("5 nodes × rate 2 drew %d events, want exactly 10", len(p.Events))
	}
	for _, ev := range p.Events {
		if ev.Kind != KindReboot {
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
}

// TestPlanSeedOffShardLattice checks the seed-split independence claim:
// plan seeds never collide with testbed shard seeds, for any pair of
// shard indices in a large fleet.
func TestPlanSeedOffShardLattice(t *testing.T) {
	const seed = 1
	shardSeeds := map[int64]bool{}
	for i := 0; i < 4096; i++ {
		shardSeeds[testbed.ShardSeed(seed, i)] = true
	}
	for i := 0; i < 4096; i++ {
		if ps := PlanSeed(seed, i); shardSeeds[ps] {
			t.Fatalf("PlanSeed(%d, %d) = %d collides with a shard seed", seed, i, ps)
		}
	}
	if PlanSeed(seed, 0) == PlanSeed(seed, 1) {
		t.Fatal("plan seeds not index-distinct")
	}
}

// TestTestbedPlanSeedDistinct checks that the testbeds of a Standalone
// experiment draw plans no other domain of the run draws: across 64
// experiment positions with up to 256 testbeds each (tcp2 over the 34
// devices builds 102), every testbed seed differs from every other and
// from every shared-testbed experiment's PlanSeed.
func TestTestbedPlanSeedDistinct(t *testing.T) {
	const seed = 1
	seen := map[int64]string{}
	for i := 0; i < 64; i++ {
		seen[PlanSeed(seed, i)] = fmt.Sprintf("PlanSeed(%d)", i)
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < 256; j++ {
			ps := TestbedPlanSeed(seed, i, j)
			if prev, dup := seen[ps]; dup {
				t.Fatalf("TestbedPlanSeed(%d, %d) = %d collides with %s", i, j, ps, prev)
			}
			seen[ps] = fmt.Sprintf("TestbedPlanSeed(%d, %d)", i, j)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindFlap: "flap", KindLoss: "loss",
		KindCorrupt: "corrupt", KindBlackhole: "blackhole", KindReboot: "reboot"}
	//hgwlint:allow detlint per-kind assertions commute; any visit order fails the same way
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// faultLink wires a two-iface link whose b side counts deliveries.
func faultLink(s *sim.Sim) (a *netem.Iface, got *int, l *netem.Link) {
	a = &netem.Iface{Name: "a", MAC: netpkt.MAC{2, 0, 0, 0, 0, 1}}
	b := &netem.Iface{Name: "b", MAC: netpkt.MAC{2, 0, 0, 0, 0, 2}}
	n := new(int)
	b.Recv = func(f *netpkt.Frame) { *n++ }
	l = netem.Connect(s, a, b, netem.LinkConfig{})
	return a, n, l
}

func TestInjectorFlapDownsLink(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	a, got, l := faultLink(s)
	p := &Plan{spec: Spec{}.withDefaults(),
		Events: []Event{{At: time.Second, Node: 0, Kind: KindFlap}}}
	p.Install(s, []NodeFaults{{WAN: l}})

	// Before, during and after the down window from 1s.
	s.After(500*time.Millisecond, func() { a.Send(&netpkt.Frame{}) })
	s.After(time.Second+flapDown/2, func() { a.Send(&netpkt.Frame{}) })
	s.After(2*time.Second+flapDown, func() { a.Send(&netpkt.Frame{}) })
	s.Run(0)
	if *got != 2 {
		t.Fatalf("delivered %d frames, want 2 (one shed in the down window)", *got)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CFaultLinkFlaps] != 1 {
		t.Fatalf("flap counter = %d, want 1", snap.Counters[obs.CFaultLinkFlaps])
	}
	if snap.Counters[obs.CFaultFramesDropped] != 1 {
		t.Fatalf("fault drop counter = %d, want 1", snap.Counters[obs.CFaultFramesDropped])
	}
}

// TestInjectorNestedWindows checks that overlapping down windows keep
// the link down until the LAST one closes.
func TestInjectorNestedWindows(t *testing.T) {
	s := sim.New(1)
	a, got, l := faultLink(s)
	p := &Plan{spec: Spec{}.withDefaults(), Events: []Event{
		{At: 1 * time.Second, Node: 0, Kind: KindFlap},      // down 1s..1s+flapDown
		{At: 2 * time.Second, Node: 0, Kind: KindBlackhole}, // down 2s..2s+blackholeDur
	}}
	p.Install(s, []NodeFaults{{WAN: l}})
	s.After(2*time.Second+flapDown, func() { a.Send(&netpkt.Frame{}) })     // flap closed, blackhole open
	s.After(3*time.Second+blackholeDur, func() { a.Send(&netpkt.Frame{}) }) // all closed
	s.Run(0)
	if *got != 1 {
		t.Fatalf("delivered %d, want 1: link must stay down until the last window closes", *got)
	}
}

func TestInjectorLossWindowDeterministic(t *testing.T) {
	run := func() (delivered, drops int) {
		s, reg := sim.New(1), obs.NewRegistry()
		s.SetObs(reg)
		a, got, l := faultLink(s)
		p := Compile(Spec{Seed: 9, Nodes: 1})
		p.Events = []Event{{At: 0, Node: 0, Kind: KindLoss}}
		p.spec.LossP = 0.5
		p.Install(s, []NodeFaults{{WAN: l}})
		for i := 0; i < 100; i++ {
			d := time.Duration(i) * time.Millisecond
			s.After(d, func() { a.Send(&netpkt.Frame{}) })
		}
		s.Run(0)
		return *got, int(reg.Snapshot().Counters[obs.CFaultFramesDropped])
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("loss draws not deterministic: %d/%d vs %d/%d", d1, x1, d2, x2)
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("p=0.5 over 100 frames shed %d and delivered %d; both must be non-zero", x1, d1)
	}
	if d1+x1 != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", d1, x1)
	}
}

func TestInjectorRebootCallback(t *testing.T) {
	s := sim.New(1)
	var gotDowntime time.Duration
	calls := 0
	p := &Plan{spec: Spec{}.withDefaults(),
		Events: []Event{{At: time.Second, Node: 0, Kind: KindReboot}}}
	p.Install(s, []NodeFaults{{Reboot: func(d time.Duration) { calls++; gotDowntime = d }}})
	s.Run(0)
	if calls != 1 || gotDowntime != rebootDown {
		t.Fatalf("reboot fired %d times with downtime %v, want once with %v", calls, gotDowntime, rebootDown)
	}
}

// TestInstallSkipsOutOfRangeNodes: a plan compiled for a larger fleet
// installs cleanly on a shard's node slice.
func TestInstallSkipsOutOfRangeNodes(t *testing.T) {
	s := sim.New(1)
	p := &Plan{spec: Spec{}.withDefaults(), Events: []Event{
		{At: time.Second, Node: 5, Kind: KindReboot},
		{At: time.Second, Node: 0, Kind: KindReboot},
	}}
	calls := 0
	p.Install(s, []NodeFaults{{Reboot: func(time.Duration) { calls++ }}})
	s.Run(0)
	if calls != 1 {
		t.Fatalf("fired %d reboots, want 1 (node 5 is out of range)", calls)
	}
}
