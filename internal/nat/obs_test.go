package nat

import (
	"testing"
	"time"

	"hgw/internal/obs"
	"hgw/internal/sim"
)

// TestDropReasonIndexFitsVec pins the drop registry inside the obs
// vector: if a new reason pushes past VecWidth, its counts fold into
// the clamp slot and this test points at the fix (widen obs.VecWidth).
func TestDropReasonIndexFitsVec(t *testing.T) {
	if len(AllDropReasons) > obs.VecWidth {
		t.Fatalf("%d drop reasons exceed obs.VecWidth %d; widen the vec", len(AllDropReasons), obs.VecWidth)
	}
	for i, r := range AllDropReasons {
		if r.Index() != i {
			t.Errorf("%q Index() = %d, want %d", r, r.Index(), i)
		}
	}
	if DropNone.Index() != -1 {
		t.Errorf("DropNone Index() = %d, want -1", DropNone.Index())
	}
	//hgwlint:allow droplint an unregistered reason is this test's subject: Index must reject it
	if unregistered := DropReason("no-such-reason"); unregistered.Index() != -1 {
		t.Errorf("unregistered reason Index() = %d, want -1", unregistered.Index())
	}
}

// TestObsCountersTrackEngine runs a small scripted engine and checks
// the registry mirrors what the engine's own accounting says happened:
// bindings created/expired balance the live gauge, drops land in the
// per-reason vector slot, and expired bindings leave a lifetime sample.
func TestObsCountersTrackEngine(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	e := newEng(s, Policy{UDP: UDPTimeouts{Outbound: 30 * time.Second, Inbound: 180 * time.Second, Bidir: 180 * time.Second}})

	outboundUDP(e, 5000, 7000) // binding+mapping 1
	outboundUDP(e, 5001, 7000) // binding+mapping 2
	outboundUDP(e, 5000, 7000) // refresh, translation only
	inboundUDP(e, 9999, 7000)  // no binding: drop
	s.Run(0)                   // expire both bindings at 30s

	snap := reg.Snapshot()
	if got := snap.Counters[obs.CNATTranslations]; got != 3 {
		t.Errorf("translations = %d, want 3", got)
	}
	if c, r := snap.Counters[obs.CNATBindingsCreated], snap.Counters[obs.CNATBindingsRemoved]; c != 2 || r != 2 {
		t.Errorf("bindings created/removed = %d/%d, want 2/2", c, r)
	}
	if got := snap.Counters[obs.CNATBindingsExpired]; got != 2 {
		t.Errorf("bindings expired = %d, want 2", got)
	}
	if got := snap.Counters[obs.CNATMappingsCreated]; got != 2 {
		t.Errorf("mappings created = %d, want 2", got)
	}
	if g := snap.Gauges[obs.GNATBindings]; g.Value != 0 || g.Peak != 2 {
		t.Errorf("bindings gauge = %+v, want value 0 peak 2", g)
	}
	if g := snap.Gauges[obs.GNATMappings]; g.Value != 0 || g.Peak != 2 {
		t.Errorf("mappings gauge = %+v, want value 0 peak 2", g)
	}
	if got, want := snap.Counters[obs.CNATDrops], uint64(1); got != want {
		t.Errorf("drops = %d, want %d", got, want)
	}
	if got := snap.Vecs[obs.VecNATDrops][DropUDPNoBinding.Index()]; got != 1 {
		t.Errorf("drop vec[%s] = %d, want 1", DropUDPNoBinding, got)
	}
	if e.Drops[DropUDPNoBinding] != 1 {
		t.Errorf("engine Drops[%s] = %d, want 1 (obs must mirror, not replace)", DropUDPNoBinding, e.Drops[DropUDPNoBinding])
	}
	h := snap.Histos[obs.HNATBindingLifetime]
	if h.Count != 2 {
		t.Errorf("lifetime samples = %d, want 2", h.Count)
	}
	if want := int64(2 * 30 * time.Second); h.SumNS != want {
		t.Errorf("lifetime sum = %d, want %d (two 30s bindings)", h.SumNS, want)
	}
}

// TestObsNilRegistryUnchangedBehavior re-runs the same script with no
// registry attached: the engine's sessions and drop counts must be
// identical, and nothing may panic — telemetry observes, it never
// influences.
func TestObsNilRegistryUnchangedBehavior(t *testing.T) {
	run := func(reg *obs.Registry) (int, map[DropReason]int) {
		s := sim.New(1)
		s.SetObs(reg)
		e := newEng(s, Policy{UDP: UDPTimeouts{Outbound: 30 * time.Second, Inbound: 180 * time.Second, Bidir: 180 * time.Second}})
		outboundUDP(e, 5000, 7000)
		outboundUDP(e, 5001, 7000)
		inboundUDP(e, 9999, 7000)
		s.Run(0)
		return len(e.byFlow), e.Drops
	}
	txOn, dropsOn := run(obs.NewRegistry())
	txOff, dropsOff := run(nil)
	if txOn != txOff {
		t.Errorf("sessions with/without obs: %d vs %d", txOn, txOff)
	}
	if len(dropsOn) != len(dropsOff) || dropsOn[DropUDPNoBinding] != dropsOff[DropUDPNoBinding] {
		t.Errorf("drop accounting diverges: %v vs %v", dropsOn, dropsOff)
	}
}
