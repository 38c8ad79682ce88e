package nat

import (
	"slices"
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// recyclePolicy folds every session of a client port onto one mapping
// (EIM), so mappings hold several sessions and extra session records
// come from the free list too.
var recyclePolicy = Policy{
	PortAlloc:           PortAllocPreserving,
	ReuseExpiredBinding: true,
	Mapping:             MappingEndpointIndependent,
	UDP:                 UDPTimeouts{Outbound: 30 * time.Second, Inbound: 30 * time.Second, Bidir: 30 * time.Second},
}

// recycleFlow is one outbound UDP flow of the recycling tests.
type recycleFlow struct {
	sport uint16
	dst   [4]byte
	dport uint16
}

func (f recycleFlow) key() flowKey {
	return flowOf(netpkt.ProtoUDP, client, f.sport, netpkt.Addr4(f.dst[0], f.dst[1], f.dst[2], f.dst[3]), f.dport)
}

// open sends the flow's datagram and returns its session.
func (f recycleFlow) open(t *testing.T, e *Engine) *Binding {
	t.Helper()
	outboundUDPTo(t, e, f.sport, f.dst, f.dport)
	b := e.byFlow[f.key()]
	if b == nil {
		t.Fatalf("flow %v has no session", f.key())
	}
	return b
}

// checkGone fails unless nothing in the engine still leads to the
// ended flow f through its flow key, its WAN-side key or its mapping.
func checkGone(t *testing.T, e *Engine, f recycleFlow, ext uint16) {
	t.Helper()
	k := f.key()
	if _, ok := e.byFlow[k]; ok {
		t.Errorf("flow %v still indexed by flow key", k)
	}
	if _, ok := e.byExt[k.wanKey(ext)]; ok {
		t.Errorf("flow %v still indexed by WAN key (ext %d)", k, ext)
	}
	if _, ok := e.mappings[e.mapKeyFor(k)]; ok {
		t.Errorf("flow %v's mapping still indexed", k)
	}
	if inboundUDPFrom(e, f.dst, f.dport, ext) {
		t.Errorf("inbound for ended flow %v translated", k)
	}
}

// checkLive fails unless each live session is indexed under its own
// keys only and its mapping's session list holds exactly the live
// sessions of that mapping.
func checkLive(t *testing.T, e *Engine, live []*Binding) {
	t.Helper()
	count := map[*Mapping]int{}
	for _, b := range live {
		if e.byFlow[b.flow] != b || e.byExt[b.flow.wanKey(b.ext)] != b {
			t.Errorf("session %v not indexed under its own keys", b.flow)
		}
		count[b.m]++
	}
	for _, b := range live {
		n := 0
		for s := b.m.sessions; s != nil; s = s.next {
			if s.m != b.m || !slices.Contains(live, s) {
				t.Errorf("mapping %d lists session %v, which is not one of its live sessions", b.m.ext, s.flow)
			}
			n++
		}
		if want := count[b.m]; n != want || b.m.n != want {
			t.Errorf("mapping %d lists %d sessions (n=%d), want %d", b.m.ext, n, b.m.n, want)
		}
	}
	if got := len(e.byFlow); got != len(live) {
		t.Errorf("%d sessions live, want %d", got, len(live))
	}
}

// checkTimers runs the simulator to just before the live sessions'
// deadline and then past it: an old occupant's timer would end a
// recycled record early, and the new occupant's must end it on time.
func checkTimers(t *testing.T, s *sim.Sim, e *Engine, live []*Binding, deadline sim.Time) {
	t.Helper()
	s.Run(deadline - 1)
	checkLive(t, e, live)
	s.Run(deadline)
	if n := len(e.byFlow); n != 0 {
		t.Errorf("%d sessions outlived their deadline %v", n, deadline)
	}
}

var (
	oldFlows = []recycleFlow{{5000, dstA, 7000}, {5000, dstB, 7000}, {5001, dstA, 7000}}
	newFlows = []recycleFlow{{6000, dstB, 8000}, {6000, dstA, 8000}, {6001, dstB, 8000}}
)

// TestRecycledSessionAfterExpiry: once sessions expire, their records
// serve new flows, and none of the new sessions can be reached through
// an old flow key, WAN key, mapping list or timer.
func TestRecycledSessionAfterExpiry(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, recyclePolicy)
	old := map[*Binding]uint16{}
	for _, f := range oldFlows {
		b := f.open(t, e)
		old[b] = b.ext
	}
	// Refresh one session so its timer has moved in place.
	s.Run(10 * time.Second)
	oldFlows[0].open(t, e)
	s.Run(time.Minute) // the queue drains at 40 s: the clock stops there
	if n := len(e.byFlow); n != 0 {
		t.Fatalf("%d sessions survived expiry", n)
	}

	var live []*Binding
	for _, f := range newFlows {
		b := f.open(t, e)
		if _, ok := old[b]; !ok {
			t.Errorf("new flow %v got a fresh record, want a recycled one", b.flow)
		}
		live = append(live, b)
	}
	for i, f := range oldFlows {
		checkGone(t, e, f, old[e.byFlow[newFlows[i].key()]])
	}
	checkLive(t, e, live)
	checkTimers(t, s, e, live, s.Now()+30*time.Second)
}

// TestRecycledSessionAfterWipe: WipeBindings returns every record with
// its timer still pending; the recycled records must not be reached
// through the wiped sessions' keys, mapping lists or timers.
func TestRecycledSessionAfterWipe(t *testing.T) {
	s, reg := sim.New(1), obs.NewRegistry()
	s.SetObs(reg)
	e := newEng(s, recyclePolicy)
	old := map[*Binding]uint16{}
	var exts []uint16
	for _, f := range oldFlows {
		b := f.open(t, e)
		old[b] = b.ext
		exts = append(exts, b.ext)
	}
	s.Run(10 * time.Second)
	oldFlows[0].open(t, e) // moves its timer to 40 s in place
	if n := e.WipeBindings(); n != len(oldFlows) {
		t.Fatalf("wiped %d sessions, want %d", n, len(oldFlows))
	}
	c := reg.Snapshot().Counters
	if n := c[obs.CSimEventsScheduled] - c[obs.CSimEventsFired] - c[obs.CSimEventsCanceled]; n != 0 {
		t.Fatalf("%d timers pending after the wipe, want 0", n)
	}

	// New sessions at 10 s end at 40 s; the wiped ones were due at
	// 30 s and 40 s.
	var live []*Binding
	for _, f := range newFlows {
		b := f.open(t, e)
		if _, ok := old[b]; !ok {
			t.Errorf("new flow %v got a fresh record, want a recycled one", b.flow)
		}
		live = append(live, b)
	}
	for i, f := range oldFlows {
		checkGone(t, e, f, exts[i])
	}
	checkLive(t, e, live)
	checkTimers(t, s, e, live, 40*time.Second)
}
