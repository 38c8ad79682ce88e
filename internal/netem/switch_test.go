package netem

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// refSwitch is the map-based learning switch that Switch replaced: all
// ports in one slice sorted by VLAN, and one FDB map keyed by (VLAN,
// MAC). The reference test replays the same traffic through both.
type refSwitch struct {
	ports []*Iface
	table map[refKey]*Iface
	pool  *netpkt.Pool
}

type refKey struct {
	vlan uint16
	mac  netpkt.MAC
}

func (sw *refSwitch) addPort(vlan uint16) *Iface {
	port := &Iface{VLAN: vlan}
	port.Recv = func(f *netpkt.Frame) { sw.forward(port, f) }
	_, end := sw.vlanPorts(vlan)
	sw.ports = slices.Insert(sw.ports, end, port)
	return port
}

func (sw *refSwitch) vlanPorts(vlan uint16) (lo, hi int) {
	lo = sort.Search(len(sw.ports), func(i int) bool { return sw.ports[i].VLAN >= vlan })
	hi = sort.Search(len(sw.ports), func(i int) bool { return sw.ports[i].VLAN > vlan })
	return lo, hi
}

func (sw *refSwitch) forward(in *Iface, f *netpkt.Frame) {
	vlan := in.VLAN
	if !f.Src.IsZero() && !f.Src.IsBroadcast() {
		sw.table[refKey{vlan, f.Src}] = in
	}
	if !f.Dst.IsBroadcast() {
		if out, ok := sw.table[refKey{vlan, f.Dst}]; ok {
			if out != in {
				out.Send(f)
			} else {
				sw.pool.PutBuf(f.Payload)
				sw.pool.PutFrame(f)
			}
			return
		}
	}
	lo, hi := sw.vlanPorts(vlan)
	members := sw.ports[lo:hi]
	if n := len(members); n > 0 && members[n-1] == in {
		members = members[:n-1]
	}
	if len(members) == 0 {
		sw.pool.PutBuf(f.Payload)
		sw.pool.PutFrame(f)
		return
	}
	last := len(members) - 1
	for _, p := range members[:last] {
		if p != in {
			p.Send(f.Clone(sw.pool))
		}
	}
	members[last].Send(f)
}

// switchRig drives one switch implementation: ports in creation order,
// each port's transmissions logged by port index and recycled.
type switchRig struct {
	ports []*Iface
	log   []int
	pool  *netpkt.Pool
}

func (r *switchRig) add(port *Iface) {
	idx := len(r.ports)
	port.send = func(f *netpkt.Frame) {
		r.log = append(r.log, idx)
		r.pool.PutBuf(f.Payload)
		r.pool.PutFrame(f)
	}
	r.ports = append(r.ports, port)
}

// offer hands a fresh frame to port i and returns the ports it left
// by, in order; empty means the switch dropped it.
func (r *switchRig) offer(i int, src, dst netpkt.MAC) []int {
	r.log = r.log[:0]
	f := r.pool.GetFrame()
	f.Src, f.Dst, f.Type = src, dst, netpkt.EtherTypeIPv4
	f.Payload = append(r.pool.GetBuf(4), "data"...)
	r.ports[i].Recv(f)
	return slices.Clone(r.log)
}

// TestSwitchMatchesMapReference replays random port layouts and frame
// sequences through Switch and the map-based reference: every frame
// must leave by the same ports in the same order (or be dropped by
// both), and the FDB sizes must agree after every frame. The MAC pool
// is small, so addresses move between ports, sources repeat on both
// sides of a VLAN (the same-MAC quirk), destinations are often still
// unknown, and some frames are broadcast or carry a zero source.
func TestSwitchMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	macs := []netpkt.MAC{{}, netpkt.BroadcastMAC}
	for i := 1; i <= 6; i++ {
		macs = append(macs, netpkt.MAC{2, 0, 0, 0, 0, byte(i)})
	}
	for trial := 0; trial < 200; trial++ {
		s := sim.New(1)
		sw := NewSwitch(s, "sw")
		ref := &refSwitch{table: map[refKey]*Iface{}, pool: s.Pool()}
		got, want := switchRig{pool: s.Pool()}, switchRig{pool: s.Pool()}
		nports := 1 + rng.Intn(8)
		for i := 0; i < nports; i++ {
			vlan := uint16(1 + rng.Intn(3))
			got.add(sw.AddPort(vlan))
			want.add(ref.addPort(vlan))
		}
		for step := 0; step < 60; step++ {
			i := rng.Intn(nports)
			src, dst := macs[rng.Intn(len(macs))], macs[rng.Intn(len(macs))]
			g, w := got.offer(i, src, dst), want.offer(i, src, dst)
			if !slices.Equal(g, w) {
				t.Fatalf("trial %d step %d: frame %v->%v on port %d left by ports %v, reference %v",
					trial, step, src, dst, i, g, w)
			}
			if n := fdbSize(sw); n != len(ref.table) {
				t.Fatalf("trial %d step %d: FDB size %d, reference %d", trial, step, n, len(ref.table))
			}
		}
	}
}

// forwardPair is the testbed's VLAN layout: two ports, both addresses
// learned, so every frame takes the unicast path.
func forwardPair() (ports [2]*Iface, frames [2]*netpkt.Frame) {
	sw := NewSwitch(sim.New(1), "sw0")
	for v := uint16(1); v <= 64; v++ {
		// Other VLANs on the switch, as on a shard's switch.
		sw.AddPort(v)
		sw.AddPort(v)
	}
	ports = [2]*Iface{sw.AddPort(100), sw.AddPort(100)}
	macs := [2]netpkt.MAC{{2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}}
	for i := range frames {
		frames[i] = &netpkt.Frame{Src: macs[i], Dst: macs[1-i]}
		ports[i].Recv(&netpkt.Frame{Src: macs[i], Dst: netpkt.BroadcastMAC})
	}
	return ports, frames
}

// TestAllocsSwitchForward pins a learned unicast frame's trip through
// the switch (learning its source, finding its destination) at zero
// allocations.
func TestAllocsSwitchForward(t *testing.T) {
	ports, frames := forwardPair()
	if n := testing.AllocsPerRun(100, func() {
		ports[0].Recv(frames[0])
		ports[1].Recv(frames[1])
	}); n != 0 {
		t.Fatalf("unicast forwarding allocates %.1f objects per frame pair, want 0", n)
	}
}

// BenchmarkSwitchForward times one learned unicast frame through a
// 2-port VLAN on a switch with other VLANs: the per-frame learn and
// lookup every testbed packet pays at each switch it crosses. The
// ports are not linked, so only the forwarding decision is measured.
func BenchmarkSwitchForward(b *testing.B) {
	ports, frames := forwardPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ports[i&1].Recv(frames[i&1])
	}
}
