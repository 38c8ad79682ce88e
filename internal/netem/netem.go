// Package netem emulates the testbed's physical layer on the simulator:
// full-duplex Ethernet links with configurable rate, propagation delay
// and drop-tail transmit queues, and VLAN-partitioned learning switches
// (the HP-2524s of the paper's Figure 1).
package netem

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// Iface is a network attachment point: one side belongs to its owner (a
// host stack, a gateway, or a switch), the other side to a Link.
type Iface struct {
	Name string
	MAC  netpkt.MAC
	VLAN uint16 // access VLAN when plugged into a switch port; 0 = untagged/any

	// Recv is invoked (in scheduler context) when a frame arrives from
	// the link. The owner must set it before traffic flows.
	Recv func(*netpkt.Frame)

	// send is installed by Link when the interface is attached.
	send func(*netpkt.Frame)

	// Tap, if set, observes every frame sent and received by this
	// interface. dir is "tx" or "rx".
	Tap func(dir string, f *netpkt.Frame)
}

// Send transmits a frame onto the attached link. Frames sent on a
// detached interface are dropped silently (cable unplugged).
func (i *Iface) Send(f *netpkt.Frame) {
	if i.Tap != nil {
		i.Tap("tx", f)
	}
	if i.send != nil {
		i.send(f)
	}
}

func (i *Iface) deliver(f *netpkt.Frame) {
	if i.Tap != nil {
		i.Tap("rx", f)
	}
	if i.Recv != nil {
		i.Recv(f)
	}
}

// LinkConfig parameterises one Link. The zero value is replaced by
// DefaultLinkConfig.
type LinkConfig struct {
	// Rate is the line rate in bits per second (default 100 Mb/s,
	// matching the paper's testbed).
	Rate float64
	// Delay is the one-way propagation delay (default 5 µs).
	Delay time.Duration
	// QueueBytes bounds each direction's transmit queue (default 64 KB).
	QueueBytes int
}

// DefaultLinkConfig is the paper's testbed link: 100 Mb/s Ethernet.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Rate: 100e6, Delay: 5 * time.Microsecond, QueueBytes: 64 * 1024}
}

func (c LinkConfig) withDefaults() LinkConfig {
	d := DefaultLinkConfig()
	if c.Rate <= 0 {
		c.Rate = d.Rate
	}
	if c.Delay <= 0 {
		c.Delay = d.Delay
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = d.QueueBytes
	}
	return c
}

// Link is a full-duplex point-to-point link between two interfaces.
type Link struct {
	ab  *pipe
	ba  *pipe
	flt linkFault
}

// linkFault is the injected-fault state shared by both directions of a
// link. Faults act at frame-admission time (before serialization), so a
// downed or lossy link sheds load without perturbing the transmit
// machinery's event sequence for the frames that do pass.
type linkFault struct {
	down     bool
	lossP    float64
	corruptP float64
	// rng drives per-frame loss/corruption draws. It is injector-owned
	// and separate from the simulator rng, so fault draws never shift
	// the draw sequence seen by non-fault consumers of sim.Rand.
	rng *rand.Rand
}

// SetDown forces the link administratively down (both directions).
// Frames offered while down are counted (fault_frames_dropped) and
// recycled, exactly like queue drops. Fault windows nest in the caller
// (the fault injector); the link itself is a plain switch.
func (l *Link) SetDown(down bool) { l.flt.down = down }

// SetLoss sets the per-frame drop probability (both directions). A
// probability > 0 requires a fault rng (SetFaultRand); without one the
// link stays lossless.
func (l *Link) SetLoss(p float64) { l.flt.lossP = p }

// SetCorrupt sets the per-frame corruption probability (both
// directions). Corrupted frames are delivered with one payload byte
// flipped, modeling the paper's flaky in-home wiring.
func (l *Link) SetCorrupt(p float64) { l.flt.corruptP = p }

// SetFaultRand installs the rng that drives per-frame loss and
// corruption draws. The injector hands every link its own seeded
// stream, keeping equal-seed runs byte-identical at any worker count.
func (l *Link) SetFaultRand(r *rand.Rand) { l.flt.rng = r }

// faultFilter applies the link's fault state to an offered frame.
// It reports true when the frame was consumed (dropped and recycled).
func (p *pipe) faultFilter(f *netpkt.Frame) bool {
	flt := p.flt
	if flt == nil || (!flt.down && flt.lossP <= 0 && flt.corruptP <= 0) {
		return false
	}
	if flt.down || (flt.lossP > 0 && flt.rng != nil && flt.rng.Float64() < flt.lossP) {
		p.s.Obs().Inc(obs.CFaultFramesDropped)
		pool := p.s.Pool()
		pool.PutBuf(f.Payload)
		pool.PutFrame(f)
		return true
	}
	if flt.corruptP > 0 && flt.rng != nil && flt.rng.Float64() < flt.corruptP && len(f.Payload) > 0 {
		f.Payload[len(f.Payload)-1] ^= 0xff
	}
	return false
}

// pipe is one direction of a link: a drop-tail FIFO transmitter and a
// propagation delay. A frame starts serializing at the later of its
// arrival and the previous frame's finish (Lindley's recursion), so
// send schedules a frame's one event, its delivery, when it admits the
// frame. The cached callback and one FIFO keep a hop allocation-free.
type pipe struct {
	s   *sim.Sim
	cfg LinkConfig
	dst *Iface

	free  sim.Time                // when the last admitted frame finishes serializing
	propq sim.FIFO[*netpkt.Frame] // admitted, undelivered frames in delivery order
	// propq's last waiting frames, queued bytes in all, had not started
	// serializing when last looked at; the oldest of them starts at next.
	waiting, queued int
	next            sim.Time

	flt *linkFault // shared with the owning Link's other direction

	deliverFn func()
}

func newPipe(s *sim.Sim, cfg LinkConfig, dst *Iface) *pipe {
	p := &pipe{s: s, cfg: cfg, dst: dst}
	p.deliverFn = p.deliverHead
	return p
}

// Connect wires a and b together with the given configuration and
// returns the link.
func Connect(s *sim.Sim, a, b *Iface, cfg LinkConfig) *Link {
	cfg = cfg.withDefaults()
	l := &Link{}
	l.ab = newPipe(s, cfg, b)
	l.ba = newPipe(s, cfg, a)
	l.ab.flt = &l.flt
	l.ba.flt = &l.flt
	a.send = l.ab.send
	b.send = l.ba.send
	return l
}

// send admits f unless it must wait and the bytes waiting to start
// serializing would then exceed the queue bound.
func (p *pipe) send(f *netpkt.Frame) {
	if p.faultFilter(f) {
		return
	}
	now := p.s.Now()
	p.dequeue(now)
	start := max(now, p.free)
	if start > now {
		if p.queued+f.Len() > p.cfg.QueueBytes {
			// Nobody saw the frame die: recycle it.
			pool := p.s.Pool()
			pool.PutBuf(f.Payload)
			pool.PutFrame(f)
			return
		}
		if p.waiting == 0 {
			p.next = start
		}
		p.waiting++
		p.queued += f.Len()
	}
	p.free = start + p.txTime(f)
	p.propq.Push(f)
	p.s.At(p.free+p.cfg.Delay, p.deliverFn)
}

// dequeue retires the waiting frames that have started serializing by
// now; each starts when the one before it finishes.
func (p *pipe) dequeue(now sim.Time) {
	for p.waiting > 0 && p.next <= now {
		f := p.propq.At(p.propq.Len() - p.waiting)
		p.waiting--
		p.queued -= f.Len()
		p.next += p.txTime(f)
	}
}

// txTime is f's serialization time at the line rate, at least 1 ns.
func (p *pipe) txTime(f *netpkt.Frame) time.Duration {
	return max(time.Duration(float64(f.Len()*8)/p.cfg.Rate*float64(time.Second)), time.Nanosecond)
}

// deliverHead hands the oldest frame to the destination. It started
// serializing before now, so dequeue first retires it if still waiting.
func (p *pipe) deliverHead() {
	p.dequeue(p.s.Now())
	p.dst.deliver(p.propq.Pop())
}

// Switch is a VLAN-partitioned learning Ethernet switch. Each port has
// an access VLAN; frames are forwarded only among ports of the same
// VLAN. Unknown destinations and broadcasts flood the VLAN.
type Switch struct {
	s      *sim.Sim
	name   string
	nports int
	// vlans holds one group per VLAN, sorted by VLAN id. A port finds
	// its group once, at AddPort; forwarding never looks it up.
	vlans []*vlanGroup
}

// vlanGroup is one VLAN of a switch: its member ports, in AddPort
// order, and the MAC addresses learned on them. Every testbed VLAN has
// two ports and learns a few addresses, so learning and lookup scan
// fdb instead of hashing a (VLAN, MAC) key per frame.
type vlanGroup struct {
	vlan    uint16
	members []*Iface
	fdb     []fdbEntry
	pool    *netpkt.Pool // the switch's domain pool
}

// fdbEntry is one learned address and the port it was last seen on.
type fdbEntry struct {
	mac  netpkt.MAC
	port *Iface
}

// NewSwitch creates a switch with no ports.
func NewSwitch(s *sim.Sim, name string) *Switch {
	return &Switch{s: s, name: name}
}

// AddPort creates a new access port on the given VLAN and returns its
// interface, ready to be linked to a host interface. A port's VLAN is
// fixed when it is added.
func (sw *Switch) AddPort(vlan uint16) *Iface {
	port := &Iface{
		Name: fmt.Sprintf("%s.p%d", sw.name, sw.nports),
		VLAN: vlan,
	}
	sw.nports++
	k := sort.Search(len(sw.vlans), func(i int) bool { return sw.vlans[i].vlan >= vlan })
	if k == len(sw.vlans) || sw.vlans[k].vlan != vlan {
		sw.vlans = slices.Insert(sw.vlans, k, &vlanGroup{vlan: vlan, pool: sw.s.Pool()})
	}
	g := sw.vlans[k]
	g.members = append(g.members, port)
	port.Recv = func(f *netpkt.Frame) { g.forward(port, f) }
	return port
}

// lookup returns the port mac was last learned on, or nil.
func (g *vlanGroup) lookup(mac netpkt.MAC) *Iface {
	for i := range g.fdb {
		if g.fdb[i].mac == mac {
			return g.fdb[i].port
		}
	}
	return nil
}

// learn records that mac was seen on port.
func (g *vlanGroup) learn(mac netpkt.MAC, port *Iface) {
	for i := range g.fdb {
		if g.fdb[i].mac == mac {
			g.fdb[i].port = port
			return
		}
	}
	g.fdb = append(g.fdb, fdbEntry{mac, port})
}

func (g *vlanGroup) forward(in *Iface, f *netpkt.Frame) {
	// Learn the source address. The paper notes some gateways use the
	// same MAC on WAN and LAN ports, which corrupts the FDB when both
	// sides share a switch; VLAN partitioning keeps the entries distinct
	// only if the device is plugged into different VLANs.
	if !f.Src.IsZero() && !f.Src.IsBroadcast() {
		g.learn(f.Src, in)
	}
	if !f.Dst.IsBroadcast() {
		if out := g.lookup(f.Dst); out != nil {
			if out != in {
				out.Send(f)
			} else {
				// Destination learned on the ingress port (same-MAC
				// quirk): the frame dies here unparsed.
				g.pool.PutBuf(f.Payload)
				g.pool.PutFrame(f)
			}
			return
		}
	}
	// Flood the VLAN. Only fan-out beyond one port needs copies: the
	// last member port gets the original frame (last, so that the
	// per-port delivery order — and therefore the event sequence — is
	// identical to the clone-everything behavior).
	members := g.members
	if n := len(members); n > 0 && members[n-1] == in {
		members = members[:n-1]
	}
	if len(members) == 0 {
		// No member ports: the frame dies here.
		g.pool.PutBuf(f.Payload)
		g.pool.PutFrame(f)
		return
	}
	last := len(members) - 1
	for _, p := range members[:last] {
		if p != in {
			p.Send(f.Clone(g.pool))
		}
	}
	members[last].Send(f)
}
