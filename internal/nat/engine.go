package nat

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// closeLinger is how long a binding survives after an observed TCP
// teardown (both FINs or a RST).
const closeLinger = 6 * time.Second

// ip4 is an IPv4 address as a number. The NAT tables key on it rather
// than on netip.Addr (24 bytes, holding a pointer), so a flow key is
// 16 bytes without pointers and hashes as plain memory. For IPv4
// addresses numeric order is netip.Addr's order.
type ip4 uint32

func ip4Of(a netip.Addr) ip4 {
	b := a.As4()
	return ip4(binary.BigEndian.Uint32(b[:]))
}

func (a ip4) as4() [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(a))
	return b
}

func (a ip4) addr() netip.Addr { return netip.AddrFrom4(a.as4()) }

// flowKey identifies one internal session (5-tuple; ICMP echo uses the
// query ID as the client "port"). Its fields are ordered so it has no
// padding beyond the tail.
type flowKey struct {
	client ip4
	server ip4
	cport  uint16
	sport  uint16
	proto  uint8
}

func flowOf(proto uint8, client netip.Addr, cport uint16, server netip.Addr, sport uint16) flowKey {
	return flowKey{client: ip4Of(client), server: ip4Of(server), cport: cport, sport: sport, proto: proto}
}

func (k flowKey) String() string {
	return fmt.Sprintf("%s %v:%d->%v:%d", netpkt.ProtoName(k.proto), k.client.addr(), k.cport, k.server.addr(), k.sport)
}

// extKey identifies a session from the WAN side.
type extKey struct {
	server ip4
	ext    uint16
	sport  uint16
	proto  uint8
}

func extOf(proto uint8, ext uint16, server netip.Addr, sport uint16) extKey {
	return extKey{server: ip4Of(server), ext: ext, sport: sport, proto: proto}
}

// wanKey is the WAN-side key of the flow translated to external port ext.
func (k flowKey) wanKey(ext uint16) extKey {
	return extKey{server: k.server, ext: ext, sport: k.sport, proto: k.proto}
}

type portKey struct {
	proto uint8
	port  uint16
}

// portOwner tracks which internal endpoint holds an external port. A
// port-preserving NAT reuses one external port for all flows of the
// same internal endpoint (port overloading): the reverse map stays
// unambiguous because byExt is keyed by the remote endpoint too.
// mappings lists the live mappings translated to this port (more than
// one only under overloading), in creation order; the inbound filter
// consults it when deciding whether a packet without an exact session
// may pass.
type portOwner struct {
	client   ip4
	cport    uint16
	n        int // live sessions on the port
	mappings []*Mapping
	inline   [1]*Mapping // mappings' storage until overloading outgrows it
	free     *portOwner  // next record on the engine's free list
}

func (o *portOwner) freeLink() **portOwner { return &o.free }

func (o *portOwner) dropMapping(m *Mapping) {
	for i, cand := range o.mappings {
		if cand == m {
			o.mappings = append(o.mappings[:i], o.mappings[i+1:]...)
			return
		}
	}
}

// mapKey identifies one mapping under the device's mapping behavior:
// the internal endpoint plus whatever part of the destination the
// behavior folds in — nothing under EIM, the address under ADM, the
// full endpoint under APDM (where mappings and sessions are 1:1, the
// pre-refactor table shape).
type mapKey struct {
	client ip4
	server ip4 // zero under EIM
	cport  uint16
	sport  uint16 // zero under EIM and ADM
	proto  uint8
}

// Mapping is the first level of the two-level binding table: one
// external port, shared by every session the mapping behavior folds
// onto it. A mapping lives exactly as long as it has live sessions;
// per-session timers (the UDP-1/2/3 state machine, TCP state tracking)
// drive the lifecycle.
type Mapping struct {
	key mapKey
	ext uint16
	// sessions heads the list of the mapping's live sessions, newest
	// first, linked through Binding.prev/next; n counts them.
	sessions *Binding
	n        int
	free     *Mapping // next record on the engine's free list
}

func (m *Mapping) freeLink() **Mapping { return &m.free }

// link adds session b to the mapping's list.
func (m *Mapping) link(b *Binding) {
	b.next = m.sessions
	if m.sessions != nil {
		m.sessions.prev = b
	}
	m.sessions = b
	m.n++
}

// unlink removes session b from the mapping's list.
func (m *Mapping) unlink(b *Binding) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		m.sessions = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, nil
	m.n--
}

// Session records (bindings, mappings and port owners) come from
// engine-owned free lists and go back on them when their session,
// mapping or port dies, so binding churn allocates nothing once an
// engine has held its peak population. A list refills in chunks sized
// to that population: the first holds firstChunk records and each
// next one twice the last, up to maxChunk. An engine that only ever
// holds a few sessions (a fleet device) takes one small chunk of each
// kind and none up front.
const (
	firstChunk = 4
	maxChunk   = 256
)

// freeList is an engine-owned free list of T records, linked through a
// pointer field of the free records themselves.
type freeList[T any, P interface {
	*T
	freeLink() **T
}] struct {
	head  *T
	chunk int // size of the last chunk
}

// get returns a free record, refilling the list with a new chunk when
// it is empty. The record keeps whatever its previous occupant left in
// it; the caller resets every field.
func (l *freeList[T, P]) get() *T {
	if l.head == nil {
		l.chunk = min(max(2*l.chunk, firstChunk), maxChunk)
		recs := make([]T, l.chunk)
		for i := len(recs) - 1; i >= 0; i-- {
			l.put(&recs[i])
		}
	}
	r := l.head
	link := P(r).freeLink()
	l.head, *link = *link, nil
	return r
}

// put returns r to the list. Nothing in the engine may reach r any
// more: not a table, a mapping's session list or a pending timer.
func (l *freeList[T, P]) put(r *T) {
	*P(r).freeLink() = l.head
	l.head = r
}

// mapKeyFor folds a flow onto its mapping key per the mapping behavior.
func (e *Engine) mapKeyFor(f flowKey) mapKey {
	k := mapKey{proto: f.proto, client: f.client, cport: f.cport}
	switch e.pol.Mapping {
	case MappingEndpointIndependent:
	case MappingAddressDependent:
		k.server = f.server
	default: // MappingAddressAndPortDependent
		k.server, k.sport = f.server, f.sport
	}
	return k
}

// Binding is one active session: the second level of the binding
// table. Every session belongs to exactly one Mapping (which fixes its
// external port) and carries its own refresh timers.
type Binding struct {
	flow       flowKey
	ext        uint16
	m          *Mapping
	prev, next *Binding // the mapping's session list; next links free records
	created    sim.Time
	// timer fires the binding itself (as an expiry), so a session owns
	// no callback, and a packet-driven refresh moves the pending event
	// in place (sim.Event.Reschedule).
	timer sim.Event
	e     *Engine

	// udp holds the UDP timeouts of the session's destination service
	// port, resolved once: the port is part of the flow key.
	udp UDPTimeouts
	// UDP refresh state.
	sawInbound           bool
	sawOutboundAfterInbd bool

	// inboundInitiated marks sessions created by a filter-admitted
	// inbound packet (EIF/ADF) rather than by outbound traffic.
	inboundInitiated bool

	// TCP state tracking.
	tcpEstablished bool
	finClient      bool
	finServer      bool
	tcpClosed      bool
}

func (b *Binding) freeLink() **Binding { return &b.next }

// expiry is a Binding seen as the sim.Handler of its own expiry timer,
// which keeps Fire out of Binding's exported method set.
type expiry Binding

func (x *expiry) Fire() {
	b := (*Binding)(x)
	b.e.expire(b)
}

type quarEntry struct {
	port  uint16
	until sim.Time
}

// Engine is one device's NAPT translation engine.
type Engine struct {
	s   *sim.Sim
	pol Policy
	wan netip.Addr

	byFlow     map[flowKey]*Binding
	byExt      map[extKey]*Binding
	mappings   map[mapKey]*Mapping
	portsInUse map[portKey]*portOwner
	quarantine map[flowKey]quarEntry
	nextPort   uint16
	// lastContig remembers each internal endpoint's previous
	// allocation for PortAllocContiguous (allocated lazily: the
	// default behaviors never touch it).
	lastContig map[mapKey]uint16
	phase      time.Duration // expiry-quantisation phase
	tcpCount   int
	// Free session records (see freeList).
	bindingRecs freeList[Binding, *Binding]
	mappingRecs freeList[Mapping, *Mapping]
	ownerRecs   freeList[portOwner, *portOwner]
	// lost records external ports whose bindings a reboot wiped
	// (WipeBindings), so inbound packets to them count as §4.4 binding
	// loss rather than plain no-binding drops. Entries clear when the
	// port is reallocated. Nil until the first wipe: unfaulted runs
	// never touch it.
	lost map[portKey]struct{}

	// Counters by drop reason, for diagnostics and tests. Keys come
	// from the DropReason registry (dropreason.go); droplint rejects
	// ad-hoc literals.
	Drops map[DropReason]int
}

// NewEngine creates an engine with the given policy. The WAN address
// must be set with SetWAN before traffic flows (the gateway does this
// after its DHCP lease).
func NewEngine(s *sim.Sim, pol Policy) *Engine {
	return &Engine{
		s:          s,
		pol:        pol.withDefaults(),
		byFlow:     make(map[flowKey]*Binding),
		byExt:      make(map[extKey]*Binding),
		mappings:   make(map[mapKey]*Mapping),
		portsInUse: make(map[portKey]*portOwner),
		quarantine: make(map[flowKey]quarEntry),
		nextPort:   30000,
		phase:      time.Duration(s.Rand().Int63n(int64(time.Minute))),
		Drops:      make(map[DropReason]int),
	}
}

// Policy returns the engine's (defaulted) policy.
func (e *Engine) Policy() Policy { return e.pol }

// SetWAN installs the external address.
func (e *Engine) SetWAN(addr netip.Addr) { e.wan = addr }

// WAN returns the external address.
func (e *Engine) WAN() netip.Addr { return e.wan }

func (e *Engine) drop(reason DropReason) {
	e.Drops[reason]++
	if r := e.s.Obs(); r != nil {
		idx := reason.Index()
		r.Inc(obs.CNATDrops)
		r.VecInc(obs.VecNATDrops, idx)
		r.Trace(obs.TraceDrop, e.s.Now(), uint32(idx))
	}
}

// translated counts one successfully translated packet.
func (e *Engine) translated() { e.s.Obs().Inc(obs.CNATTranslations) }

// CountDrop lets the surrounding device attribute a drop it performs
// on the engine's behalf (e.g. swallowing hairpin traffic when the
// policy disables hairpinning) to the engine's per-reason counters.
func (e *Engine) CountDrop(reason DropReason) { e.drop(reason) }

// DropCounts returns a copy of the per-reason drop counters as plain
// strings, so callers (probes, result payloads) can snapshot them
// without aliasing the live map and without the JSON shape changing
// with the typed registry.
func (e *Engine) DropCounts() map[string]int {
	out := make(map[string]int, len(e.Drops))
	for k, v := range e.Drops {
		out[string(k)] = v
	}
	return out
}

// udpTimeouts returns the timeout triple for a destination service port.
func (e *Engine) udpTimeouts(sport uint16) UDPTimeouts {
	if t, ok := e.pol.UDPServices[sport]; ok {
		if t.Outbound == 0 {
			t.Outbound = e.pol.UDP.Outbound
		}
		if t.Inbound == 0 {
			t.Inbound = e.pol.UDP.Inbound
		}
		if t.Bidir == 0 {
			t.Bidir = e.pol.UDP.Bidir
		}
		return t
	}
	return e.pol.UDP
}

// quantise rounds an expiry deadline up to the device's timer tick.
func (e *Engine) quantise(deadline sim.Time) sim.Time {
	g := e.pol.TimerGranularity
	if g <= 0 {
		return deadline
	}
	rel := deadline - e.phase
	ticks := (rel + g - 1) / g
	return e.phase + ticks*g
}

// arm re-arms a binding's expiry timer (0 timeout = never expires).
func (e *Engine) arm(b *Binding, timeout time.Duration) {
	e.armQ(b, timeout, false)
}

// armQ is arm with optional expiry quantisation. Coarse-timer devices
// only showed their coarseness once a binding was refreshed by traffic
// (wide quartiles in the paper's UDP-2 but not UDP-1), so fresh
// outbound-only bindings use exact timers. A refresh moves the pending
// timer in place when its deadline does not come earlier, which fires
// it exactly where Cancel and a new At would.
func (e *Engine) armQ(b *Binding, timeout time.Duration, quantise bool) {
	if timeout <= 0 {
		b.timer.Cancel()
		b.timer = sim.Event{}
		return
	}
	deadline := e.s.Now() + timeout
	if quantise {
		deadline = e.quantise(deadline)
	}
	if b.timer.Reschedule(deadline) {
		return
	}
	b.timer.Cancel()
	b.timer = e.s.AtHandler(deadline, (*expiry)(b))
}

// expire ends b when its timer fires. Every path that ends a session
// cancels its timer (remove), so b is still live.
func (e *Engine) expire(b *Binding) {
	e.s.Obs().Inc(obs.CNATBindingsExpired)
	if !e.pol.ReuseExpiredBinding {
		e.quarantine[b.flow] = quarEntry{port: b.ext, until: e.s.Now() + reuseQuarantine}
	}
	e.remove(b)
}

// remove ends session b and returns its record, and those of a mapping
// or port owner it leaves without sessions, to the free lists.
func (e *Engine) remove(b *Binding) {
	b.timer.Cancel()
	delete(e.byFlow, b.flow)
	delete(e.byExt, b.flow.wanKey(b.ext))
	pk := portKey{b.flow.proto, b.ext}
	o := e.portsInUse[pk] // every live session's port has an owner
	m := b.m
	m.unlink(b)
	if m.n == 0 {
		delete(e.mappings, m.key)
		e.s.Obs().GaugeDec(obs.GNATMappings)
		o.dropMapping(m)
		e.mappingRecs.put(m)
	}
	o.n--
	if o.n == 0 {
		delete(e.portsInUse, pk)
		e.ownerRecs.put(o)
	}
	if b.flow.proto == netpkt.ProtoTCP {
		e.tcpCount--
	}
	if r := e.s.Obs(); r != nil {
		r.Inc(obs.CNATBindingsRemoved)
		r.GaugeDec(obs.GNATBindings)
		r.Observe(obs.HNATBindingLifetime, e.s.Now()-b.created)
		r.Trace(obs.TraceBindingExpire, e.s.Now(), uint32(b.ext))
	}
	e.bindingRecs.put(b)
}

// WipeBindings empties the whole binding table at once, modeling the
// paper's §4.4 spontaneous gateway reboot: every session, mapping and
// port reservation disappears, the port allocator and quarantine state
// reset to boot defaults, and each wiped external port is remembered so
// subsequent inbound packets to it surface as DropBindingLostReboot.
// Bindings are removed in sorted order (flow key), keeping the trace
// ring and timer-cancel sequence independent of map iteration order.
// It returns the number of sessions wiped.
func (e *Engine) WipeBindings() int {
	n := len(e.byFlow)
	if n > 0 {
		bs := make([]*Binding, 0, n)
		for _, b := range e.byFlow {
			bs = append(bs, b)
		}
		sort.Slice(bs, func(i, j int) bool {
			a, b := bs[i].flow, bs[j].flow
			if a.proto != b.proto {
				return a.proto < b.proto
			}
			if a.client != b.client {
				return a.client < b.client
			}
			if a.cport != b.cport {
				return a.cport < b.cport
			}
			if a.server != b.server {
				return a.server < b.server
			}
			return a.sport < b.sport
		})
		if e.lost == nil {
			e.lost = make(map[portKey]struct{}, n)
		}
		for _, b := range bs {
			e.lost[portKey{b.flow.proto, b.ext}] = struct{}{}
			e.remove(b)
		}
	}
	// A power cycle forgets quarantines and allocator history too.
	e.quarantine = make(map[flowKey]quarEntry)
	e.lastContig = nil
	e.nextPort = 30000
	if n > 0 {
		e.s.Obs().Add(obs.CNATBindingsWiped, uint64(n))
	}
	return n
}

// lostReason upgrades a no-binding drop to DropBindingLostReboot when
// the target external port held a binding that a reboot wiped.
func (e *Engine) lostReason(proto uint8, ext uint16, reason DropReason) DropReason {
	if e.lost == nil || (reason != DropUDPNoBinding && reason != DropTCPNoBinding) {
		return reason
	}
	if _, ok := e.lost[portKey{proto, ext}]; ok {
		return DropBindingLostReboot
	}
	return reason
}

// allocPort chooses an external port for a new mapping, per the port
// allocation behavior. The quarantine/reuse decision (UDP-4) is shared
// by every mode: a flow whose previous binding expired under a
// no-reuse policy has its old port blocked for reuseQuarantine.
func (e *Engine) allocPort(proto uint8, flow flowKey, desired uint16) uint16 {
	mode := e.pol.PortAlloc
	var blocked uint16
	if q, ok := e.quarantine[flow]; ok {
		if e.s.Now() < q.until {
			blocked = q.port
		} else {
			delete(e.quarantine, flow)
		}
	}
	if mode == PortAllocPreserving && desired != 0 && desired != blocked {
		o := e.portsInUse[portKey{proto, desired}]
		if o == nil || (o.client == flow.client && o.cport == flow.cport) {
			// Free, or already held by this same internal endpoint
			// (port overloading: flows to distinct remotes share it).
			return desired
		}
	}
	// ep is the contiguous allocator's per-endpoint key; the map is
	// nil until a contiguous policy first allocates (default behaviors
	// never touch it).
	ep := mapKey{proto: flow.proto, client: flow.client, cport: flow.cport}
	if mode == PortAllocContiguous && e.lastContig == nil {
		e.lastContig = make(map[mapKey]uint16)
	}
	switch mode {
	case PortAllocSequential, PortAllocPreserving:
		// Sequential scan below. (Preservation either hit its port
		// above or falls back to the scan.)
	case PortAllocRandom:
		for i := 0; i < 64; i++ {
			p := uint16(30000 + e.s.Rand().Intn(65536-30000))
			if p == blocked || p == desired {
				continue
			}
			if e.portsInUse[portKey{proto, p}] == nil {
				return p
			}
		}
		// Table nearly full: fall back to the sequential scan.
	case PortAllocContiguous:
		if last, ok := e.lastContig[ep]; ok {
			p := last
			for i := 0; i < 65536; i++ {
				p++
				if p < 30000 {
					p = 30000
				}
				if p == blocked || p == desired {
					continue
				}
				if e.portsInUse[portKey{proto, p}] == nil {
					e.lastContig[ep] = p
					return p
				}
			}
			return 0
		}
		// First allocation for the endpoint: fall through to the
		// sequential scan and remember its result.
	}
	for i := 0; i < 65536; i++ {
		p := e.nextPort
		e.nextPort++
		if e.nextPort < 30000 {
			e.nextPort = 30000
		}
		if p == blocked || p == desired {
			continue
		}
		if e.portsInUse[portKey{proto, p}] == nil {
			if mode == PortAllocContiguous {
				e.lastContig[ep] = p
			}
			return p
		}
	}
	return 0
}

// newSession installs a session for an outbound flow, creating (or,
// under EIM/ADM, reusing) the mapping the flow folds onto. Protocols
// without port numbers (unknown transports under IP-only translation)
// get external "port" 0 and skip port allocation.
func (e *Engine) newSession(flow flowKey) *Binding {
	mk := e.mapKeyFor(flow)
	if m := e.mappings[mk]; m != nil {
		return e.addSession(m, flow)
	}
	var ext uint16
	switch flow.proto {
	case netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP:
		ext = e.allocPort(flow.proto, flow, flow.cport)
		if ext == 0 {
			return nil
		}
	}
	m := e.mappingRecs.get()
	*m = Mapping{key: mk, ext: ext}
	e.mappings[mk] = m
	if r := e.s.Obs(); r != nil {
		r.Inc(obs.CNATMappingsCreated)
		r.GaugeInc(obs.GNATMappings)
	}
	return e.addSession(m, flow)
}

// addSession installs a session for flow on mapping m and indexes it.
func (e *Engine) addSession(m *Mapping, flow flowKey) *Binding {
	b := e.bindingRecs.get()
	*b = Binding{flow: flow, ext: m.ext, m: m, created: e.s.Now(), e: e}
	if flow.proto == netpkt.ProtoUDP {
		b.udp = e.udpTimeouts(flow.sport)
	}
	e.byFlow[flow] = b
	e.byExt[flow.wanKey(m.ext)] = b
	m.link(b)
	pk := portKey{flow.proto, m.ext}
	if e.lost != nil {
		// The port is live again; inbound misses on it are ordinary.
		delete(e.lost, pk)
	}
	o := e.portsInUse[pk]
	if o == nil {
		o = e.ownerRecs.get()
		*o = portOwner{client: flow.client, cport: flow.cport}
		o.mappings = o.inline[:0]
		e.portsInUse[pk] = o
	}
	o.n++
	if m.n == 1 {
		o.mappings = append(o.mappings, m)
	}
	if flow.proto == netpkt.ProtoTCP {
		e.tcpCount++
	}
	if r := e.s.Obs(); r != nil {
		r.Inc(obs.CNATBindingsCreated)
		r.GaugeInc(obs.GNATBindings)
		r.Trace(obs.TraceBindingCreate, e.s.Now(), uint32(m.ext))
	}
	return b
}

// refreshUDP re-arms a UDP binding after a packet in the given direction.
func (e *Engine) refreshUDP(b *Binding, inbound bool) {
	t := &b.udp
	if inbound {
		b.sawInbound = true
		if b.sawOutboundAfterInbd {
			e.armQ(b, t.Bidir, true)
		} else {
			e.armQ(b, t.Inbound, true)
		}
		return
	}
	if b.sawInbound {
		b.sawOutboundAfterInbd = true
		e.armQ(b, t.Bidir, true)
		return
	}
	e.arm(b, t.Outbound)
}

// refreshTCP re-arms a TCP binding from observed segment flags.
func (e *Engine) refreshTCP(b *Binding, flags uint8, inbound bool) {
	if flags&netpkt.TCPRst != 0 {
		b.tcpClosed = true
	}
	if flags&netpkt.TCPFin != 0 {
		if inbound {
			b.finServer = true
		} else {
			b.finClient = true
		}
		if b.finServer && b.finClient {
			b.tcpClosed = true
		}
	}
	switch {
	case b.tcpClosed:
		e.arm(b, closeLinger)
	case b.tcpEstablished:
		e.arm(b, e.pol.TCPEstablished)
	default:
		if inbound != b.inboundInitiated {
			// A segment flowing against the session's initiation
			// direction: the reply to our SYN (or, for a
			// filter-admitted inbound session, the internal host
			// answering) — the connection is coming up. A bare
			// unsolicited SYN admitted by EIF/ADF stays transitory, so
			// WAN scanners cannot pin long-lived table slots.
			b.tcpEstablished = true
			e.arm(b, e.pol.TCPEstablished)
			return
		}
		e.arm(b, tcpTransitory)
	}
}

// Outbound translates a LAN-to-WAN packet in place. It returns false if
// the packet must be dropped. The caller re-marshals the packet.
func (e *Engine) Outbound(ip *netpkt.IPv4) bool {
	if !e.wan.IsValid() {
		e.drop(DropNoWAN)
		return false
	}
	client := ip.Src
	switch ip.Protocol {
	case netpkt.ProtoUDP:
		sport, dport, ok := netpkt.UDPPorts(ip.Payload)
		if !ok {
			e.drop(DropUDPShort)
			return false
		}
		flow := flowOf(netpkt.ProtoUDP, client, sport, ip.Dst, dport)
		b, ok := e.byFlow[flow]
		if !ok {
			b = e.newSession(flow)
			if b == nil {
				e.drop(DropUDPPortsExhausted)
				return false
			}
		}
		e.refreshUDP(b, false)
		// Rewrite the source port and adjust the checksum incrementally
		// (RFC 1624) for the port and pseudo-header address changes —
		// no re-summing of the payload.
		sum := binary.BigEndian.Uint16(ip.Payload[6:8])
		netpkt.SetUDPPorts(ip.Payload, b.ext, dport)
		if sum != 0 {
			sum = netpkt.ChecksumAdjustU16(sum, sport, b.ext)
			sum = netpkt.ChecksumAdjustAddr(sum, ip.Src, e.wan)
			if sum == 0 {
				sum = 0xffff // RFC 768: never transmit computed zero
			}
			binary.BigEndian.PutUint16(ip.Payload[6:8], sum)
		}
		ip.Src = e.wan
		e.translated()
		return true

	case netpkt.ProtoTCP:
		sport, dport, ok := netpkt.TCPPorts(ip.Payload)
		if !ok || len(ip.Payload) < 20 {
			e.drop(DropTCPShort)
			return false
		}
		flags := ip.Payload[13] & 0x3f
		flow := flowOf(netpkt.ProtoTCP, client, sport, ip.Dst, dport)
		b, ok := e.byFlow[flow]
		if !ok {
			if flags&netpkt.TCPSyn == 0 {
				e.drop(DropTCPNoBinding)
				return false
			}
			if e.tcpCount >= e.pol.MaxTCPBindings {
				e.drop(DropTCPTableFull)
				return false
			}
			b = e.newSession(flow)
			if b == nil {
				e.drop(DropTCPPortsExhausted)
				return false
			}
		}
		e.refreshTCP(b, flags, false)
		sum := binary.BigEndian.Uint16(ip.Payload[16:18])
		netpkt.SetTCPPorts(ip.Payload, b.ext, dport)
		sum = netpkt.ChecksumAdjustU16(sum, sport, b.ext)
		sum = netpkt.ChecksumAdjustAddr(sum, ip.Src, e.wan)
		binary.BigEndian.PutUint16(ip.Payload[16:18], sum)
		ip.Src = e.wan
		e.translated()
		return true

	case netpkt.ProtoICMP:
		return e.outboundICMP(ip)

	default:
		switch e.pol.UnknownProto {
		case UnknownDrop:
			e.drop(DropUnknownProto)
			return false
		case UnknownTranslateIPOnly:
			flow := flowOf(ip.Protocol, client, 0, ip.Dst, 0)
			if _, ok := e.byFlow[flow]; !ok {
				if b := e.newSession(flow); b != nil {
					e.arm(b, e.pol.UDP.Bidir) // generic session timeout
				}
			} else {
				e.arm(e.byFlow[flow], e.pol.UDP.Bidir)
			}
			ip.Src = e.wan // transport checksum left stale: that is the point
			e.translated()
			return true
		case UnknownPassUntouched:
			// Forward with the private source address intact.
			e.translated()
			return true
		}
	}
	e.drop(DropUnhandled)
	return false
}

// filterInbound applies the device's filtering behavior to an inbound
// UDP or TCP packet that matched no exact session. It returns the
// session to translate with — possibly freshly created on the arrival
// port's mapping, conntrack-style — or (nil, reason) when the packet
// must be dropped. Under the default address-and-port-dependent
// filtering it rejects everything, exactly like the pre-refactor
// engine (the per-protocol no-binding reason, preserving the
// historical counters).
func (e *Engine) filterInbound(proto uint8, ext uint16, src netip.Addr, sport uint16) (*Binding, DropReason) {
	noBinding, filtered := DropUDPNoBinding, DropUDPFiltered
	if proto == netpkt.ProtoTCP {
		noBinding, filtered = DropTCPNoBinding, DropTCPFiltered
	}
	if e.pol.Filtering == FilteringAddressAndPortDependent {
		return nil, noBinding
	}
	o := e.portsInUse[portKey{proto, ext}]
	if o == nil || len(o.mappings) == 0 {
		return nil, noBinding
	}
	// The mapping the new session joins: the arrival port's first
	// mapping, or — under address-dependent filtering — the first
	// mapping holding a session toward the source address (which is
	// what admits the packet).
	m := o.mappings[0]
	if e.pol.Filtering == FilteringAddressDependent {
		m = nil
		for _, cand := range o.mappings {
			if cand.hasSessionToward(src) {
				m = cand
				break
			}
		}
		if m == nil {
			return nil, filtered
		}
	}
	flow := flowKey{client: o.client, server: ip4Of(src), cport: o.cport, sport: sport, proto: proto}
	if existing, ok := e.byFlow[flow]; ok {
		// The endpoint already talks to this remote through another
		// mapping (its own external port): refresh that session rather
		// than shadowing it.
		return existing, DropNone
	}
	if proto == netpkt.ProtoTCP && e.tcpCount >= e.pol.MaxTCPBindings {
		return nil, DropTCPTableFull
	}
	b := e.addSession(m, flow)
	b.inboundInitiated = true
	return b, DropNone
}

// hasSessionToward reports whether the mapping holds a session whose
// remote endpoint is the address src (any port).
func (m *Mapping) hasSessionToward(src netip.Addr) bool {
	s4 := ip4Of(src)
	for b := m.sessions; b != nil; b = b.next {
		if b.flow.server == s4 {
			return true
		}
	}
	return false
}

// Inbound translates a WAN-to-LAN packet in place. It returns false if
// the packet must be dropped.
func (e *Engine) Inbound(ip *netpkt.IPv4) bool {
	switch ip.Protocol {
	case netpkt.ProtoUDP:
		sport, dport, ok := netpkt.UDPPorts(ip.Payload)
		if !ok {
			e.drop(DropUDPShort)
			return false
		}
		b, ok := e.byExt[extOf(netpkt.ProtoUDP, dport, ip.Src, sport)]
		if !ok {
			var reason DropReason
			b, reason = e.filterInbound(netpkt.ProtoUDP, dport, ip.Src, sport)
			if b == nil {
				e.drop(e.lostReason(netpkt.ProtoUDP, dport, reason))
				return false
			}
		}
		e.refreshUDP(b, true)
		sum := binary.BigEndian.Uint16(ip.Payload[6:8])
		netpkt.SetUDPPorts(ip.Payload, sport, b.flow.cport)
		if sum != 0 {
			sum = netpkt.ChecksumAdjustU16(sum, dport, b.flow.cport)
			sum = netpkt.ChecksumAdjustAddr(sum, ip.Dst, b.flow.client.addr())
			if sum == 0 {
				sum = 0xffff
			}
			binary.BigEndian.PutUint16(ip.Payload[6:8], sum)
		}
		ip.Dst = b.flow.client.addr()
		e.translated()
		return true

	case netpkt.ProtoTCP:
		sport, dport, ok := netpkt.TCPPorts(ip.Payload)
		if !ok || len(ip.Payload) < 20 {
			e.drop(DropTCPShort)
			return false
		}
		b, ok := e.byExt[extOf(netpkt.ProtoTCP, dport, ip.Src, sport)]
		if !ok {
			var reason DropReason
			b, reason = e.filterInbound(netpkt.ProtoTCP, dport, ip.Src, sport)
			if b == nil {
				e.drop(e.lostReason(netpkt.ProtoTCP, dport, reason))
				return false
			}
		}
		e.refreshTCP(b, ip.Payload[13]&0x3f, true)
		sum := binary.BigEndian.Uint16(ip.Payload[16:18])
		netpkt.SetTCPPorts(ip.Payload, sport, b.flow.cport)
		sum = netpkt.ChecksumAdjustU16(sum, dport, b.flow.cport)
		sum = netpkt.ChecksumAdjustAddr(sum, ip.Dst, b.flow.client.addr())
		binary.BigEndian.PutUint16(ip.Payload[16:18], sum)
		ip.Dst = b.flow.client.addr()
		e.translated()
		return true

	case netpkt.ProtoICMP:
		return e.inboundICMP(ip)

	default:
		switch e.pol.UnknownProto {
		case UnknownDrop:
			// Fall through to the drop below.
		case UnknownTranslateIPOnly:
			if e.pol.UnknownInboundDrop {
				e.drop(DropUnknownInboundDrop)
				return false
			}
			// Find the session by protocol + server address.
			b, ok := e.byExt[extOf(ip.Protocol, 0, ip.Src, 0)]
			if !ok {
				e.drop(DropUnknownNoBinding)
				return false
			}
			e.arm(b, e.pol.UDP.Bidir)
			ip.Dst = b.flow.client.addr()
			e.translated()
			return true
		case UnknownPassUntouched:
			// The packet is addressed to a private address we never
			// translated; nothing sensible to do — forward as-is if it
			// happens to be routable on the LAN.
			e.translated()
			return true
		}
		e.drop(DropUnknownProto)
		return false
	}
}

// InboundHairpin translates a hairpinned packet (one that arrived from
// the LAN addressed to the external address, already outbound-translated
// by the caller) toward the internal host owning the destination port.
// Hairpinning requires endpoint-independent matching: only the external
// port is compared.
func (e *Engine) InboundHairpin(ip *netpkt.IPv4) bool {
	var dport, sport uint16
	var ok bool
	switch ip.Protocol {
	case netpkt.ProtoUDP:
		sport, dport, ok = netpkt.UDPPorts(ip.Payload)
	case netpkt.ProtoTCP:
		sport, dport, ok = netpkt.TCPPorts(ip.Payload)
	default:
		e.drop(DropHairpinProto)
		return false
	}
	if !ok {
		e.drop(DropHairpinShort)
		return false
	}
	// Endpoint-independent matching: the port-owner index resolves the
	// internal endpoint in O(1) (pre-refactor this scanned byExt; the
	// owner is unique per external port, so the result is identical).
	o := e.portsInUse[portKey{ip.Protocol, dport}]
	if o == nil {
		e.drop(DropHairpinNoBinding)
		return false
	}
	switch ip.Protocol {
	case netpkt.ProtoUDP:
		zero := binary.BigEndian.Uint16(ip.Payload[6:8]) == 0
		netpkt.SetUDPPorts(ip.Payload, sport, o.cport)
		if !zero {
			netpkt.FixUDPChecksum(ip.Payload, ip.Src, o.client.addr())
		}
	case netpkt.ProtoTCP:
		netpkt.SetTCPPorts(ip.Payload, sport, o.cport)
		netpkt.FixTCPChecksum(ip.Payload, ip.Src, o.client.addr())
	}
	ip.Dst = o.client.addr()
	e.translated()
	return true
}
