// Package stack implements the host IPv4 network stack used by the test
// client, the test server, and the control planes of the emulated home
// gateways: interface management, ARP, a routing table supporting the
// paper's "interface-specific routes only" client configuration, ICMP
// processing, and demultiplexing to transport protocols.
package stack

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// DefaultTTL is the initial TTL of locally originated packets.
const DefaultTTL = 64

// arpTimeout is how long a packet waits for ARP resolution before it is
// dropped.
const arpTimeout = time.Second

// ProtoHandler receives a locally addressed IP packet for one transport
// protocol. kept reports whether the handler retained ip or any view of
// its payload past the call; when it did not, the host recycles the
// packet record and the frame buffer it was parsed from.
type ProtoHandler func(ifc *NetIf, ip *netpkt.IPv4) (kept bool)

// ICMPListener observes ICMP messages addressed to the host. For error
// messages, inner is the parsed embedded datagram (nil if unparseable).
// ic and inner alias the received packet's buffer, which goes back to
// the pool when the listeners return: a listener copies what it keeps.
type ICMPListener func(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4)

// Host is an IPv4 endpoint with one or more interfaces.
type Host struct {
	S    *sim.Sim
	Name string

	ifaces []*NetIf
	// routes is the routing table, kept in the order that after
	// defines so that Lookup binary-searches instead of scanning.
	routes []route
	protos table[uint8, ProtoHandler]

	icmpListeners []ICMPListener

	// RawHook, if set, sees every received IPv4 packet (local or not)
	// before normal processing; returning true consumes the packet. The
	// ICMP prober uses it to "hijack" flows as in the paper's §3.2.3.
	// A hook that returns true owns the packet and its buffer (ip.Buf)
	// from then on: it hands them on (Send, SendVia) or ends them with
	// Drop. A hook that returns false must keep no reference to either.
	RawHook func(ifc *NetIf, ip *netpkt.IPv4) bool

	// ForwardHook, if set, receives packets whose destination is not
	// local, and owns each as a consuming RawHook does. Home gateways
	// install their NAT engine here. Without it, non-local packets are
	// dropped (hosts do not forward).
	ForwardHook func(ifc *NetIf, ip *netpkt.IPv4)

	// DropBadIPChecksum controls whether packets failing IP header
	// checksum verification are discarded (true for ordinary hosts).
	DropBadIPChecksum bool

	ipID      uint16
	ethSerial uint64
}

// NewHost creates a host with no interfaces.
func NewHost(s *sim.Sim, name string) *Host {
	return &Host{
		S:                 s,
		Name:              name,
		DropBadIPChecksum: true,
	}
}

// Route is a routing-table entry. Packets matching Prefix are sent out
// If toward NextHop (or directly to the destination if NextHop is the
// zero Addr, i.e. an on-link route).
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
	If      *NetIf
}

// NetIf is a configured network interface of a Host.
type NetIf struct {
	Host  *Host
	Link  *netem.Iface
	Addr  netip.Addr
	Plen  int // prefix length of the connected subnet
	arp   table[netip.Addr, netpkt.MAC]
	await table[netip.Addr, []*netpkt.IPv4] // packets parked behind ARP
}

// table is a short list of key-value pairs scanned in place. Every
// testbed interface has one or two neighbours and a host registers at
// most four protocols, so a scan beats hashing the key per packet.
type table[K comparable, V any] []entry[K, V]

type entry[K comparable, V any] struct {
	k K
	v V
}

func (t table[K, V]) get(k K) (v V, ok bool) {
	for i := range t {
		if t[i].k == k {
			return t[i].v, true
		}
	}
	return v, false
}

// set stores v under k, overwriting k's earlier value in place.
func (t *table[K, V]) set(k K, v V) {
	for i := range *t {
		if (*t)[i].k == k {
			(*t)[i].v = v
			return
		}
	}
	*t = append(*t, entry[K, V]{k, v})
}

// take removes k's entry and returns its value.
func (t *table[K, V]) take(k K) (v V, ok bool) {
	for i := range *t {
		if (*t)[i].k == k {
			v = (*t)[i].v
			*t = slices.Delete(*t, i, i+1)
			return v, true
		}
	}
	return v, false
}

// Prefix returns the connected subnet.
func (n *NetIf) Prefix() netip.Prefix {
	p, _ := n.Addr.Prefix(n.Plen)
	return p
}

// NewMAC returns a deterministic, host-unique MAC address.
func (h *Host) NewMAC() netpkt.MAC {
	h.ethSerial++
	var m netpkt.MAC
	m[0] = 0x02 // locally administered
	sum := uint64(0)
	for _, c := range h.Name {
		sum = sum*131 + uint64(c)
	}
	m[1] = byte(sum >> 8)
	m[2] = byte(sum)
	m[3] = byte(h.ethSerial >> 16)
	m[4] = byte(h.ethSerial >> 8)
	m[5] = byte(h.ethSerial)
	return m
}

// AddIf creates an interface with the given name and (possibly zero)
// address. The returned NetIf's Link field is ready to be connected with
// netem.Connect.
func (h *Host) AddIf(name string, addr netip.Addr, plen int) *NetIf {
	n := &NetIf{
		Host: h,
		Addr: addr,
		Plen: plen,
	}
	n.Link = &netem.Iface{Name: h.Name + "." + name, MAC: h.NewMAC()}
	n.Link.Recv = func(f *netpkt.Frame) { h.recvFrame(n, f) }
	h.ifaces = append(h.ifaces, n)
	if addr.IsValid() && plen > 0 {
		h.AddRoute(n.Prefix(), netip.Addr{}, n)
	}
	return n
}

// SetAddr reconfigures an interface address (e.g. after DHCP) and
// installs the connected route.
func (n *NetIf) SetAddr(addr netip.Addr, plen int) {
	n.Addr = addr
	n.Plen = plen
	n.Host.AddRoute(n.Prefix(), netip.Addr{}, n)
}

// route is a routing-table entry with its precomputed sort key: bits is
// the IPv4 prefix length (-1 for a prefix that can match no IPv4
// destination, so those sort last and are never searched) and net the
// masked network. Route.Prefix keeps the prefix exactly as added.
type route struct {
	Route
	bits int
	net  uint32
}

// addr32 returns an IPv4 address as a big-endian integer.
func addr32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// mask returns the netmask of an IPv4 prefix length in [0, 32].
func mask(bits int) uint32 { return ^uint32(0) << (32 - bits) }

// after returns the first index in [lo, len(rs)) whose entry sorts
// after the key (bits, net): the table orders prefix length descending,
// then masked network ascending, then insertion order.
func after(rs []route, lo, bits int, net uint32) int {
	return lo + sort.Search(len(rs)-lo, func(i int) bool {
		r := &rs[lo+i]
		return r.bits < bits || r.bits == bits && r.net > net
	})
}

// AddRoute installs a route. More-specific prefixes win; among equal
// prefixes the most recently added wins.
func (h *Host) AddRoute(prefix netip.Prefix, nextHop netip.Addr, ifc *NetIf) {
	e := route{Route: Route{Prefix: prefix, NextHop: nextHop, If: ifc}, bits: -1}
	if prefix.Addr().Is4() && prefix.Bits() >= 0 {
		e.bits = prefix.Bits()
		e.net = addr32(prefix.Addr()) & mask(e.bits)
	}
	h.routes = slices.Insert(h.routes, after(h.routes, 0, e.bits, e.net), e)
}

// Lookup finds the best route for dst (longest prefix; latest
// tie-break). It binary-searches each distinct prefix length, longest
// first, so its cost grows with the number of lengths in the table,
// not with the number of routes.
func (h *Host) Lookup(dst netip.Addr) (Route, bool) {
	if !dst.Is4() {
		return Route{}, false
	}
	a := addr32(dst)
	rs := h.routes
	for i := 0; i < len(rs) && rs[i].bits >= 0; {
		bits := rs[i].bits
		net := a & mask(bits)
		// The last entry not after (bits, net) is the latest route
		// added for that prefix, if there is one.
		j := after(rs, i, bits, net)
		if j > i && rs[j-1].bits == bits && rs[j-1].net == net {
			return rs[j-1].Route, true
		}
		i = after(rs, j, bits, ^uint32(0)) // next shorter length
	}
	return Route{}, false
}

// Handle registers the handler for an IP protocol number.
func (h *Host) Handle(proto uint8, fn ProtoHandler) { h.protos.set(proto, fn) }

// ListenICMP registers an ICMP observer.
func (h *Host) ListenICMP(fn ICMPListener) { h.icmpListeners = append(h.icmpListeners, fn) }

// NextIPID returns a fresh IP identification value.
func (h *Host) NextIPID() uint16 {
	h.ipID++
	return h.ipID
}

// Send routes and transmits an IP packet. The TTL and ID fields are
// filled in if zero. Packets with no route are dropped and false is
// returned. The packet is handed over: the caller must not use it
// again, since a pooled record is recycled once it is on the wire.
func (h *Host) Send(ip *netpkt.IPv4) bool {
	r, ok := h.Lookup(ip.Dst)
	if !ok {
		h.Drop(ip)
		return false
	}
	nh := r.NextHop
	if !nh.IsValid() {
		nh = ip.Dst
	}
	h.SendVia(r.If, nh, ip)
	return true
}

// SendVia transmits ip out of a specific interface toward nextHop,
// resolving the next hop's MAC with ARP as needed. Like Send, it takes
// the packet over.
func (h *Host) SendVia(ifc *NetIf, nextHop netip.Addr, ip *netpkt.IPv4) {
	if ip.TTL == 0 {
		ip.TTL = DefaultTTL
	}
	if ip.ID == 0 {
		ip.ID = h.NextIPID()
	}
	if !ip.Src.IsValid() {
		ip.Src = ifc.Addr
	}
	if ip.Dst == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
		emit(ifc, netpkt.BroadcastMAC, ip)
		return
	}
	if mac, ok := ifc.arp.get(nextHop); ok {
		emit(ifc, mac, ip)
		return
	}
	// Queue behind ARP resolution; the parked packet keeps its buffer.
	q, waiting := ifc.await.get(nextHop)
	ifc.await.set(nextHop, append(q, ip))
	if !waiting {
		ifc.sendARPRequest(nextHop)
		h.S.After(arpTimeout, func() {
			if _, ok := ifc.arp.get(nextHop); !ok {
				// Unresolved: drop the queue.
				q, _ := ifc.await.take(nextHop)
				for _, ip := range q {
					h.Drop(ip)
				}
			}
		})
	}
}

// Drop ends a packet that goes nowhere: a pooled record goes back to
// the host's pool, then the buffer it owns. A packet its sender built
// itself owns no pooled buffer, and the pool ignores its record. Code
// that owns a received packet (a consuming RawHook, a ForwardHook)
// drops it here.
func (h *Host) Drop(ip *netpkt.IPv4) {
	pool := h.S.Pool()
	buf := ip.Buf
	ip.Buf = nil
	pool.PutPacket(ip)
	pool.PutBuf(buf)
}

// emit marshals ip into a pooled frame addressed to dst and sends it.
// The packet ends here: a pooled record goes back to the pool, and a
// buffer it still owns after marshaling — a forwarded packet's ingress
// frame buffer — has been copied into the frame, so it is dead and
// goes back too, after the record.
func emit(ifc *NetIf, dst netpkt.MAC, ip *netpkt.IPv4) {
	pool := ifc.Host.S.Pool()
	f := pool.GetFrame()
	f.Dst, f.Src = dst, ifc.Link.MAC
	f.Type, f.Payload = netpkt.EtherTypeIPv4, ip.MarshalPooled(pool)
	buf := ip.Buf
	ip.Buf = nil
	pool.PutPacket(ip)
	pool.PutBuf(buf)
	ifc.Link.Send(f)
}

func (n *NetIf) sendARPRequest(target netip.Addr) {
	req := &netpkt.ARP{
		Op:        netpkt.ARPRequest,
		SenderMAC: n.Link.MAC,
		SenderIP:  n.Addr,
		TargetIP:  target,
	}
	pool := n.Host.S.Pool()
	f := pool.GetFrame()
	f.Dst, f.Src = netpkt.BroadcastMAC, n.Link.MAC
	f.Type, f.Payload = netpkt.EtherTypeARP, req.AppendMarshal(pool.GetBuf(28))
	n.Link.Send(f)
}

func (h *Host) recvFrame(ifc *NetIf, f *netpkt.Frame) {
	pool := h.S.Pool()
	if !f.Dst.IsBroadcast() && f.Dst != ifc.Link.MAC {
		// Not for us (switch flooded it). The frame dies here unparsed,
		// so it can be recycled immediately.
		pool.PutBuf(f.Payload)
		pool.PutFrame(f)
		return
	}
	switch f.Type {
	case netpkt.EtherTypeARP:
		h.recvARP(ifc, f)
		// ParseARP copies everything it keeps; the buffer is dead.
		pool.PutBuf(f.Payload)
	case netpkt.EtherTypeIPv4:
		h.recvIP(ifc, f)
	}
	// The frame struct itself dies with this delivery (parsed views
	// alias only the payload buffer).
	pool.PutFrame(f)
}

func (h *Host) recvARP(ifc *NetIf, f *netpkt.Frame) {
	a, err := netpkt.ParseARP(f.Payload)
	if err != nil {
		return
	}
	if a.SenderIP.IsValid() && !a.SenderMAC.IsZero() {
		ifc.arp.set(a.SenderIP, a.SenderMAC)
		// Flush packets waiting on this resolution.
		q, _ := ifc.await.take(a.SenderIP)
		for _, ip := range q {
			h.SendVia(ifc, a.SenderIP, ip)
		}
	}
	if a.Op == netpkt.ARPRequest && a.TargetIP == ifc.Addr && ifc.Addr.IsValid() {
		reply := &netpkt.ARP{
			Op:        netpkt.ARPReply,
			SenderMAC: ifc.Link.MAC,
			SenderIP:  ifc.Addr,
			TargetMAC: a.SenderMAC,
			TargetIP:  a.SenderIP,
		}
		pool := h.S.Pool()
		f := pool.GetFrame()
		f.Dst, f.Src = a.SenderMAC, ifc.Link.MAC
		f.Type, f.Payload = netpkt.EtherTypeARP, reply.AppendMarshal(pool.GetBuf(28))
		ifc.Link.Send(f)
	}
}

// IsLocal reports whether addr is assigned to one of the host's
// interfaces or is a broadcast address.
func (h *Host) IsLocal(addr netip.Addr) bool {
	if addr == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
		return true
	}
	for _, n := range h.ifaces {
		if n.Addr == addr {
			return true
		}
	}
	return false
}

func (h *Host) recvIP(ifc *NetIf, f *netpkt.Frame) {
	// The parse aliases f.Payload; from here on the parsed packet owns
	// the buffer (ip.Buf). It may be retained by forwarding queues,
	// transport stacks or ARP wait queues, so only the points below
	// where the view provably dies recycle it, and the pooled record
	// with it: the drop paths, ICMP once its listeners return, and a
	// local delivery whose handler kept nothing. Forwarded packets give
	// both back in SendVia, and a consuming RawHook owns what it took.
	pool := h.S.Pool()
	ip, err := pool.ParsePooled(f.Payload)
	if err != nil {
		if ip == nil {
			pool.PutBuf(f.Payload)
			return
		}
		if err == netpkt.ErrBadChecksum && h.DropBadIPChecksum {
			pool.PutPacket(ip)
			pool.PutBuf(f.Payload)
			return
		}
	}
	ip.Buf = f.Payload
	if h.RawHook != nil && h.RawHook(ifc, ip) {
		return
	}
	// The receiving interface's own address is the common case; it
	// spares the scan over every interface.
	if ip.Dst != ifc.Addr && !h.IsLocal(ip.Dst) {
		if h.ForwardHook != nil {
			h.ForwardHook(ifc, ip)
			return
		}
		// Hosts do not forward: the packet dies here.
	} else {
		// Honor Record Route for locally delivered packets (few gateways
		// do on the forwarding path; the quirk lives in the gateway
		// package).
		if len(ip.Options) > 0 {
			netpkt.RecordRoute(ip.Options, ifc.Addr)
		}
		if ip.Protocol == netpkt.ProtoICMP {
			h.recvICMP(ifc, ip)
		} else if fn, ok := h.protos.get(ip.Protocol); ok {
			if fn(ifc, ip) {
				return // the handler kept the packet
			}
		} else {
			// No handler: emit Protocol Unreachable, mirroring a real
			// host. The error copies what it embeds.
			h.SendICMPError(ip, netpkt.ICMPDestUnreachable, netpkt.ICMPCodeProtoUnreachable, 0)
		}
	}
	pool.PutPacket(ip)
	pool.PutBuf(f.Payload)
}

func (h *Host) recvICMP(ifc *NetIf, ip *netpkt.IPv4) {
	ic, err := netpkt.ParseICMP(ip.Payload, true)
	if err != nil {
		return
	}
	if ic.Type == netpkt.ICMPEchoRequest {
		reply := &netpkt.ICMP{Type: netpkt.ICMPEchoReply, Rest: ic.Rest, Body: ic.Body}
		h.Send(&netpkt.IPv4{
			Protocol: netpkt.ProtoICMP,
			Src:      ip.Dst, Dst: ip.Src,
			Payload: reply.Marshal(),
		})
		return
	}
	var inner *netpkt.IPv4
	if ic.IsError() && len(ic.Body) >= 20 {
		inner, _ = netpkt.ParseIPv4Lenient(ic.Body)
	}
	for _, fn := range h.icmpListeners {
		fn(ip.Src, ic, inner)
	}
}

// SendICMPError emits an ICMP error about the received packet orig,
// embedding its IP header plus up to 64 bytes of payload (enough for any
// full transport header, so NATs can translate and re-checksum the
// embedded headers). rest is the second header word (e.g. next-hop MTU
// for Fragmentation Needed).
func (h *Host) SendICMPError(orig *netpkt.IPv4, typ, code uint8, rest uint32) bool {
	// Never generate errors about ICMP errors (RFC 1122).
	if orig.Protocol == netpkt.ProtoICMP {
		if ic, err := netpkt.ParseICMP(orig.Payload, false); err == nil && ic.IsError() {
			return false
		}
	}
	body := orig.Marshal()
	maxBody := orig.HeaderLen() + 64
	if len(body) > maxBody {
		body = body[:maxBody]
	}
	ic := &netpkt.ICMP{Type: typ, Code: code, Rest: rest, Body: body}
	return h.Send(&netpkt.IPv4{
		Protocol: netpkt.ProtoICMP,
		Dst:      orig.Src,
		Payload:  ic.Marshal(),
	})
}

// String implements fmt.Stringer.
func (h *Host) String() string { return fmt.Sprintf("host(%s)", h.Name) }
