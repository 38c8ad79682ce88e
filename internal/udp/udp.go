// Package udp provides UDP sockets over the simulated host stack.
package udp

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// Datagram is a received UDP datagram with its addressing metadata.
type Datagram struct {
	From     netip.Addr
	FromPort uint16
	To       netip.Addr
	ToPort   uint16
	TTL      uint8
	If       *stack.NetIf // arrival interface
	Data     []byte
}

// Stack manages the UDP sockets of one host.
type Stack struct {
	h *stack.Host
	s *sim.Sim
	// conns indexes the sockets by local port and interface: the
	// sockets bound to no interface under (port, nil), those bound to
	// interface ifc under (port, ifc). A datagram for one of many
	// per-interface sockets on a port (the test server runs a DHCP and
	// a probe server per VLAN) then costs a lookup, not a scan of them
	// all. A port's (port, nil) entry exists while any socket holds the
	// port.
	conns map[ifPort]sockets
	// chunk is append-only storage for delivered payloads: each
	// Datagram.Data is a capacity-capped slice of a chunk, and no byte
	// of a chunk is written again once handed out, so a Datagram's
	// Data stays valid for as long as its holder keeps it.
	chunk    []byte
	nextPort uint16

	// GeneratePortUnreachable controls whether datagrams to closed
	// ports trigger ICMP Port Unreachable (true for real hosts).
	GeneratePortUnreachable bool
}

// ifPort keys Stack.conns; iface is nil for sockets bound to no
// interface.
type ifPort struct {
	port  uint16
	iface *stack.NetIf
}

// sockets is one entry of Stack.conns.
type sockets struct {
	head  *Conn // the entry's sockets in bind order, linked through Conn.next
	bound int   // in a (port, nil) entry: the interface-bound sockets on the port
}

// New attaches a UDP stack to host h.
func New(h *stack.Host) *Stack {
	st := &Stack{
		h:                       h,
		s:                       h.S,
		conns:                   make(map[ifPort]sockets),
		nextPort:                32768,
		GeneratePortUnreachable: true,
	}
	h.Handle(netpkt.ProtoUDP, st.input)
	return st
}

// Conn is a UDP socket. A Conn with a remote address set is "connected"
// and receives only datagrams from that peer.
type Conn struct {
	st         *Stack
	localAddr  netip.Addr   // zero = any local address
	iface      *stack.NetIf // non-nil = only packets arriving on this interface
	remoteAddr netip.Addr
	next       *Conn // next socket in the same Stack.conns entry
	localPort  uint16
	remotePort uint16
	closed     bool
	rx         sim.Chan[Datagram]
}

var errPortInUse = errors.New("udp: port in use")

// SetEphemeralBase moves the ephemeral port range (gateways use a range
// distinct from their NAT pool and from client stacks).
func (st *Stack) SetEphemeralBase(p uint16) { st.nextPort = p }

// Bind opens a socket on the given local address and port. A zero addr
// binds all addresses; port 0 picks an ephemeral port.
func (st *Stack) Bind(addr netip.Addr, port uint16) (*Conn, error) {
	return st.bind(addr, nil, port)
}

// BindIf opens a socket on port that only receives datagrams arriving on
// interface ifc (needed when several interfaces run the same service,
// e.g. one DHCP server per VLAN on the test server).
func (st *Stack) BindIf(ifc *stack.NetIf, port uint16) (*Conn, error) {
	return st.bind(netip.Addr{}, ifc, port)
}

func (st *Stack) bind(addr netip.Addr, ifc *stack.NetIf, port uint16) (*Conn, error) {
	if port == 0 {
		port = st.allocPort()
		if port == 0 {
			return nil, errPortInUse
		}
	}
	k := ifPort{port, ifc}
	e := st.conns[k]
	last := &e.head
	for c := e.head; c != nil; c = c.next {
		if c.localAddr == addr && !c.remoteAddr.IsValid() {
			return nil, fmt.Errorf("%w: %d", errPortInUse, port)
		}
		last = &c.next
	}
	c := &Conn{
		st:        st,
		localAddr: addr,
		iface:     ifc,
		localPort: port,
	}
	c.rx.Init(st.s)
	*last = c
	st.conns[k] = e
	if ifc != nil {
		st.addBound(port, 1)
	}
	return c, nil
}

// addBound adjusts the count of interface-bound sockets on port.
func (st *Stack) addBound(port uint16, n int) {
	k := ifPort{port, nil}
	e := st.conns[k]
	e.bound += n
	st.put(k, e)
}

// put stores entry e under k, or drops k once e is empty.
func (st *Stack) put(k ifPort, e sockets) {
	if e.head == nil && e.bound == 0 {
		delete(st.conns, k)
	} else {
		st.conns[k] = e
	}
}

// Dial opens a connected socket toward remote:rport from an ephemeral
// local port.
func (st *Stack) Dial(remote netip.Addr, rport uint16) (*Conn, error) {
	c, err := st.Bind(netip.Addr{}, 0)
	if err != nil {
		return nil, err
	}
	c.remoteAddr = remote
	c.remotePort = rport
	return c, nil
}

func (st *Stack) allocPort() uint16 {
	for i := 0; i < 65536; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort == 0 {
			st.nextPort = 32768
		}
		if p < 1024 {
			continue
		}
		if _, held := st.conns[ifPort{p, nil}]; !held {
			return p
		}
	}
	return 0
}

// LocalPort returns the bound local port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// Close releases the socket.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	st := c.st
	k := ifPort{c.localPort, c.iface}
	e := st.conns[k]
	for p := &e.head; *p != nil; p = &(*p).next {
		if *p == c {
			*p, c.next = c.next, nil
			break
		}
	}
	st.put(k, e)
	if c.iface != nil {
		st.addBound(c.localPort, -1)
	}
	c.rx.Close()
}

// SendTo transmits a datagram to dst:dport. It returns false if the host
// has no route.
func (c *Conn) SendTo(dst netip.Addr, dport uint16, data []byte) bool {
	return c.st.send(c.localAddr, dst, c.localPort, dport, 0, data, nil)
}

// Send transmits on a connected socket.
func (c *Conn) Send(data []byte) bool {
	if !c.remoteAddr.IsValid() {
		return false
	}
	return c.SendTo(c.remoteAddr, c.remotePort, data)
}

// SendWithOptions transmits with explicit IP options (e.g. Record Route).
func (c *Conn) SendWithOptions(dst netip.Addr, dport uint16, data, ipOptions []byte) bool {
	return c.st.send(c.localAddr, dst, c.localPort, dport, 0, data, ipOptions)
}

// SendTTL transmits with an explicit TTL (0 = default).
func (c *Conn) SendTTL(dst netip.Addr, dport uint16, data []byte, ttl uint8) bool {
	return c.st.send(c.localAddr, dst, c.localPort, dport, ttl, data, nil)
}

// SendOnce sends one datagram to dst:dport from a fresh ephemeral port
// and releases the port at once: Dial, SendTo and Close in one step,
// for a datagram that needs no reply, without building a socket. It
// takes the port Dial would and fails as Dial does when none is free;
// a destination without a route drops the datagram, as SendTo does.
//
// The two are equivalent because no simulated time passes between Dial
// and Close and the send path delivers nothing synchronously (link
// transmission, ARP and queues are all events), so no datagram or ICMP
// error could reach the socket while it existed. Afterwards the port is
// free either way: a datagram to it draws Port Unreachable and an ICMP
// error about it finds no socket.
func (st *Stack) SendOnce(dst netip.Addr, dport uint16, data []byte) error {
	port := st.allocPort()
	if port == 0 {
		return errPortInUse
	}
	st.send(netip.Addr{}, dst, port, dport, 0, data, nil)
	return nil
}

// send transmits a datagram from local port sport (and address src, or
// the route's interface address when src is zero) to dst:dport. It
// returns false if the host has no route.
func (st *Stack) send(src, dst netip.Addr, sport, dport uint16, ttl uint8, data, ipOptions []byte) bool {
	// Check the route before drawing a buffer, and take the source
	// address from it when unbound, so the UDP checksum's pseudo-header
	// matches the IP header we will emit.
	r, ok := st.h.Lookup(dst)
	if !ok {
		return false
	}
	if !src.IsValid() {
		src = r.If.Addr
	}
	pool := st.s.Pool()
	ip := pool.GetPacket()
	ip.Protocol, ip.Src, ip.Dst, ip.TTL, ip.Options = netpkt.ProtoUDP, src, dst, ttl, ipOptions
	// The datagram goes straight into the pooled buffer that becomes
	// the frame: the host writes only the IP header in front of it, and
	// recycles the record once the frame is built.
	u := netpkt.UDP{SrcPort: sport, DstPort: dport, Payload: data}
	ip.Payload = u.AppendMarshal(ip.Reserve(pool, 8+len(data)), src, dst)
	// Send along the route already found (Host.Send would look it up
	// again).
	nh := r.NextHop
	if !nh.IsValid() {
		nh = dst
	}
	st.h.SendVia(r.If, nh, ip)
	return true
}

// Recv waits for the next datagram. ok is false on timeout or close.
// It must be called from a simulator process.
func (c *Conn) Recv(p *sim.Proc, timeout time.Duration) (Datagram, bool) {
	return c.rx.Recv(p, timeout)
}

// Serve makes fn the socket's only receiver: fn handles each datagram
// in an event callback, in arrival order, and must not block (see
// sim.Chan.Serve). A server that only answers what it receives runs as
// a handler instead of a process.
func (c *Conn) Serve(fn func(Datagram)) { c.rx.Serve(fn) }

// TryRecv returns a buffered datagram without blocking.
func (c *Conn) TryRecv() (Datagram, bool) { return c.rx.TryRecv() }

// Drain discards buffered datagrams.
func (c *Conn) Drain() int { return c.rx.Drain() }

// input delivers a datagram to its socket. The payload is copied out,
// so nothing keeps a view of the frame and the host may recycle it.
func (st *Stack) input(ifc *stack.NetIf, ip *netpkt.IPv4) (kept bool) {
	var u netpkt.UDP
	if u.Parse(ip.Payload, ip.Src, ip.Dst, true) != nil {
		return false
	}
	if c := st.demux(ifc, ip.Dst, ip.Src, u.SrcPort, u.DstPort); c != nil {
		c.rx.Send(Datagram{From: ip.Src, FromPort: u.SrcPort, To: ip.Dst, ToPort: u.DstPort, TTL: ip.TTL, If: ifc, Data: st.keep(u.Payload)})
		return false
	}
	if st.GeneratePortUnreachable {
		st.h.SendICMPError(ip, netpkt.ICMPDestUnreachable, netpkt.ICMPCodePortUnreachable, 0)
	}
	return false
}

// demux returns the socket a datagram to dst:dport from src:sport,
// arriving on ifc, is delivered to: the most specific match (connected
// > interface-bound > address-bound > wildcard), the earliest bound
// among equals. An interface-bound socket scores 2, 3, 6 or 7 and one
// bound to no interface 0, 1, 4 or 5, so the best of each group is
// found on its own and the two never tie.
func (st *Stack) demux(ifc *stack.NetIf, dst, src netip.Addr, sport, dport uint16) *Conn {
	e, ok := st.conns[ifPort{dport, nil}]
	if !ok {
		return nil
	}
	c, score := bestMatch(e.head, 0, dst, src, sport)
	if e.bound > 0 {
		if cb, sb := bestMatch(st.conns[ifPort{dport, ifc}].head, 2, dst, src, sport); sb > score {
			c = cb
		}
	}
	return c
}

// bestMatch returns the most specific socket in the list at head that
// accepts a datagram to dst from src:sport, the earliest among equals,
// and its score; base is the score of the interface binding, which the
// caller has matched. The score is -1 when none accepts it.
func bestMatch(head *Conn, base int, dst, src netip.Addr, sport uint16) (*Conn, int) {
	var best *Conn
	bestScore := -1
	for c := head; c != nil; c = c.next {
		score := base
		if c.localAddr.IsValid() {
			if c.localAddr != dst {
				continue
			}
			score++
		}
		if c.remoteAddr.IsValid() {
			if c.remoteAddr != src || c.remotePort != sport {
				continue
			}
			score += 4
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best, bestScore
}

// Payload chunks start small and double up to a cap, which bounds what
// one kept datagram holds in memory. They serve the small datagrams
// that busy stacks receive by the thousand; a payload above bigPayload
// gets a copy of its own, so a stack that receives only a few large
// ones (a gateway's DHCP exchange) keeps no chunk alive.
const (
	firstChunk = 128
	maxChunk   = 2 << 10
	bigPayload = 128
)

// keep copies a delivered payload into the stack's chunk storage. The
// copy's capacity is capped at its length, so an append by its holder
// reallocates instead of reaching bytes handed out later.
func (st *Stack) keep(p []byte) []byte {
	if len(p) > bigPayload {
		return slices.Clip(bytes.Clone(p))
	}
	if st.chunk == nil || cap(st.chunk)-len(st.chunk) < len(p) {
		n := min(max(2*cap(st.chunk), firstChunk), maxChunk)
		st.chunk = make([]byte, 0, max(n, len(p)))
	}
	off := len(st.chunk)
	st.chunk = append(st.chunk, p...)
	return st.chunk[off:len(st.chunk):len(st.chunk)]
}
