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
	h        *stack.Host
	s        *sim.Sim
	conns    map[uint16][]*Conn // by local port
	nextPort uint16

	// chunk is append-only storage for delivered payloads: each
	// Datagram.Data is a capacity-capped slice of a chunk, and no byte
	// of a chunk is written again once handed out, so a Datagram's
	// Data stays valid for as long as its holder keeps it.
	chunk []byte

	// GeneratePortUnreachable controls whether datagrams to closed
	// ports trigger ICMP Port Unreachable (true for real hosts).
	GeneratePortUnreachable bool
}

// New attaches a UDP stack to host h.
func New(h *stack.Host) *Stack {
	st := &Stack{
		h:                       h,
		s:                       h.S,
		conns:                   make(map[uint16][]*Conn),
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
	localPort  uint16
	remoteAddr netip.Addr
	remotePort uint16
	rx         sim.Chan[Datagram]
	icmp       *sim.Chan[ICMPEvent] // created on first use; most sockets never see ICMP
	closed     bool
	// first backs the port's entry in st.conns while this socket is
	// the port's only one, so binding a free port allocates only the
	// Conn; a second socket on the port moves the entry to the heap.
	first [1]*Conn
}

// ICMPEvent reports an ICMP error received about this socket's traffic.
type ICMPEvent struct {
	From netip.Addr
	Type uint8
	Code uint8
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
	} else {
		for _, c := range st.conns[port] {
			if c.localAddr == addr && c.iface == ifc && !c.remoteAddr.IsValid() {
				return nil, fmt.Errorf("%w: %d", errPortInUse, port)
			}
		}
	}
	c := &Conn{
		st:        st,
		localAddr: addr,
		iface:     ifc,
		localPort: port,
	}
	c.rx.Init(st.s)
	if lst := st.conns[port]; len(lst) > 0 {
		st.conns[port] = append(lst, c)
	} else {
		c.first[0] = c
		st.conns[port] = c.first[:]
	}
	return c, nil
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
		if len(st.conns[p]) == 0 {
			return p
		}
	}
	return 0
}

// LocalPort returns the bound local port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// RemoteAddr returns the connected peer address (zero if unconnected).
func (c *Conn) RemoteAddr() (netip.Addr, uint16) { return c.remoteAddr, c.remotePort }

// Close releases the socket.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	lst := c.st.conns[c.localPort]
	for i, x := range lst {
		if x == c {
			c.st.conns[c.localPort] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if len(c.st.conns[c.localPort]) == 0 {
		delete(c.st.conns, c.localPort)
	}
	c.rx.Close()
	if c.icmp != nil {
		c.icmp.Close()
	}
}

// icmpChan returns the socket's ICMP error channel, creating it on
// first use (closed already if the socket is).
func (c *Conn) icmpChan() *sim.Chan[ICMPEvent] {
	if c.icmp == nil {
		c.icmp = sim.NewChan[ICMPEvent](c.st.s)
		if c.closed {
			c.icmp.Close()
		}
	}
	return c.icmp
}

// SendTo transmits a datagram to dst:dport. It returns false if the host
// has no route.
func (c *Conn) SendTo(dst netip.Addr, dport uint16, data []byte) bool {
	return c.sendFrom(c.localAddr, dst, dport, data, 0)
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
	return c.sendFrom2(c.localAddr, dst, dport, data, 0, ipOptions)
}

// SendTTL transmits with an explicit TTL (0 = default).
func (c *Conn) SendTTL(dst netip.Addr, dport uint16, data []byte, ttl uint8) bool {
	return c.sendFrom(c.localAddr, dst, dport, data, ttl)
}

func (c *Conn) sendFrom(src, dst netip.Addr, dport uint16, data []byte, ttl uint8) bool {
	return c.sendFrom2(src, dst, dport, data, ttl, nil)
}

func (c *Conn) sendFrom2(src, dst netip.Addr, dport uint16, data []byte, ttl uint8, ipOptions []byte) bool {
	// Check the route before drawing a buffer, and take the source
	// address from it when unbound, so the UDP checksum's pseudo-header
	// matches the IP header we will emit.
	r, ok := c.st.h.Lookup(dst)
	if !ok {
		return false
	}
	if !src.IsValid() {
		src = r.If.Addr
	}
	ip := netpkt.GetPacket()
	ip.Protocol, ip.Src, ip.Dst, ip.TTL, ip.Options = netpkt.ProtoUDP, src, dst, ttl, ipOptions
	// The datagram goes straight into the pooled buffer that becomes
	// the frame: the host writes only the IP header in front of it, and
	// recycles the record once the frame is built.
	u := netpkt.UDP{SrcPort: c.localPort, DstPort: dport, Payload: data}
	ip.Payload = u.AppendMarshal(ip.Reserve(8+len(data)), src, dst)
	return c.st.h.Send(ip)
}

// Recv waits for the next datagram. ok is false on timeout or close.
// It must be called from a simulator process.
func (c *Conn) Recv(p *sim.Proc, timeout time.Duration) (Datagram, bool) {
	return c.rx.Recv(p, timeout)
}

// TryRecv returns a buffered datagram without blocking.
func (c *Conn) TryRecv() (Datagram, bool) { return c.rx.TryRecv() }

// RecvICMP waits for an ICMP error concerning this socket.
func (c *Conn) RecvICMP(p *sim.Proc, timeout time.Duration) (ICMPEvent, bool) {
	return c.icmpChan().Recv(p, timeout)
}

// Drain discards buffered datagrams.
func (c *Conn) Drain() int { return c.rx.Drain() }

// input delivers a datagram to its socket. The payload is copied out,
// so nothing keeps a view of the frame and the host may recycle it.
func (st *Stack) input(ifc *stack.NetIf, ip *netpkt.IPv4) (kept bool) {
	var u netpkt.UDP
	if u.Parse(ip.Payload, ip.Src, ip.Dst, true) != nil {
		return false
	}
	// Most-specific match wins: connected > interface-bound >
	// address-bound > wildcard.
	var best *Conn
	bestScore := -1
	for _, c := range st.conns[u.DstPort] {
		if c.localAddr.IsValid() && c.localAddr != ip.Dst {
			continue
		}
		if c.iface != nil && c.iface != ifc {
			continue
		}
		score := 0
		if c.localAddr.IsValid() {
			score += 1
		}
		if c.iface != nil {
			score += 2
		}
		if c.remoteAddr.IsValid() {
			if c.remoteAddr != ip.Src || c.remotePort != u.SrcPort {
				continue
			}
			score += 4
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	if best != nil {
		best.rx.Send(Datagram{From: ip.Src, FromPort: u.SrcPort, To: ip.Dst, ToPort: u.DstPort, TTL: ip.TTL, If: ifc, Data: st.keep(u.Payload)})
		return false
	}
	if st.GeneratePortUnreachable {
		st.h.SendICMPError(ip, netpkt.ICMPDestUnreachable, netpkt.ICMPCodePortUnreachable, 0)
	}
	return false
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

// DeliverICMP routes an ICMP error to the socket that sent the embedded
// datagram. The stack wires this up automatically.
func (st *Stack) deliverICMP(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
	if inner == nil || inner.Protocol != netpkt.ProtoUDP {
		return
	}
	sport, dport, ok := netpkt.UDPPorts(inner.Payload)
	if !ok {
		return
	}
	for _, c := range st.conns[sport] {
		if c.remoteAddr.IsValid() && (c.remoteAddr != inner.Dst || c.remotePort != dport) {
			continue
		}
		c.icmpChan().Send(ICMPEvent{From: from, Type: ic.Type, Code: ic.Code})
		return
	}
}

// EnableICMPErrors subscribes the UDP stack to host ICMP errors so that
// sockets can observe them via RecvICMP.
func (st *Stack) EnableICMPErrors() {
	st.h.ListenICMP(st.deliverICMP)
}
