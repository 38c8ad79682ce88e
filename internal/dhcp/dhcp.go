// Package dhcp implements the DHCP message format plus the small server
// and client used by the testbed: the test server leases a distinct
// private address block to each gateway's WAN port, and each gateway
// leases LAN addresses to the test client's per-VLAN interfaces — as in
// the paper's Figure 1. The client reproduces the paper's modified
// behavior of installing only interface-specific routes.
package dhcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/udp"
)

// DHCP message types (option 53).
const (
	Discover = 1
	Offer    = 2
	Request  = 3
	Decline  = 4
	Ack      = 5
	Nak      = 6
	Release  = 7
)

// Option codes used by the testbed.
const (
	OptSubnetMask  = 1
	OptRouter      = 3
	OptDNS         = 6
	OptRequestedIP = 50
	OptLeaseTime   = 51
	OptMsgType     = 53
	OptServerID    = 54
	OptEnd         = 255
)

// Ports.
const (
	ServerPort = 67
	ClientPort = 68
)

var magicCookie = [4]byte{99, 130, 83, 99}

// maxMessage is the largest message every DHCP node must accept (RFC
// 2131); the testbed's are 244–274 bytes.
const maxMessage = 576

// Message is a DHCP message. Its options sit in a short list, not a
// map: a message carries a handful, and marshaling walks them in order.
// A Message is reusable: Parse keeps its storage.
type Message struct {
	Op     uint8 // 1 request, 2 reply
	XID    uint32
	CIAddr netip.Addr
	YIAddr netip.Addr
	SIAddr netip.Addr
	GIAddr netip.Addr
	CHAddr netpkt.MAC
	// opts holds each present option once, in emit order: message
	// type first, then ascending code.
	opts []option
	// vals backs the option values that setCopy copies in.
	vals []byte
}

// message is a Message with the storage a testbed exchange fills in
// place: an ACK carries six options and 21 bytes of copied values, so
// a message built or parsed here never grows its lists.
type message struct {
	Message
	optBuf [6]option
	valBuf [24]byte
}

// init points the Message at the inline storage and returns it.
func (m *message) init() *Message {
	m.opts, m.vals = m.optBuf[:0], m.valBuf[:0]
	return &m.Message
}

// option is one DHCP option.
type option struct {
	code uint8
	val  []byte
}

// rank orders options for emission: message type first, then by code.
func rank(code uint8) int {
	if code == OptMsgType {
		return 0
	}
	return int(code)
}

// reset empties the message and keeps its storage for reuse.
func (m *Message) reset() {
	clear(m.opts) // drop the values' references
	*m = Message{opts: m.opts[:0], vals: m.vals[:0]}
}

// Option returns the value of option code.
func (m *Message) Option(code uint8) ([]byte, bool) {
	for _, o := range m.opts {
		if o.code == code {
			return o.val, true
		}
	}
	return nil, false
}

// setOption stores v (not a copy) as the value of option code (1 to
// 254), replacing any earlier value.
func (m *Message) setOption(code uint8, v []byte) {
	r := rank(code)
	i := len(m.opts)
	for i > 0 && rank(m.opts[i-1].code) > r {
		i--
	}
	if i > 0 && m.opts[i-1].code == code {
		m.opts[i-1].val = v
		return
	}
	m.opts = slices.Insert(m.opts, i, option{code, v})
}

// setCopy stores a copy of v, kept in the message's own storage, as the
// value of option code.
func (m *Message) setCopy(code uint8, v ...byte) {
	off := len(m.vals)
	m.vals = append(m.vals, v...)
	m.setOption(code, m.vals[off:len(m.vals):len(m.vals)])
}

// Type returns the message type from option 53 (0 if missing).
func (m *Message) Type() uint8 {
	if v, ok := m.Option(OptMsgType); ok && len(v) == 1 {
		return v[0]
	}
	return 0
}

// AddrOption decodes a 4-byte address option.
func (m *Message) AddrOption(code uint8) (netip.Addr, bool) {
	v, ok := m.Option(code)
	if !ok || len(v) != 4 {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4([4]byte(v)), true
}

// SetAddrOption stores a 4-byte address option.
func (m *Message) SetAddrOption(code uint8, a netip.Addr) {
	b := a.As4()
	m.setCopy(code, b[:]...)
}

func addr4OrZero(b []byte) netip.Addr {
	a := netip.AddrFrom4([4]byte(b))
	if a == netpkt.Addr4(0, 0, 0, 0) {
		return netip.Addr{}
	}
	return a
}

func put4(b []byte, a netip.Addr) {
	if a.IsValid() {
		x := a.As4()
		copy(b, x[:])
	}
}

// AppendMarshal serializes the message onto b and returns the extended
// slice. Options come in a fixed order: message type first, then
// ascending code.
func (m *Message) AppendMarshal(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, 240)...)
	h := b[off:]
	h[0] = m.Op
	h[1] = 1 // Ethernet
	h[2] = 6
	binary.BigEndian.PutUint32(h[4:8], m.XID)
	put4(h[12:16], m.CIAddr)
	put4(h[16:20], m.YIAddr)
	put4(h[20:24], m.SIAddr)
	put4(h[24:28], m.GIAddr)
	copy(h[28:34], m.CHAddr[:])
	copy(h[236:240], magicCookie[:])
	for _, o := range m.opts {
		b = append(b, o.code, uint8(len(o.val)))
		b = append(b, o.val...)
	}
	return append(b, OptEnd)
}

// Parse decodes b into m, replacing its contents. Option values are
// views of b, capacity-clipped so that an append to one cannot reach
// the bytes after it; a repeated option keeps its last value. On error
// m holds whatever was decoded before it.
func (m *Message) Parse(b []byte) error {
	m.reset()
	if len(b) < 240 {
		return errors.New("dhcp: short message")
	}
	if [4]byte(b[236:240]) != magicCookie {
		return errors.New("dhcp: bad magic cookie")
	}
	m.Op = b[0]
	m.XID = binary.BigEndian.Uint32(b[4:8])
	m.CIAddr = addr4OrZero(b[12:16])
	m.YIAddr = addr4OrZero(b[16:20])
	m.SIAddr = addr4OrZero(b[20:24])
	m.GIAddr = addr4OrZero(b[24:28])
	copy(m.CHAddr[:], b[28:34])
	opts := b[240:]
	for i := 0; i < len(opts); {
		code := opts[i]
		if code == OptEnd {
			break
		}
		if code == 0 {
			i++
			continue
		}
		if i+1 >= len(opts) {
			return errors.New("dhcp: truncated option")
		}
		end := i + 2 + int(opts[i+1])
		if end > len(opts) {
			return errors.New("dhcp: truncated option value")
		}
		m.setOption(code, opts[i+2:end:end])
		i = end
	}
	return nil
}

// broadcast sends m as a UDP datagram sport -> dport from src to the
// limited broadcast address on ifc, marshaled straight into the pooled
// buffer that becomes the frame.
func broadcast(ifc *stack.NetIf, src netip.Addr, sport, dport uint16, m *Message) {
	dst := netpkt.Addr4(255, 255, 255, 255)
	pool := ifc.Host.S.Pool()
	ip := pool.GetPacket()
	ip.Protocol, ip.Src, ip.Dst, ip.TTL, ip.ID = netpkt.ProtoUDP, src, dst, 64, ifc.Host.NextIPID()
	w := m.AppendMarshal(ip.Reserve(pool, 8+maxMessage)[:8])
	netpkt.PutUDPHeader(w, sport, dport, src, dst)
	ip.Payload = w
	f := pool.GetFrame()
	f.Dst, f.Src = netpkt.BroadcastMAC, ifc.Link.MAC
	f.Type, f.Payload = netpkt.EtherTypeIPv4, ip.MarshalPooled(pool)
	pool.PutPacket(ip)
	ifc.Link.Send(f)
}

// ServerConfig configures a DHCP server on one interface.
type ServerConfig struct {
	If        *stack.NetIf
	PoolStart netip.Addr // first leasable address
	PoolSize  int
	Mask      int // prefix length handed out
	Router    netip.Addr
	DNS       netip.Addr
	Lease     time.Duration
}

// Server is a single-interface DHCP server.
type Server struct {
	cfg ServerConfig
	// leases lists the clients in lease order: client i holds
	// PoolStart+i. A server has one client or a few, and a list costs
	// a fraction of a map.
	leases []netpkt.MAC
	// msg carries each request and then its reply. handle runs to
	// completion without blocking, one datagram at a time as the
	// socket's handler, so one message serves every exchange.
	msg message
}

// NewServer starts a DHCP server on cfg.If.
func NewServer(us *udp.Stack, cfg ServerConfig) (*Server, error) {
	if cfg.Lease == 0 {
		cfg.Lease = time.Hour
	}
	conn, err := us.BindIf(cfg.If, ServerPort)
	if err != nil {
		return nil, err
	}
	srv := &Server{cfg: cfg}
	srv.msg.init()
	conn.Serve(srv.handle)
	return srv, nil
}

func (s *Server) alloc(mac netpkt.MAC) (netip.Addr, bool) {
	i := slices.Index(s.leases, mac)
	if i < 0 {
		if len(s.leases) >= s.cfg.PoolSize {
			return netip.Addr{}, false
		}
		i = len(s.leases)
		s.leases = append(s.leases, mac)
	}
	base := s.cfg.PoolStart.As4()
	return netip.AddrFrom4([4]byte{base[0], base[1], base[2], base[3] + byte(i)}), true
}

func (s *Server) handle(d udp.Datagram) {
	m := &s.msg.Message
	defer m.reset() // drop the views of d.Data
	if m.Parse(d.Data) != nil || m.Op != 1 {
		return
	}
	var mtype uint8
	switch m.Type() {
	case Discover:
		mtype = Offer
	case Request:
		mtype = Ack
	default:
		return
	}
	addr, ok := s.alloc(m.CHAddr)
	if !ok {
		return
	}
	// The reply reuses the request's message.
	xid, chaddr := m.XID, m.CHAddr
	m.reset()
	m.Op, m.XID, m.YIAddr, m.SIAddr, m.CHAddr = 2, xid, addr, s.cfg.If.Addr, chaddr
	m.setCopy(OptMsgType, mtype)
	m.SetAddrOption(OptSubnetMask, netip.AddrFrom4(maskBytes(s.cfg.Mask)))
	if s.cfg.Router.IsValid() {
		m.SetAddrOption(OptRouter, s.cfg.Router)
	}
	if s.cfg.DNS.IsValid() {
		m.SetAddrOption(OptDNS, s.cfg.DNS)
	}
	m.SetAddrOption(OptServerID, s.cfg.If.Addr)
	var lease [4]byte
	binary.BigEndian.PutUint32(lease[:], uint32(s.cfg.Lease/time.Second))
	m.setCopy(OptLeaseTime, lease[:]...)
	// Reply is broadcast: the client has no address yet.
	broadcast(s.cfg.If, s.cfg.If.Addr, ServerPort, ClientPort, m)
}

func maskBytes(plen int) [4]byte {
	var m [4]byte
	for i := 0; i < plen; i++ {
		m[i/8] |= 0x80 >> (i % 8)
	}
	return m
}

// MaskLen converts a netmask to a prefix length.
func MaskLen(mask netip.Addr) int {
	b := mask.As4()
	n := 0
	for _, x := range b {
		for bit := 7; bit >= 0; bit-- {
			if x&(1<<bit) == 0 {
				return n
			}
			n++
		}
	}
	return n
}

// newMessage heap-allocates the message of one Acquire call. It is
// not inlined, so the message cannot become a local in Acquire's frame:
// a simulator process's stack, which the worker coroutine that ran it
// keeps, would grow by the message's size.
//
//go:noinline
func newMessage() *Message { return new(message).init() }

// Lease is the result of a successful client exchange.
type Lease struct {
	Addr   netip.Addr
	Plen   int
	Router netip.Addr
	DNS    netip.Addr
	Server netip.Addr
}

// ClientConfig controls how the DHCP client applies a lease.
type ClientConfig struct {
	// ExtraRoutes are prefixes routed via the learned router in addition
	// to the connected route. The paper's modified client installs only
	// such interface-specific routes (never a default route); leave
	// DefaultRoute false to reproduce that.
	ExtraRoutes  []netip.Prefix
	DefaultRoute bool
}

// The client's retransmission schedule: acquireAttempts DISCOVERs,
// each waiting acquireTimeout for the OFFER and again for the ACK.
const (
	acquireAttempts = 3
	acquireTimeout  = 3 * time.Second
)

// Acquire runs a DISCOVER/OFFER/REQUEST/ACK exchange on ifc, configures
// the interface address and routes per cfg, and returns the lease. It
// must be called from a simulator process.
func Acquire(p *sim.Proc, us *udp.Stack, ifc *stack.NetIf, cfg ClientConfig) (*Lease, error) {
	conn, err := us.BindIf(ifc, ClientPort)
	if err != nil {
		return nil, fmt.Errorf("dhcp: %w", err)
	}
	defer conn.Close()
	h := ifc.Host
	xid := h.S.Rand().Uint32()
	// m carries each outgoing message and then the reply it waits for.
	m := newMessage()

	sendBcast := func(mtype uint8, requested netip.Addr) {
		m.reset()
		m.Op, m.XID, m.CHAddr = 1, xid, ifc.Link.MAC
		m.setCopy(OptMsgType, mtype)
		if requested.IsValid() {
			m.SetAddrOption(OptRequestedIP, requested)
		}
		broadcast(ifc, netpkt.Addr4(0, 0, 0, 0), ClientPort, ServerPort, m)
	}
	recvType := func(want uint8) bool {
		deadline := h.S.Now() + acquireTimeout
		for {
			remain := deadline - h.S.Now()
			if remain <= 0 {
				return false
			}
			d, ok := conn.Recv(p, remain)
			if !ok {
				return false
			}
			if m.Parse(d.Data) != nil || m.Op != 2 || m.XID != xid || m.CHAddr != ifc.Link.MAC {
				continue
			}
			if m.Type() == want {
				return true
			}
		}
	}

	for attempt := 0; attempt < acquireAttempts; attempt++ {
		sendBcast(Discover, netip.Addr{})
		if !recvType(Offer) {
			continue
		}
		sendBcast(Request, m.YIAddr)
		if !recvType(Ack) {
			continue
		}
		lease := &Lease{Addr: m.YIAddr, Plen: 24, Server: m.SIAddr}
		if mask, ok := m.AddrOption(OptSubnetMask); ok {
			lease.Plen = MaskLen(mask)
		}
		lease.Router, _ = m.AddrOption(OptRouter)
		lease.DNS, _ = m.AddrOption(OptDNS)
		// Apply: address, connected route, and per-config routes.
		ifc.SetAddr(lease.Addr, lease.Plen)
		if lease.Router.IsValid() {
			for _, pre := range cfg.ExtraRoutes {
				h.AddRoute(pre, lease.Router, ifc)
			}
			if cfg.DefaultRoute {
				h.AddRoute(netip.PrefixFrom(netpkt.Addr4(0, 0, 0, 0), 0), lease.Router, ifc)
			}
		}
		return lease, nil
	}
	return nil, errors.New("dhcp: no lease acquired")
}
