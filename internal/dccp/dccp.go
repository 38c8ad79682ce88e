// Package dccp implements a minimal DCCP endpoint: the Request/Response
// /Ack connection handshake and Data/DataAck exchange behind the paper's
// Table 2 "DCCP: Conn." column.
//
// DCCP's checksum is the internet checksum over an IPv4 pseudo-header,
// so — unlike SCTP — packets whose IP source address was rewritten by a
// NAT without a DCCP-aware checksum fix fail verification and are
// dropped, which is why the paper found no gateway that passed DCCP.
package dccp

import (
	"errors"
	"net/netip"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// Errors returned by connection operations.
var (
	ErrTimeout = errors.New("dccp: timed out")
	ErrClosed  = errors.New("dccp: connection closed")
	ErrReset   = errors.New("dccp: connection reset")
)

// ServiceCode used by the testbed workload.
const ServiceCode = 0x68677730 // "hgw0"

type key struct {
	lport  uint16
	remote netip.Addr
	rport  uint16
}

// Stack manages the DCCP connections of one host.
type Stack struct {
	h         *stack.Host
	s         *sim.Sim
	conns     map[key]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	seqSeed   uint64
}

// New attaches a DCCP stack to host h.
func New(h *stack.Host) *Stack {
	st := &Stack{
		h: h, s: h.S,
		conns:     make(map[key]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  45000,
	}
	h.Handle(netpkt.ProtoDCCP, func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		st.input(ifc, ip)
		return false // ParseDCCP copies the payload it returns
	})
	return st
}

// Listener accepts inbound connections.
type Listener struct {
	st      *Stack
	port    uint16
	backlog *sim.Chan[*Conn]
}

// Listen opens a listener on port.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if _, ok := st.listeners[port]; ok {
		return nil, errors.New("dccp: port in use")
	}
	l := &Listener{st: st, port: port, backlog: sim.NewChan[*Conn](st.s)}
	st.listeners[port] = l
	return l, nil
}

// Accept waits for an established inbound connection.
func (l *Listener) Accept(p *sim.Proc, timeout time.Duration) (*Conn, error) {
	c, ok := l.backlog.Recv(p, timeout)
	if !ok {
		return nil, ErrTimeout
	}
	return c, nil
}

// Conn is one DCCP connection endpoint.
type Conn struct {
	st      *Stack
	key     key
	local   netip.Addr
	state   int // 0 closed, 1 request, 2 partopen, 3 open
	sndSeq  uint64
	rcvSeq  uint64
	rx      *sim.Chan[[]byte]
	estabN  *sim.Chan[error]
	ackN    *sim.Chan[struct{}]
	passive bool
	backlog *sim.Chan[*Conn]
}

func (st *Stack) allocPort() uint16 {
	for i := 0; i < 65536; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort < 1024 {
			st.nextPort = 45000
		}
		if !st.portUsed(p) {
			return p
		}
	}
	return 0
}

// portUsed reports whether any connection occupies local port p. The
// early return makes the map iteration order-insensitive.
func (st *Stack) portUsed(p uint16) bool {
	for k := range st.conns {
		if k.lport == p {
			return true
		}
	}
	return false
}

func (st *Stack) nextSeq() uint64 {
	st.seqSeed += 99991
	return st.seqSeed & 0xffffffffffff
}

// Connect establishes a connection to remote:rport, retrying the Request
// a few times within timeout. It must be called from a simulator process.
func (st *Stack) Connect(p *sim.Proc, remote netip.Addr, rport uint16, timeout time.Duration) (*Conn, error) {
	r, ok := st.h.Lookup(remote)
	if !ok {
		return nil, errors.New("dccp: no route")
	}
	c := &Conn{
		st:     st,
		key:    key{lport: st.allocPort(), remote: remote, rport: rport},
		local:  r.If.Addr,
		state:  1,
		sndSeq: st.nextSeq(),
		rx:     sim.NewChan[[]byte](st.s),
		estabN: sim.NewChan[error](st.s),
		ackN:   sim.NewChan[struct{}](st.s),
	}
	st.conns[c.key] = c
	deadline := st.s.Now() + timeout
	for st.s.Now() < deadline {
		c.sndSeq++
		c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPRequest, Seq: c.sndSeq, ServiceCode: ServiceCode})
		remain := deadline - st.s.Now()
		if remain > time.Second {
			remain = time.Second
		}
		if err, got := c.estabN.Recv(p, remain); got {
			if err != nil {
				delete(st.conns, c.key)
				return nil, err
			}
			return c, nil
		}
	}
	delete(st.conns, c.key)
	return nil, ErrTimeout
}

func (c *Conn) sendPkt(d *netpkt.DCCP) {
	d.SrcPort = c.key.lport
	d.DstPort = c.key.rport
	c.st.h.Send(&netpkt.IPv4{
		Protocol: netpkt.ProtoDCCP,
		Src:      c.local, Dst: c.key.remote,
		Payload: d.Marshal(c.local, c.key.remote),
	})
}

// Send transmits one datagram as DCCP Data and waits for the peer's Ack.
func (c *Conn) Send(p *sim.Proc, data []byte) error {
	if c.state != 3 {
		return ErrClosed
	}
	for attempt := 0; attempt < 4; attempt++ {
		c.sndSeq++
		c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPDataAck, Seq: c.sndSeq, Ack: c.rcvSeq, Payload: data})
		if _, got := c.ackN.Recv(p, time.Second); got {
			return nil
		}
	}
	return ErrTimeout
}

// Close tears the connection down.
func (c *Conn) Close() {
	if c.state == 3 {
		c.sndSeq++
		c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPClose, Seq: c.sndSeq, Ack: c.rcvSeq})
	}
	c.state = 0
	delete(c.st.conns, c.key)
}

func (st *Stack) input(ifc *stack.NetIf, ip *netpkt.IPv4) {
	// Strict checksum verification against the addresses on the wire:
	// this is the code path that kills DCCP behind IP-only translators.
	d, err := netpkt.ParseDCCP(ip.Payload, ip.Src, ip.Dst, true)
	if err != nil {
		return
	}
	k := key{lport: d.DstPort, remote: ip.Src, rport: d.SrcPort}
	if c, ok := st.conns[k]; ok {
		c.handle(d)
		return
	}
	if l, ok := st.listeners[d.DstPort]; ok && d.Type == netpkt.DCCPRequest {
		c := &Conn{
			st:      st,
			key:     k,
			local:   ip.Dst,
			state:   2,
			sndSeq:  st.nextSeq(),
			rcvSeq:  d.Seq,
			rx:      sim.NewChan[[]byte](st.s),
			estabN:  sim.NewChan[error](st.s),
			ackN:    sim.NewChan[struct{}](st.s),
			passive: true,
			backlog: l.backlog,
		}
		st.conns[k] = c
		c.sndSeq++
		c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPResponse, Seq: c.sndSeq, Ack: d.Seq, ServiceCode: d.ServiceCode})
	}
}

func (c *Conn) handle(d *netpkt.DCCP) {
	switch d.Type {
	case netpkt.DCCPRequest:
		// Retransmitted Request: re-answer.
		if c.passive && c.state == 2 {
			c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPResponse, Seq: c.sndSeq, Ack: d.Seq, ServiceCode: d.ServiceCode})
		}
	case netpkt.DCCPResponse:
		if c.state == 1 {
			c.state = 3
			c.rcvSeq = d.Seq
			c.sndSeq++
			c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPAck, Seq: c.sndSeq, Ack: d.Seq})
			c.estabN.Send(nil)
		}
	case netpkt.DCCPAck:
		if c.passive && c.state == 2 {
			c.state = 3
			c.rcvSeq = d.Seq
			if c.backlog != nil {
				c.backlog.Send(c)
				c.backlog = nil
			}
			return
		}
		if c.state == 3 && c.ackN.Len() == 0 {
			c.ackN.Send(struct{}{})
		}
	case netpkt.DCCPData, netpkt.DCCPDataAck:
		if c.passive && c.state == 2 {
			// Handshake-completing packet carried data.
			c.state = 3
			if c.backlog != nil {
				c.backlog.Send(c)
				c.backlog = nil
			}
		}
		if c.state != 3 {
			return
		}
		c.rcvSeq = d.Seq
		c.rx.Send(d.Payload)
		c.sndSeq++
		c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPAck, Seq: c.sndSeq, Ack: d.Seq})
		if d.Type == netpkt.DCCPDataAck && c.ackN.Len() == 0 {
			c.ackN.Send(struct{}{})
		}
	case netpkt.DCCPClose:
		c.sndSeq++
		c.sendPkt(&netpkt.DCCP{Type: netpkt.DCCPReset, Seq: c.sndSeq, Ack: d.Seq})
		c.state = 0
		delete(c.st.conns, c.key)
	case netpkt.DCCPReset:
		c.state = 0
		delete(c.st.conns, c.key)
		c.estabN.Send(ErrReset)
	}
}
