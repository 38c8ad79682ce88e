// Package sctp implements a minimal single-homed, single-stream SCTP
// endpoint: the full four-way association handshake (INIT, INIT-ACK,
// COOKIE-ECHO, COOKIE-ACK), DATA/SACK exchange and SHUTDOWN. It is the
// workload behind the paper's Table 2 "SCTP: Conn." column.
//
// Endpoints verify the CRC32c packet checksum, which — crucially — does
// not cover an IP pseudo-header, so associations survive NATs that
// translate only the IP source address.
package sctp

import (
	"errors"
	"net/netip"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// Errors returned by association operations.
var (
	ErrTimeout = errors.New("sctp: timed out")
	ErrClosed  = errors.New("sctp: association closed")
)

type key struct {
	lport  uint16
	remote netip.Addr
	rport  uint16
}

// Stack manages the SCTP associations of one host.
type Stack struct {
	h         *stack.Host
	s         *sim.Sim
	assocs    map[key]*Assoc
	listeners map[uint16]*Listener
	nextPort  uint16
	nextTag   uint32
}

// New attaches an SCTP stack to host h.
func New(h *stack.Host) *Stack {
	st := &Stack{
		h: h, s: h.S,
		assocs:    make(map[key]*Assoc),
		listeners: make(map[uint16]*Listener),
		nextPort:  40000,
	}
	h.Handle(netpkt.ProtoSCTP, func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		st.input(ifc, ip)
		return false // ParseSCTP copies every chunk value it returns
	})
	return st
}

// Listener accepts inbound associations.
type Listener struct {
	st      *Stack
	port    uint16
	backlog *sim.Chan[*Assoc]
}

// Listen opens a listener on port.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if _, ok := st.listeners[port]; ok {
		return nil, errors.New("sctp: port in use")
	}
	l := &Listener{st: st, port: port, backlog: sim.NewChan[*Assoc](st.s)}
	st.listeners[port] = l
	return l, nil
}

// Accept waits for an established inbound association.
func (l *Listener) Accept(p *sim.Proc, timeout time.Duration) (*Assoc, error) {
	a, ok := l.backlog.Recv(p, timeout)
	if !ok {
		return nil, ErrTimeout
	}
	return a, nil
}

// Assoc is one SCTP association endpoint.
type Assoc struct {
	st      *Stack
	key     key
	local   netip.Addr
	myTag   uint32 // our verification tag (peer puts it in headers to us)
	peerTag uint32
	state   int // 0 closed, 1 cookie-wait, 2 cookie-echoed, 3 established
	sndTSN  uint32
	rcvTSN  uint32
	rx      *sim.Chan[[]byte]
	estabN  *sim.Chan[error]
	// parentBacklog, when non-nil, is the listener queue this passive
	// association joins once established.
	parentBacklog *sim.Chan[*Assoc]
}

func (st *Stack) allocPort() uint16 {
	for i := 0; i < 65536; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort < 1024 {
			st.nextPort = 40000
		}
		if !st.portUsed(p) {
			return p
		}
	}
	return 0
}

// portUsed reports whether any association occupies local port p. The
// early return makes the map iteration order-insensitive.
func (st *Stack) portUsed(p uint16) bool {
	for k := range st.assocs {
		if k.lport == p {
			return true
		}
	}
	return false
}

func (st *Stack) newTag() uint32 {
	st.nextTag += 2654435761
	return st.nextTag | 1
}

// Connect establishes an association to remote:rport, retrying the INIT
// a few times. It must be called from a simulator process.
func (st *Stack) Connect(p *sim.Proc, remote netip.Addr, rport uint16, timeout time.Duration) (*Assoc, error) {
	r, ok := st.h.Lookup(remote)
	if !ok {
		return nil, errors.New("sctp: no route")
	}
	a := &Assoc{
		st:     st,
		key:    key{lport: st.allocPort(), remote: remote, rport: rport},
		local:  r.If.Addr,
		myTag:  st.newTag(),
		state:  1,
		rx:     sim.NewChan[[]byte](st.s),
		estabN: sim.NewChan[error](st.s),
	}
	a.sndTSN = a.myTag // arbitrary initial TSN
	st.assocs[a.key] = a

	deadline := st.s.Now() + timeout
	for st.s.Now() < deadline {
		a.send(0, []netpkt.SCTPChunk{{
			Type:  netpkt.SCTPChunkInit,
			Value: netpkt.SCTPInitValue(a.myTag, 65536, 1, 1, a.sndTSN),
		}})
		remain := deadline - st.s.Now()
		if remain > time.Second {
			remain = time.Second
		}
		if err, got := a.estabN.Recv(p, remain); got {
			if err != nil {
				delete(st.assocs, a.key)
				return nil, err
			}
			return a, nil
		}
	}
	delete(st.assocs, a.key)
	return nil, ErrTimeout
}

// send emits chunks with the given verification tag.
func (a *Assoc) send(vtag uint32, chunks []netpkt.SCTPChunk) {
	pkt := &netpkt.SCTP{SrcPort: a.key.lport, DstPort: a.key.rport, VTag: vtag, Chunks: chunks}
	a.st.h.Send(&netpkt.IPv4{
		Protocol: netpkt.ProtoSCTP,
		Src:      a.local, Dst: a.key.remote,
		Payload: pkt.Marshal(),
	})
}

// Send transmits one user message as a single DATA chunk and returns
// when it is SACKed (or errors on timeout).
func (a *Assoc) Send(p *sim.Proc, data []byte) error {
	if a.state != 3 {
		return ErrClosed
	}
	a.sndTSN++
	for attempt := 0; attempt < 4; attempt++ {
		a.send(a.peerTag, []netpkt.SCTPChunk{{
			Type: netpkt.SCTPChunkData, Flags: 3, // unfragmented
			Value: netpkt.SCTPDataValue(a.sndTSN, 0, 0, 0, data),
		}})
		if err, got := a.estabN.Recv(p, time.Second); got {
			return err
		}
	}
	return ErrTimeout
}

// Shutdown tears the association down.
func (a *Assoc) Shutdown() {
	if a.state == 3 {
		a.send(a.peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkShutdown, Value: make([]byte, 4)}})
	}
	a.state = 0
	delete(a.st.assocs, a.key)
}

func (st *Stack) input(ifc *stack.NetIf, ip *netpkt.IPv4) {
	pkt, err := netpkt.ParseSCTP(ip.Payload, true)
	if err != nil {
		return // bad CRC32c: drop silently
	}
	k := key{lport: pkt.DstPort, remote: ip.Src, rport: pkt.SrcPort}
	if a, ok := st.assocs[k]; ok {
		a.handle(pkt)
		return
	}
	// New association? Must start with INIT to a listener.
	if l, ok := st.listeners[pkt.DstPort]; ok && len(pkt.Chunks) > 0 && pkt.Chunks[0].Type == netpkt.SCTPChunkInit {
		st.acceptInit(l, k, ip, pkt)
	}
}

func (st *Stack) acceptInit(l *Listener, k key, ip *netpkt.IPv4, pkt *netpkt.SCTP) {
	peerTag, _, _, _, peerTSN, ok := netpkt.SCTPParseInit(pkt.Chunks[0].Value)
	if !ok {
		return
	}
	a := &Assoc{
		st:      st,
		key:     k,
		local:   ip.Dst,
		myTag:   st.newTag(),
		peerTag: peerTag,
		state:   2,
		rcvTSN:  peerTSN,
		rx:      sim.NewChan[[]byte](st.s),
		estabN:  sim.NewChan[error](st.s),
	}
	a.sndTSN = a.myTag
	a.parentBacklog = l.backlog
	st.assocs[k] = a
	// INIT-ACK carries a "cookie"; we keep the state locally (a
	// simplification that preserves the wire exchange).
	a.send(peerTag, []netpkt.SCTPChunk{
		{Type: netpkt.SCTPChunkInitAck, Value: netpkt.SCTPInitValue(a.myTag, 65536, 1, 1, a.sndTSN)},
	})
}

func (a *Assoc) handle(pkt *netpkt.SCTP) {
	for _, c := range pkt.Chunks {
		switch c.Type {
		case netpkt.SCTPChunkInit:
			// Duplicate INIT (our INIT-ACK was lost): re-answer.
			if a.state == 2 {
				a.send(a.peerTag, []netpkt.SCTPChunk{
					{Type: netpkt.SCTPChunkInitAck, Value: netpkt.SCTPInitValue(a.myTag, 65536, 1, 1, a.sndTSN)},
				})
			}
		case netpkt.SCTPChunkInitAck:
			if a.state != 1 {
				continue
			}
			peerTag, _, _, _, peerTSN, ok := netpkt.SCTPParseInit(c.Value)
			if !ok {
				continue
			}
			a.peerTag = peerTag
			a.rcvTSN = peerTSN
			a.send(peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkCookieEcho, Value: []byte("hgw-cookie")}})
			a.state = 2
		case netpkt.SCTPChunkCookieEcho:
			if a.state == 2 && a.parentBacklog != nil {
				a.state = 3
				a.send(a.peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkCookieAck}})
				a.parentBacklog.Send(a)
				a.parentBacklog = nil
			} else if a.state == 3 {
				a.send(a.peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkCookieAck}})
			}
		case netpkt.SCTPChunkCookieAck:
			if a.state == 2 && a.parentBacklog == nil {
				a.state = 3
				a.estabN.Send(nil)
			}
		case netpkt.SCTPChunkData:
			tsn, _, _, _, data, ok := netpkt.SCTPParseData(c.Value)
			if !ok || a.state != 3 {
				continue
			}
			if tsn == a.rcvTSN+1 {
				a.rcvTSN = tsn
				a.rx.Send(data)
			}
			a.send(a.peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkSack, Value: netpkt.SCTPSackValue(a.rcvTSN, 65536)}})
		case netpkt.SCTPChunkSack:
			if a.state == 3 {
				a.estabN.Send(nil)
			}
		case netpkt.SCTPChunkShutdown:
			a.send(a.peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkShutdownAck}})
			a.state = 0
			delete(a.st.assocs, a.key)
		case netpkt.SCTPChunkShutdownAck:
			a.send(a.peerTag, []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkShutdownComplete}})
			a.state = 0
			delete(a.st.assocs, a.key)
		case netpkt.SCTPChunkAbort:
			a.state = 0
			delete(a.st.assocs, a.key)
			a.estabN.Send(ErrClosed)
		}
	}
}
