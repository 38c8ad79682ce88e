// Package tcp implements a from-scratch TCP over the simulated host
// stack, configured like the paper's testbed endpoints: Reno congestion
// control with no SACK, no timestamps and no window scaling (the paper
// explicitly disabled these Linux options), a 16-bit receive window,
// exponential-backoff RTO with Karn's algorithm, and fast
// retransmit/fast recovery.
package tcp

import (
	"errors"
	"io"
	"net/netip"
	"slices"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// State is a TCP connection state.
type State int

// TCP connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{"Closed", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait"}

// String implements fmt.Stringer.
func (s State) String() string { return stateNames[s] }

// Tunables matching the paper's Linux 2.6.26 testbed configuration.
const (
	MSS            = 1460
	recvWndMax     = 65535
	initCwndSegs   = 3
	minRTO         = 200 * time.Millisecond
	maxRTO         = 60 * time.Second
	initialRTO     = time.Second
	msl            = 30 * time.Second
	maxSynRetries  = 6
	maxDataRetries = 12
)

// Errors returned by connection operations.
var (
	ErrTimeout = errors.New("tcp: operation timed out")
	ErrReset   = errors.New("tcp: connection reset")
	ErrClosed  = errors.New("tcp: connection closed")
	ErrRefused = errors.New("tcp: connection refused")
)

type fourTuple struct {
	local  netip.Addr
	lport  uint16
	remote netip.Addr
	rport  uint16
}

// Stack manages the TCP connections of one host.
type Stack struct {
	h         *stack.Host
	s         *sim.Sim
	conns     map[fourTuple]*Conn
	listeners map[uint16]*Listener
	usedPorts map[uint16]int
	nextPort  uint16
	isn       uint32
}

// New attaches a TCP stack to host h.
func New(h *stack.Host) *Stack {
	st := &Stack{
		h:         h,
		s:         h.S,
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		usedPorts: make(map[uint16]int),
		nextPort:  32768,
	}
	h.Handle(netpkt.ProtoTCP, func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		st.input(ifc, ip)
		return false // processData copies every payload it keeps
	})
	return st
}

// SetEphemeralBase moves the ephemeral port range (gateways use a range
// distinct from their NAT pool and from client stacks).
func (st *Stack) SetEphemeralBase(p uint16) { st.nextPort = p }

// Listener accepts inbound connections on a local port.
type Listener struct {
	st      *Stack
	port    uint16
	backlog *sim.Chan[*Conn]
	closed  bool
}

// Listen opens a listener on port.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if _, ok := st.listeners[port]; ok {
		return nil, errors.New("tcp: port in use")
	}
	l := &Listener{st: st, port: port, backlog: sim.NewChan[*Conn](st.s)}
	st.listeners[port] = l
	return l, nil
}

// Accept waits for the next established inbound connection.
func (l *Listener) Accept(p *sim.Proc, timeout time.Duration) (*Conn, error) {
	c, ok := l.backlog.Recv(p, timeout)
	if !ok {
		if l.closed {
			return nil, ErrClosed
		}
		return nil, ErrTimeout
	}
	return c, nil
}

// Serve makes fn the listener's only acceptor: fn receives each
// established connection in an event callback and must not block (see
// sim.Chan.Serve); it typically spawns the connection's process.
func (l *Listener) Serve(fn func(*Conn)) { l.backlog.Serve(fn) }

// Close stops the listener. Established-but-unaccepted connections,
// including those not yet handed to a Serve handler, are aborted.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.st.listeners, l.port)
	for {
		c, ok := l.backlog.TryRecv()
		if !ok {
			break
		}
		c.Abort()
	}
	l.backlog.Close()
}

// Conn is a TCP connection endpoint.
type Conn struct {
	st  *Stack
	key fourTuple

	state State

	// Send state.
	sndUna  uint32
	sndNxt  uint32
	sndMax  uint32 // highest sequence ever sent (sndNxt may roll back on RTO)
	sndBuf  store  // bytes [sndUna, sndUna+len)
	finQed  bool
	finSent bool
	peerWnd int

	// Congestion control (Reno).
	cwnd       int
	ssthresh   int
	dupAcks    int
	inRecovery bool
	recover    uint32

	// RTO.
	rto        time.Duration
	srtt       time.Duration
	rttvar     time.Duration
	rtoTimer   sim.Event
	rtoFn      func() // cached method value of onRTO
	rttSeq     uint32
	rttStart   sim.Time
	rttPending bool
	retries    int

	// Receive state.
	rcvNxt uint32
	rcvBuf store
	ooo    map[uint32][]byte // created on the first out-of-order segment
	gotFin bool

	// App notification.
	// Keepalive (RFC 1122 4.2.3.6).
	kaTimer    sim.Event
	kaInterval time.Duration

	rxN     sim.Chan[struct{}]
	txN     sim.Chan[struct{}]
	connN   sim.Chan[error]
	err     error
	removed bool
	parent  *Listener
}

// Local returns the local address and port.
func (c *Conn) Local() (netip.Addr, uint16) { return c.key.local, c.key.lport }

// SetKeepAlive enables RFC 1122 keepalive probes on an idle
// established connection: after each interval of silence the stack
// sends a zero-length ACK with seq = sndNxt-1, which elicits an ACK
// from a live peer. The paper's §4.4 observes that the standardized
// 2-hour minimum interval is far longer than most gateways' TCP binding
// timeouts, so keepalives at that rate fail to hold NAT bindings.
func (c *Conn) SetKeepAlive(interval time.Duration) {
	c.kaTimer.Cancel()
	c.kaTimer = sim.Event{}
	c.kaInterval = interval
	if interval > 0 {
		c.armKeepAlive()
	}
}

func (c *Conn) armKeepAlive() {
	c.kaTimer = c.st.s.After(c.kaInterval, func() {
		c.kaTimer = sim.Event{}
		if c.state != StateEstablished && c.state != StateCloseWait {
			return
		}
		// Garbage-byte probe: seq one below the next expected, forcing a
		// duplicate ACK from the peer (and refreshing middlebox state).
		c.sendSeg(c.sndNxt-1, c.rcvNxt, netpkt.TCPAck, []byte{0})
		c.armKeepAlive()
	})
}

// Buffered returns the number of bytes queued in the send buffer
// (unacknowledged plus unsent). Applications that need timestamps close
// to wire transmission (the paper's TCP-3 delay probe) pace their
// writes on this.
func (c *Conn) Buffered() int { return c.sndBuf.len() }

// Err returns the error that tore the connection down (ErrClosed after
// Abort), or nil while it lives.
func (c *Conn) Err() error { return c.err }

func (st *Stack) allocPort() uint16 {
	for i := 0; i < 65536; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort < 1024 {
			st.nextPort = 1024
		}
		if p < 1024 {
			continue
		}
		if _, lis := st.listeners[p]; st.usedPorts[p] == 0 && !lis {
			return p
		}
	}
	return 0
}

func (st *Stack) nextISN() uint32 {
	st.isn += 64021
	return st.isn + uint32(st.s.Rand().Intn(1<<16))
}

func (st *Stack) newConn(key fourTuple) *Conn {
	c := &Conn{
		st: st, key: key,
		cwnd: initCwndSegs * MSS, ssthresh: 1 << 30,
		rto: initialRTO, peerWnd: recvWndMax,
	}
	c.rtoFn = c.onRTO
	c.rxN.Init(st.s)
	c.txN.Init(st.s)
	c.connN.Init(st.s)
	st.conns[key] = c
	st.usedPorts[key.lport]++
	return c
}

// Connect initiates a connection to remote:rport and blocks until it is
// established, refused, or timeout elapses. It must be called from a
// simulator process. If lport is zero an ephemeral port is chosen.
func (st *Stack) Connect(p *sim.Proc, remote netip.Addr, rport uint16, lport uint16, timeout time.Duration) (*Conn, error) {
	r, ok := st.h.Lookup(remote)
	if !ok {
		return nil, errors.New("tcp: no route")
	}
	if lport == 0 {
		lport = st.allocPort()
		if lport == 0 {
			return nil, errors.New("tcp: no free ports")
		}
	}
	key := fourTuple{local: r.If.Addr, lport: lport, remote: remote, rport: rport}
	if _, exists := st.conns[key]; exists {
		return nil, errors.New("tcp: connection exists")
	}
	c := st.newConn(key)
	isn := st.nextISN()
	c.sndUna, c.sndNxt, c.sndMax = isn, isn+1, isn+1
	c.state = StateSynSent
	c.sendSeg(isn, 0, netpkt.TCPSyn, nil)
	c.armRTO()
	err, got := c.connN.Recv(p, timeout)
	if !got {
		c.Abort()
		return nil, ErrTimeout
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// sendSeg marshals a segment straight into the pooled buffer that
// becomes its frame (the host writes only the IP header in front of
// it), so payload bytes are copied once, from the send store to the
// wire.
func (c *Conn) sendSeg(seq, ack uint32, flags uint8, payload []byte) {
	seg := netpkt.TCP{
		SrcPort: c.key.lport, DstPort: c.key.rport,
		Seq: seq, Ack: ack, Flags: flags,
		Window:  uint16(c.advertisedWnd()),
		Payload: payload,
	}
	pool := c.st.s.Pool()
	ip := pool.GetPacket()
	ip.Protocol, ip.Src, ip.Dst = netpkt.ProtoTCP, c.key.local, c.key.remote
	ip.Payload = seg.AppendMarshal(ip.Reserve(pool, seg.HeaderLen()+len(payload)), c.key.local, c.key.remote)
	c.st.h.Send(ip)
}

func (c *Conn) advertisedWnd() int {
	w := recvWndMax - c.rcvBuf.len()
	if w < 0 {
		w = 0
	}
	return w
}

func (c *Conn) sendAck() {
	c.sendSeg(c.sndNxt, c.rcvNxt, netpkt.TCPAck, nil)
}

// flight returns the number of unacknowledged sequence units.
func (c *Conn) flight() int { return int(c.sndNxt - c.sndUna) }

func (c *Conn) bumpSndMax() {
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
}

// output transmits as much queued data as the windows allow.
func (c *Conn) output() {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateClosing && c.state != StateLastAck {
		return
	}
	for {
		wnd := c.cwnd
		if c.peerWnd < wnd {
			wnd = c.peerWnd
		}
		flight := c.flight()
		unsent := c.sndBuf.len() - flight
		if c.finSent {
			unsent = c.sndBuf.len() - (flight - 1) // FIN consumed one seq
		}
		if unsent <= 0 {
			// Maybe send FIN.
			if c.finQed && !c.finSent {
				c.sendSeg(c.sndNxt, c.rcvNxt, netpkt.TCPFin|netpkt.TCPAck, nil)
				c.sndNxt++
				c.bumpSndMax()
				c.finSent = true
				c.armRTO()
			}
			return
		}
		n := MSS
		if unsent < n {
			n = unsent
		}
		if room := wnd - flight; room < n {
			n = room
		}
		if n > 0 && n < MSS && n < unsent && flight > 0 {
			// Sender-side silly-window avoidance: wait for more window
			// instead of emitting a crumb segment mid-stream.
			return
		}
		if n <= 0 {
			// Zero-window persist: let the RTO timer probe with one byte.
			if c.peerWnd == 0 && flight == 0 {
				c.armRTO()
			}
			return
		}
		off := flight
		if c.finSent {
			off = flight - 1
		}
		data := c.sndBuf.bytes()[off : off+n]
		flags := uint8(netpkt.TCPAck)
		if off+n == c.sndBuf.len() {
			flags |= netpkt.TCPPsh
		}
		c.sendSeg(c.sndNxt, c.rcvNxt, flags, data)
		if !c.rttPending {
			c.rttPending = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttStart = c.st.s.Now()
		}
		c.sndNxt += uint32(n)
		c.bumpSndMax()
		c.armRTO()
	}
}

// Write queues data for transmission, blocking while the send buffer is
// full. It must be called from a simulator process.
func (c *Conn) Write(p *sim.Proc, data []byte) error {
	const sndBufLimit = 4 * recvWndMax
	for len(data) > 0 {
		if c.err != nil {
			return c.err
		}
		switch c.state {
		case StateEstablished, StateCloseWait:
		default:
			return ErrClosed
		}
		room := sndBufLimit - c.sndBuf.len()
		if room <= 0 {
			if _, ok := c.txN.Recv(p, time.Hour); !ok {
				return c.errOr(ErrTimeout)
			}
			continue
		}
		n := len(data)
		if n > room {
			n = room
		}
		c.sndBuf.append(data[:n])
		data = data[n:]
		c.output()
	}
	return nil
}

func (c *Conn) errOr(def error) error {
	if c.err != nil {
		return c.err
	}
	return def
}

// Read copies up to len(buf) received bytes into buf, blocking until
// data arrives, EOF, or timeout, and returns how many it copied. It
// returns io.EOF after the peer's FIN once the buffer is drained.
func (c *Conn) Read(p *sim.Proc, buf []byte, timeout time.Duration) (int, error) {
	deadline := c.st.s.Now() + timeout
	for {
		if c.rcvBuf.len() > 0 {
			n := copy(buf, c.rcvBuf.bytes())
			c.rcvBuf.consume(n)
			return n, nil
		}
		if c.gotFin {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		remain := deadline - c.st.s.Now()
		if timeout <= 0 {
			remain = 0
		} else if remain <= 0 {
			return 0, ErrTimeout
		}
		if _, ok := c.rxN.Recv(p, remain); !ok && timeout > 0 {
			if c.rcvBuf.len() > 0 || c.gotFin || c.err != nil {
				continue
			}
			return 0, ErrTimeout
		}
	}
}

// ReadAppend is Read into buf's spare room: it appends up to n received
// bytes to buf, growing it when needed, and returns the extended slice.
// It suits callers that collect a message across reads.
func (c *Conn) ReadAppend(p *sim.Proc, buf []byte, n int, timeout time.Duration) ([]byte, error) {
	buf = slices.Grow(buf, n)
	k, err := c.Read(p, buf[len(buf):len(buf)+n], timeout)
	return buf[:len(buf)+k], err
}

// Close initiates an orderly shutdown (FIN). Reading remains possible.
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		c.Abort()
		return
	default:
		return
	}
	c.finQed = true
	c.output()
}

// Abort sends RST and discards the connection immediately.
func (c *Conn) Abort() {
	if c.state != StateClosed {
		c.sendSeg(c.sndNxt, c.rcvNxt, netpkt.TCPRst|netpkt.TCPAck, nil)
	}
	c.teardown(ErrClosed)
}

func (c *Conn) teardown(err error) {
	if c.removed {
		return
	}
	c.removed = true
	c.state = StateClosed
	if c.err == nil {
		c.err = err
	}
	c.rtoTimer.Cancel()
	c.rtoTimer = sim.Event{}
	c.kaTimer.Cancel()
	c.kaTimer = sim.Event{}
	delete(c.st.conns, c.key)
	if c.st.usedPorts[c.key.lport] > 0 {
		c.st.usedPorts[c.key.lport]--
		if c.st.usedPorts[c.key.lport] == 0 {
			delete(c.st.usedPorts, c.key.lport)
		}
	}
	c.notifyAll()
}

func (c *Conn) notifyAll() {
	if c.rxN.Len() == 0 {
		c.rxN.Send(struct{}{})
	}
	if c.txN.Len() == 0 {
		c.txN.Send(struct{}{})
	}
}

func (c *Conn) armRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = c.st.s.After(c.rto, c.rtoFn)
}

func (c *Conn) disarmRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = sim.Event{}
	c.retries = 0
}

func (c *Conn) onRTO() {
	c.rtoTimer = sim.Event{}
	c.retries++
	switch c.state {
	case StateSynSent, StateSynRcvd:
		if c.retries > maxSynRetries {
			c.connN.Send(ErrTimeout)
			c.teardown(ErrTimeout)
			return
		}
		flags := uint8(netpkt.TCPSyn)
		ack := uint32(0)
		if c.state == StateSynRcvd {
			flags |= netpkt.TCPAck
			ack = c.rcvNxt
		}
		c.sendSeg(c.sndUna, ack, flags, nil)
	case StateClosed, StateTimeWait:
		return
	default:
		if c.retries > maxDataRetries {
			c.teardown(ErrTimeout)
			return
		}
		if c.peerWnd == 0 && c.flight() == 0 && c.sndBuf.len() > 0 {
			// Zero-window persist probe: one byte, so the peer's next
			// ACK reports its reopened window.
			c.sendSeg(c.sndNxt, c.rcvNxt, netpkt.TCPAck, c.sndBuf.bytes()[:1])
			c.sndNxt++
			c.bumpSndMax()
			break
		}
		// Reno loss response: collapse to one segment, halve ssthresh,
		// and roll sndNxt back to sndUna (go-back-N): output() below
		// retransmits from the first unacknowledged byte with slow-start
		// pacing.
		fl := c.flight()
		half := fl / 2
		if half < 2*MSS {
			half = 2 * MSS
		}
		c.ssthresh = half
		c.cwnd = MSS
		c.dupAcks = 0
		c.inRecovery = false
		c.rttPending = false // Karn: don't sample retransmitted data
		c.sndNxt = c.sndUna
		if c.finSent {
			c.finSent = false // re-send FIN after the data
		}
		c.output()
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.armRTO()
}

// retransmitOne resends the first unacknowledged segment.
func (c *Conn) retransmitOne() {
	fl := c.flight()
	if fl <= 0 {
		// Persist probe: one byte of unsent data if any.
		if c.sndBuf.len() > 0 {
			c.sendSeg(c.sndNxt, c.rcvNxt, netpkt.TCPAck, c.sndBuf.bytes()[:1])
			c.sndNxt++
			c.bumpSndMax()
		}
		return
	}
	dataFl := fl
	if c.finSent {
		dataFl--
	}
	if dataFl > 0 {
		n := dataFl
		if n > MSS {
			n = MSS
		}
		c.sendSeg(c.sndUna, c.rcvNxt, netpkt.TCPAck, c.sndBuf.bytes()[:n])
		return
	}
	if c.finSent {
		c.sendSeg(c.sndUna, c.rcvNxt, netpkt.TCPFin|netpkt.TCPAck, nil)
	}
}

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// input demultiplexes one received segment. Nothing it calls keeps a
// view of the segment: processData copies payloads into rcvBuf or ooo.
func (st *Stack) input(ifc *stack.NetIf, ip *netpkt.IPv4) {
	var seg netpkt.TCP
	if seg.Parse(ip.Payload, ip.Src, ip.Dst, true) != nil {
		return
	}
	key := fourTuple{local: ip.Dst, lport: seg.DstPort, remote: ip.Src, rport: seg.SrcPort}
	if c, ok := st.conns[key]; ok {
		c.segment(&seg)
		return
	}
	if l, ok := st.listeners[seg.DstPort]; ok && seg.Flags&netpkt.TCPSyn != 0 && seg.Flags&netpkt.TCPAck == 0 {
		st.acceptSyn(l, key, &seg)
		return
	}
	// No connection: RST unless the segment is itself a RST.
	if seg.Flags&netpkt.TCPRst == 0 {
		st.sendRST(key, &seg)
	}
}

func (st *Stack) sendRST(key fourTuple, seg *netpkt.TCP) {
	var rseq, rack uint32
	flags := uint8(netpkt.TCPRst)
	if seg.Flags&netpkt.TCPAck != 0 {
		rseq = seg.Ack
	} else {
		flags |= netpkt.TCPAck
		rack = seg.Seq + uint32(len(seg.Payload))
		if seg.Flags&netpkt.TCPSyn != 0 {
			rack++
		}
	}
	out := &netpkt.TCP{
		SrcPort: key.lport, DstPort: key.rport,
		Seq: rseq, Ack: rack, Flags: flags,
	}
	st.h.Send(&netpkt.IPv4{
		Protocol: netpkt.ProtoTCP,
		Src:      key.local, Dst: key.remote,
		Payload: out.Marshal(key.local, key.remote),
	})
}

func (st *Stack) acceptSyn(l *Listener, key fourTuple, seg *netpkt.TCP) {
	c := st.newConn(key)
	c.parent = l
	c.state = StateSynRcvd
	c.rcvNxt = seg.Seq + 1
	c.peerWnd = int(seg.Window)
	isn := st.nextISN()
	c.sndUna, c.sndNxt, c.sndMax = isn, isn+1, isn+1
	c.sendSeg(isn, c.rcvNxt, netpkt.TCPSyn|netpkt.TCPAck, nil)
	c.armRTO()
}

func (c *Conn) segment(seg *netpkt.TCP) {
	switch c.state {
	case StateSynSent:
		c.segSynSent(seg)
		return
	case StateSynRcvd:
		c.segSynRcvd(seg)
		return
	case StateClosed:
		return
	case StateTimeWait:
		if seg.Flags&netpkt.TCPFin != 0 {
			c.sendAck() // retransmitted FIN
		}
		return
	case StateEstablished, StateFinWait1, StateFinWait2,
		StateCloseWait, StateClosing, StateLastAck:
		// Synchronized states: fall through to the common RST/ACK/
		// payload/FIN processing below.
	}

	// RST: accept only if in-window (RFC 5961 spirit). The paper's ls2
	// emits RSTs with bogus sequence numbers; those must be ignored.
	if seg.Flags&netpkt.TCPRst != 0 {
		if seqLEQ(c.rcvNxt, seg.Seq) && seqLT(seg.Seq, c.rcvNxt+uint32(recvWndMax)) {
			c.teardown(ErrReset)
		}
		return
	}
	if seg.Flags&netpkt.TCPAck != 0 {
		c.processAck(seg)
	}
	if len(seg.Payload) > 0 || seg.Flags&netpkt.TCPFin != 0 {
		c.processData(seg)
	}
	c.output()
}

func (c *Conn) segSynSent(seg *netpkt.TCP) {
	if seg.Flags&netpkt.TCPRst != 0 {
		if seg.Flags&netpkt.TCPAck == 0 || seg.Ack == c.sndNxt {
			c.connN.Send(ErrRefused)
			c.teardown(ErrRefused)
		}
		return
	}
	if seg.Flags&(netpkt.TCPSyn|netpkt.TCPAck) != netpkt.TCPSyn|netpkt.TCPAck || seg.Ack != c.sndNxt {
		return
	}
	c.sndUna = seg.Ack
	c.rcvNxt = seg.Seq + 1
	c.peerWnd = int(seg.Window)
	c.state = StateEstablished
	c.disarmRTO()
	c.rto = initialRTO
	c.sendAck()
	c.connN.Send(nil)
}

func (c *Conn) segSynRcvd(seg *netpkt.TCP) {
	if seg.Flags&netpkt.TCPRst != 0 {
		c.teardown(ErrReset)
		return
	}
	if seg.Flags&netpkt.TCPSyn != 0 && seg.Flags&netpkt.TCPAck == 0 {
		// Retransmitted SYN: re-answer.
		c.sendSeg(c.sndUna, c.rcvNxt, netpkt.TCPSyn|netpkt.TCPAck, nil)
		return
	}
	if seg.Flags&netpkt.TCPAck == 0 || seg.Ack != c.sndNxt {
		return
	}
	c.sndUna = seg.Ack
	c.state = StateEstablished
	c.peerWnd = int(seg.Window)
	c.disarmRTO()
	c.rto = initialRTO
	if c.parent != nil && !c.parent.closed {
		c.parent.backlog.Send(c)
	}
	// The handshake-completing ACK may carry data.
	if len(seg.Payload) > 0 || seg.Flags&netpkt.TCPFin != 0 {
		c.processData(seg)
	}
}

func (c *Conn) processAck(seg *netpkt.TCP) {
	ack := seg.Ack
	c.peerWnd = int(seg.Window)
	if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndMax) {
		acked := int(ack - c.sndUna)
		dataAcked := acked
		if c.finSent && ack == c.sndMax {
			dataAcked-- // FIN consumed one
		}
		if dataAcked > c.sndBuf.len() {
			dataAcked = c.sndBuf.len()
		}
		c.sndBuf.consume(dataAcked)
		c.sndUna = ack
		if seqLT(c.sndNxt, ack) {
			// A cumulative ACK jumped past our rolled-back send point
			// (the receiver had the data cached): skip ahead instead of
			// retransmitting what it already has.
			c.sndNxt = ack
		}
		c.retries = 0

		// RTT sample (Karn: only when no retransmission outstanding).
		if c.rttPending && seqLEQ(c.rttSeq, ack) {
			c.rttPending = false
			c.updateRTT(c.st.s.Now() - c.rttStart)
		}

		if c.inRecovery {
			if seqLEQ(c.recover, ack) {
				// Full recovery: resume congestion avoidance at ssthresh.
				c.inRecovery = false
				c.cwnd = c.ssthresh
				c.dupAcks = 0
			} else {
				// Partial ack (NewReno): retransmit the next hole and stay
				// in recovery. cwnd stays pinned at ssthresh — we do not
				// inflate and inject new data during recovery, so the
				// bottleneck queue drains and retransmissions get through
				// instead of being dropped into a full queue.
				c.retransmitOne()
			}
		} else {
			c.dupAcks = 0
			if c.cwnd < c.ssthresh {
				c.cwnd += MSS // slow start
			} else {
				c.cwnd += MSS * MSS / c.cwnd // congestion avoidance
			}
		}

		if c.flight() == 0 {
			c.disarmRTO()
		} else {
			c.armRTO()
		}
		if c.sndBuf.len() < 4*recvWndMax && c.txN.Len() == 0 {
			c.txN.Send(struct{}{})
		}

		// FIN acknowledged?
		if c.finSent && ack == c.sndMax && c.sndNxt == c.sndMax {
			//hgwlint:allow exhaustlint only the three FIN-in-flight states transition on the FIN's ack; all others keep their state
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
			case StateClosing:
				c.enterTimeWait()
			case StateLastAck:
				c.teardown(ErrClosed)
			}
		}
	} else if ack == c.sndUna && c.flight() > 0 && len(seg.Payload) == 0 && seg.Flags&netpkt.TCPFin == 0 {
		c.dupAcks++
		if c.inRecovery && c.dupAcks > 3 && c.dupAcks%8 == 0 {
			// The fast-retransmitted segment may itself have been dropped
			// into the still-full bottleneck queue; periodically re-send
			// it while dup-ACKs keep arriving instead of stalling to RTO.
			c.retransmitOne()
		}
		if !c.inRecovery && c.dupAcks == 3 {
			// Fast retransmit + (conservative) fast recovery: halve the
			// window and hold it there until the hole is filled.
			half := c.flight() / 2
			if half < 2*MSS {
				half = 2 * MSS
			}
			c.ssthresh = half
			c.inRecovery = true
			c.recover = c.sndNxt
			c.retransmitOne()
			c.cwnd = c.ssthresh
			c.rttPending = false
		}
	}
}

func (c *Conn) updateRTT(m time.Duration) {
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + m) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

func (c *Conn) processData(seg *netpkt.TCP) {
	seq := seg.Seq
	payload := seg.Payload
	// Trim anything already received.
	if seqLT(seq, c.rcvNxt) {
		skip := int(c.rcvNxt - seq)
		if skip >= len(payload) {
			if seg.Flags&netpkt.TCPFin != 0 && seq+uint32(len(payload)) == c.rcvNxt {
				// FIN exactly at rcvNxt after trimming: handle below.
				payload = nil
				seq = c.rcvNxt
			} else {
				c.sendAck() // pure duplicate
				return
			}
		} else {
			payload = payload[skip:]
			seq = c.rcvNxt
		}
	}
	if seq != c.rcvNxt {
		// Out of order: stash and send duplicate ACK.
		if len(payload) > 0 {
			if _, dup := c.ooo[seq]; !dup && len(c.ooo) < 256 {
				if c.ooo == nil {
					c.ooo = make(map[uint32][]byte)
				}
				c.ooo[seq] = append([]byte(nil), payload...)
			}
		}
		c.sendAck()
		return
	}
	if len(payload) > 0 {
		c.rcvBuf.append(payload)
		c.rcvNxt += uint32(len(payload))
		// Merge contiguous out-of-order segments.
		for {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.rcvBuf.append(next)
			c.rcvNxt += uint32(len(next))
		}
		if c.rxN.Len() == 0 {
			c.rxN.Send(struct{}{})
		}
	}
	if seg.Flags&netpkt.TCPFin != 0 && seq+uint32(len(payload)) == c.rcvNxt {
		c.rcvNxt++
		c.gotFin = true
		//hgwlint:allow exhaustlint a peer FIN only moves the three states that were still open to receive one; re-FIN in later states is a no-op
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait1:
			if c.finSent && c.sndUna == c.sndNxt {
				c.enterTimeWait()
			} else {
				c.state = StateClosing
			}
		case StateFinWait2:
			c.enterTimeWait()
		}
		if c.rxN.Len() == 0 {
			c.rxN.Send(struct{}{})
		}
	}
	c.sendAck()
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.disarmRTO()
	c.st.s.After(2*msl, func() {
		if c.state == StateTimeWait {
			c.teardown(ErrClosed)
		}
	})
}

// store is a byte FIFO holding a connection's send or receive data: the
// application appends at the tail and acknowledgments or reads consume
// at the head. When the tail runs out of room, the live bytes slide to
// the front if, with the new bytes, they fill at most half of the
// backing array; otherwise the array is replaced by one twice that
// size. So a store reaches a fixed size once its backlog stops growing
// (the send store holds at most 4 × recvWndMax live bytes, the receive
// store about one window) and then allocates nothing, and each byte is
// moved at most about once.
type store struct {
	buf  []byte // live bytes are buf[head:]
	head int
}

// minStore is a new store's first capacity: most connections (probes,
// DNS) carry a few bytes.
const minStore = 512

func (b *store) len() int { return len(b.buf) - b.head }

// bytes returns the live bytes; the view is valid until the next append.
func (b *store) bytes() []byte { return b.buf[b.head:] }

func (b *store) consume(n int) {
	b.head += n
	if b.head == len(b.buf) {
		b.buf, b.head = b.buf[:0], 0
	}
}

func (b *store) append(p []byte) {
	if len(p) > cap(b.buf)-len(b.buf) {
		live := b.len()
		if need := live + len(p); need > cap(b.buf)/2 {
			nb := make([]byte, live, max(2*need, minStore))
			copy(nb, b.bytes())
			b.buf = nb
		} else {
			b.buf = b.buf[:copy(b.buf, b.bytes())]
		}
		b.head = 0
	}
	b.buf = append(b.buf, p...)
}
