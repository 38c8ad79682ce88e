package probe

import (
	"net/netip"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/testbed"
)

// ICMPVerdict classifies how the gateway handled one injected ICMP
// error. The paper's Table 2 marks a dot when the message is forwarded
// (Correct, InnerUnfixed or InnerBadChecksum); the prose separately
// counts devices that fail to translate embedded headers (16/34) and
// that break embedded IP checksums (zy1, ls1).
type ICMPVerdict int

// Verdicts.
const (
	VerdictNone ICMPVerdict = iota // nothing arrived
	VerdictCorrect
	VerdictInnerUnfixed     // forwarded, embedded datagram untranslated
	VerdictInnerBadChecksum // forwarded, embedded IP checksum invalid
	VerdictRST              // gateway fabricated a TCP RST instead (ls2)
)

// String implements fmt.Stringer.
func (v ICMPVerdict) String() string {
	switch v {
	case VerdictNone:
		return "-"
	case VerdictCorrect:
		return "ok"
	case VerdictInnerUnfixed:
		return "inner-unfixed"
	case VerdictInnerBadChecksum:
		return "inner-bad-csum"
	case VerdictRST:
		return "rst"
	}
	return "?"
}

// Forwarded reports whether the message reached the client (a Table 2
// dot).
func (v ICMPVerdict) Forwarded() bool {
	return v == VerdictCorrect || v == VerdictInnerUnfixed || v == VerdictInnerBadChecksum
}

// ICMPMatrix is one device's Table 2 ICMP section.
type ICMPMatrix struct {
	Tag  string
	TCP  [netpkt.NumICMPKinds]ICMPVerdict
	UDP  [netpkt.NumICMPKinds]ICMPVerdict
	Echo ICMPVerdict // errors about ICMP echo flows ("ICMP: Host Unreach.")
}

// icmpEvent is what the client-side listener captures.
type icmpEvent struct {
	from netip.Addr
	typ  uint8
	code uint8
	body []byte
}

// hijacker captures packets on the server using the stack's RawHook —
// the paper's technique of "hijacking packets coming from the NAT" to
// synthesize ICMP errors embedding exactly what the NAT emitted.
type hijacker struct {
	match    func(ifc *stack.NetIf, ip *netpkt.IPv4) bool
	consume  bool
	captured *netpkt.IPv4
}

func (h *hijacker) hook(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
	if h.match == nil || h.captured != nil || !h.match(ifc, ip) {
		return false
	}
	h.captured = ip.Clone()
	if !h.consume {
		return false
	}
	// Consumed: the hook owns the packet, and only the clone lives on.
	ifc.Host.Drop(ip)
	return true
}

// ICMPMatrixProbe measures the full Table 2 ICMP section for every
// node. It runs sequentially (one flow at a time) since it instruments
// global hooks on the endpoints.
func ICMPMatrixProbe(tb *testbed.Testbed, s *sim.Sim, opts Options) []ICMPMatrix {
	opts = opts.withDefaults()
	results := make([]ICMPMatrix, len(tb.Nodes))

	hj := &hijacker{}
	tb.Server.Host.RawHook = hj.hook
	defer func() { tb.Server.Host.RawHook = nil }()

	events := sim.NewChan[icmpEvent](s)
	tb.Client.Host.ListenICMP(func(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
		events.Send(icmpEvent{from: from, typ: ic.Type, code: ic.Code, body: append([]byte(nil), ic.Body...)})
	})

	done := s.Spawn("icmp-matrix", func(p *sim.Proc) {
		for i, n := range tb.Nodes {
			m := ICMPMatrix{Tag: n.Tag}
			for k := netpkt.ICMPKind(0); k < netpkt.NumICMPKinds; k++ {
				m.UDP[k] = probeICMPUDP(p, tb, n, hj, events, k, opts)
				m.TCP[k] = probeICMPTCP(p, tb, n, hj, events, k, opts)
			}
			m.Echo = probeICMPEcho(p, tb, n, hj, events, opts)
			results[i] = m
		}
	})
	s.Run(0)
	if !done.Exited() {
		panic("probe: icmp matrix stalled")
	}
	return results
}

// classify inspects a received ICMP error against the expected flow.
func classify(ev icmpEvent, wantKind netpkt.ICMPKind, clientAddr, wanAddr netip.Addr, checkInner func(inner *netpkt.IPv4) bool) ICMPVerdict {
	typ, code := wantKind.TypeCode()
	if ev.typ != typ || ev.code != code {
		return VerdictNone
	}
	inner, err := netpkt.ParseIPv4Lenient(ev.body)
	if inner == nil {
		return VerdictNone
	}
	if inner.Src == wanAddr {
		return VerdictInnerUnfixed
	}
	if inner.Src != clientAddr || (checkInner != nil && !checkInner(inner)) {
		return VerdictInnerUnfixed
	}
	if err == netpkt.ErrBadChecksum {
		return VerdictInnerBadChecksum
	}
	return VerdictCorrect
}

func probeICMPUDP(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node,
	hj *hijacker, events *sim.Chan[icmpEvent], kind netpkt.ICMPKind, opts Options) ICMPVerdict {

	const port = 7300
	srv, err := tb.Server.UDP.BindIf(n.ServerIf, port)
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	cli, err := tb.Client.UDP.Dial(n.ServerAddr, port)
	if err != nil {
		panic(err)
	}
	defer cli.Close()

	hj.captured = nil
	hj.consume = false
	hj.match = func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		if ifc != n.ServerIf || ip.Protocol != netpkt.ProtoUDP {
			return false
		}
		_, dport, ok := netpkt.UDPPorts(ip.Payload)
		return ok && dport == port
	}
	events.Drain()
	cli.Send([]byte("icmp-probe"))
	if _, ok := srv.Recv(p, verdictGrace); !ok || hj.captured == nil {
		hj.match = nil
		return VerdictNone
	}
	typ, code := kind.TypeCode()
	tb.Server.Host.SendICMPError(hj.captured, typ, code, 0)
	hj.match = nil

	ev, ok := events.Recv(p, verdictGrace)
	if !ok {
		return VerdictNone
	}
	return classify(ev, kind, n.ClientAddr, n.WANAddr, func(inner *netpkt.IPv4) bool {
		sport, _, ok := netpkt.UDPPorts(inner.Payload)
		return ok && sport == cli.LocalPort()
	})
}

func probeICMPTCP(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node,
	hj *hijacker, events *sim.Chan[icmpEvent], kind netpkt.ICMPKind, opts Options) ICMPVerdict {

	port := uint16(7400 + int(kind))
	lis, err := tb.Server.TCP.Listen(port)
	if err != nil {
		panic(err)
	}
	defer lis.Close()

	// Observe fabricated RSTs (ls2) on the client's VLAN interface.
	sawRST := false
	n.ClientIf.Link.Tap = func(dir string, f *netpkt.Frame) {
		if dir != "rx" || f.Type != netpkt.EtherTypeIPv4 {
			return
		}
		ip, _ := netpkt.ParseIPv4(f.Payload)
		if ip == nil || ip.Protocol != netpkt.ProtoTCP || ip.Src != n.ServerAddr {
			return
		}
		if len(ip.Payload) > 13 && ip.Payload[13]&netpkt.TCPRst != 0 {
			sawRST = true
		}
	}
	defer func() { n.ClientIf.Link.Tap = nil }()

	cli, err := tb.Client.TCP.Connect(p, n.ServerAddr, port, 0, 10*time.Second)
	if err != nil {
		return VerdictNone
	}
	sc, err := lis.Accept(p, 5*time.Second)
	if err != nil {
		cli.Abort()
		return VerdictNone
	}
	defer func() { cli.Abort(); sc.Abort(); p.Sleep(10 * time.Second) }()

	// Capture a data segment as the NAT emitted it.
	hj.captured = nil
	hj.consume = false
	hj.match = func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		if ifc != n.ServerIf || ip.Protocol != netpkt.ProtoTCP {
			return false
		}
		_, dport, ok := netpkt.TCPPorts(ip.Payload)
		return ok && dport == port && len(ip.Payload) > 20 && len(ip.Payload) > int(ip.Payload[12]>>4)*4
	}
	events.Drain()
	if err := cli.Write(p, []byte("icmp-probe-data")); err != nil {
		hj.match = nil
		return VerdictNone
	}
	var buf [64]byte
	if _, err := sc.Read(p, buf[:], verdictGrace); err != nil || hj.captured == nil {
		hj.match = nil
		return VerdictNone
	}
	typ, code := kind.TypeCode()
	tb.Server.Host.SendICMPError(hj.captured, typ, code, 0)
	hj.match = nil

	ev, ok := events.Recv(p, verdictGrace)
	if !ok {
		if sawRST {
			return VerdictRST
		}
		return VerdictNone
	}
	_, lport := cli.Local()
	return classify(ev, kind, n.ClientAddr, n.WANAddr, func(inner *netpkt.IPv4) bool {
		sport, _, ok := netpkt.TCPPorts(inner.Payload)
		return ok && sport == lport
	})
}

func probeICMPEcho(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node,
	hj *hijacker, events *sim.Chan[icmpEvent], opts Options) ICMPVerdict {

	const echoID = 0x4242
	hj.captured = nil
	hj.consume = true // swallow the request so no echo reply races the error
	hj.match = func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		return ifc == n.ServerIf && ip.Protocol == netpkt.ProtoICMP &&
			len(ip.Payload) > 0 && ip.Payload[0] == netpkt.ICMPEchoRequest
	}
	events.Drain()
	req := &netpkt.ICMP{Type: netpkt.ICMPEchoRequest, Rest: uint32(echoID) << 16, Body: []byte("probe")}
	tb.Client.Host.Send(&netpkt.IPv4{
		Protocol: netpkt.ProtoICMP,
		Src:      n.ClientAddr,
		Dst:      n.ServerAddr,
		Payload:  req.Marshal(),
	})
	p.Sleep(200 * time.Millisecond)
	if hj.captured == nil {
		hj.match = nil
		return VerdictNone
	}
	tb.Server.Host.SendICMPError(hj.captured, netpkt.ICMPDestUnreachable, netpkt.ICMPCodeHostUnreachable, 0)
	hj.match = nil
	hj.consume = false

	ev, ok := events.Recv(p, verdictGrace)
	if !ok {
		return VerdictNone
	}
	return classify(ev, netpkt.KindHostUnreachable, n.ClientAddr, n.WANAddr, func(inner *netpkt.IPv4) bool {
		if inner.Protocol != netpkt.ProtoICMP || len(inner.Payload) < 8 {
			return false
		}
		id := uint16(inner.Payload[4])<<8 | uint16(inner.Payload[5])
		return id == echoID
	})
}
