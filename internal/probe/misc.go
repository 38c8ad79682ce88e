package probe

import (
	"time"

	"hgw/internal/dnsmsg"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/testbed"

	"net/netip"
)

// ConnResult is a pass/fail connectivity result per device.
type ConnResult struct {
	Tag string
	OK  bool
}

// SCTPConnect attempts a single-homed SCTP association plus a data
// exchange through each gateway (Table 2 "SCTP: Conn.").
func SCTPConnect(tb *testbed.Testbed, s *sim.Sim, opts Options) []ConnResult {
	opts = opts.withDefaults()
	const port = 9899
	lis, err := tb.Server.SCTP.Listen(port)
	if err != nil {
		panic(err)
	}
	results := make([]ConnResult, len(tb.Nodes))
	done := s.Spawn("sctp-probe", func(p *sim.Proc) {
		for i, n := range tb.Nodes {
			ok := false
			a, err := tb.Client.SCTP.Connect(p, n.ServerAddr, port, 5*time.Second)
			if err == nil {
				// Handshake done; exchanging data must also work.
				ok = a.Send(p, []byte("sctp-data")) == nil
				a.Shutdown()
			}
			results[i] = ConnResult{Tag: n.Tag, OK: ok}
			// Drain the server-side accept queue.
			for {
				if _, err := lis.Accept(p, time.Millisecond); err != nil {
					break
				}
			}
		}
	})
	s.Run(0)
	if !done.Exited() {
		panic("probe: sctp stalled")
	}
	return results
}

// DCCPConnect attempts a DCCP connection plus a data exchange through
// each gateway (Table 2 "DCCP: Conn.").
func DCCPConnect(tb *testbed.Testbed, s *sim.Sim, opts Options) []ConnResult {
	opts = opts.withDefaults()
	const port = 9900
	lis, err := tb.Server.DCCP.Listen(port)
	if err != nil {
		panic(err)
	}
	results := make([]ConnResult, len(tb.Nodes))
	done := s.Spawn("dccp-probe", func(p *sim.Proc) {
		for i, n := range tb.Nodes {
			ok := false
			c, err := tb.Client.DCCP.Connect(p, n.ServerAddr, port, 5*time.Second)
			if err == nil {
				ok = c.Send(p, []byte("dccp-data")) == nil
				c.Close()
			}
			results[i] = ConnResult{Tag: n.Tag, OK: ok}
			for {
				if _, err := lis.Accept(p, time.Millisecond); err != nil {
					break
				}
			}
		}
	})
	s.Run(0)
	if !done.Exited() {
		panic("probe: dccp stalled")
	}
	return results
}

// DNSResult is one device's DNS proxy behavior (Table 2 "DNS over TCP"
// and "DNS over UDP").
type DNSResult struct {
	Tag        string
	UDPAnswers bool // proxy answers a UDP query
	TCPAccepts bool // connection to TCP/53 succeeds
	TCPAnswers bool // a framed query gets a framed answer
	TCPViaUDP  bool // the upstream leg went over UDP (ap's quirk)
}

// DNSProxy runs the paper's dig-style proxy tests against each
// gateway's DNS proxy.
func DNSProxy(tb *testbed.Testbed, s *sim.Sim, opts Options) []DNSResult {
	opts = opts.withDefaults()
	results := make([]DNSResult, len(tb.Nodes))
	done := s.Spawn("dns-probe", func(p *sim.Proc) {
		for i, n := range tb.Nodes {
			r := DNSResult{Tag: n.Tag}
			gw := n.Dev.LANAddr()

			// UDP query to the proxy address DHCP handed out.
			if c, err := tb.Client.UDP.Dial(gw, 53); err == nil {
				q, _ := dnsmsg.NewQuery(uint16(100+i), testbed.ServerName).Marshal()
				c.Send(q)
				if d, ok := c.Recv(p, verdictGrace+3*time.Second); ok {
					if m, err := dnsmsg.Parse(d.Data); err == nil && m.Response() && len(m.Answers) > 0 {
						r.UDPAnswers = true
					}
				}
				c.Close()
			}

			// TCP query, counting which upstream transport served it.
			beforeUDP := tb.DNSQueriesUDP
			if c, err := tb.Client.TCP.Connect(p, gw, 53, 0, 5*time.Second); err == nil {
				r.TCPAccepts = true
				q, _ := dnsmsg.NewQuery(uint16(200+i), testbed.ServerName).Marshal()
				if err := c.Write(p, dnsmsg.FrameTCP(q)); err == nil {
					var buf []byte
					deadline := s.Now() + verdictGrace + 5*time.Second
					for s.Now() < deadline {
						var err error
						if buf, err = c.ReadAppend(p, buf, 4096, deadline-s.Now()); err != nil {
							break
						}
						if msg, _, ok := dnsmsg.UnframeTCP(buf); ok {
							if m, err := dnsmsg.Parse(msg); err == nil && m.Response() && len(m.Answers) > 0 {
								r.TCPAnswers = true
							}
							break
						}
					}
				}
				c.Close()
			}
			if r.TCPAnswers && tb.DNSQueriesUDP > beforeUDP {
				r.TCPViaUDP = true
			}
			results[i] = r
		}
	})
	s.Run(0)
	if !done.Exited() {
		panic("probe: dns stalled")
	}
	return results
}

// QuirkResult captures the §4.4 IP-layer observations per device.
type QuirkResult struct {
	Tag           string
	DecrementsTTL bool
	RecordsRoute  bool
	Hairpins      bool
	SameMAC       bool
	// Drops holds the per-reason drop counters this probe added to
	// the device engine (the delta of Engine.DropCounts across the
	// probe), so a surprising verdict — a hairpin that never arrived,
	// say — is diagnosable from the result instead of silent: a
	// filtering device shows the swallowed probe under the
	// "udp-no-binding"/"udp-filtered" or "hairpin"-prefixed reasons.
	Drops map[string]int
}

// IPQuirks probes TTL decrementing, Record Route honoring, hairpinning
// and the shared-MAC quirk.
func IPQuirks(tb *testbed.Testbed, s *sim.Sim, opts Options) []QuirkResult {
	opts = opts.withDefaults()
	results := make([]QuirkResult, len(tb.Nodes))

	hj := &hijacker{}
	tb.Server.Host.RawHook = hj.hook
	defer func() { tb.Server.Host.RawHook = nil }()

	done := s.Spawn("quirk-probe", func(p *sim.Proc) {
		for i, n := range tb.Nodes {
			r := QuirkResult{Tag: n.Tag}
			dropsBefore := n.Dev.Engine.DropCounts()
			r.SameMAC = n.Dev.WANIf.Link.MAC == n.Dev.LANIf.Link.MAC

			port := uint16(7600)
			srv, err := tb.Server.UDP.BindIf(n.ServerIf, port)
			if err != nil {
				panic(err)
			}
			// Unconnected socket: the hairpinned packet below arrives
			// from the WAN address, which a connected socket would
			// filter out.
			cli, err := tb.Client.UDP.Bind(netipZero(), 0)
			if err != nil {
				panic(err)
			}

			// TTL: send with TTL 32 and check what the server observes.
			cli.SendTTL(n.ServerAddr, port, []byte("ttl-probe"), 32)
			if d, ok := srv.Recv(p, verdictGrace); ok {
				r.DecrementsTTL = d.TTL < 32
			}

			// Record Route: capture the raw packet server-side.
			hj.captured = nil
			hj.consume = false
			hj.match = func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
				if ifc != n.ServerIf || ip.Protocol != netpkt.ProtoUDP {
					return false
				}
				_, dport, ok := netpkt.UDPPorts(ip.Payload)
				return ok && dport == port
			}
			cli.SendWithOptions(n.ServerAddr, port, []byte("rr-probe"), netpkt.RecordRouteOption(4))
			_ = cli
			srv.Recv(p, verdictGrace)
			if hj.captured != nil {
				r.RecordsRoute = len(netpkt.RecordedRoute(hj.captured.Options)) > 0
			}
			hj.match = nil

			// Hairpin: a second socket sends to the first one's external
			// mapping via the WAN address.
			cli.SendTo(n.ServerAddr, port, []byte("bind"))
			if d, ok := srv.Recv(p, verdictGrace); ok {
				ext := d.FromPort
				if c2, err := tb.Client.UDP.Dial(n.WANAddr, ext); err == nil {
					c2.Send([]byte("hairpin-probe"))
					if d2, ok := cli.Recv(p, verdictGrace); ok && string(d2.Data) == "hairpin-probe" {
						r.Hairpins = true
					}
					c2.Close()
				}
			}

			cli.Close()
			srv.Close()
			r.Drops = dropDelta(dropsBefore, n.Dev.Engine.DropCounts())
			results[i] = r
		}
	})
	s.Run(0)
	if !done.Exited() {
		panic("probe: quirks stalled")
	}
	return results
}

func netipZero() (a netipAddr) { return }

// netipAddr keeps the helper's signature tidy.
type netipAddr = netip.Addr
