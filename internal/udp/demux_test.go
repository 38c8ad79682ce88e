package udp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// refDemux is the linear scan that the per-interface index replaced,
// kept only as the reference: every open socket on the port, in bind
// order, the most specific one winning and the earliest among equals.
func refDemux(open []*Conn, ifc *stack.NetIf, dst, src netip.Addr, sport, dport uint16) *Conn {
	var best *Conn
	bestScore := -1
	for _, c := range open {
		if c.localPort != dport {
			continue
		}
		if c.localAddr.IsValid() && c.localAddr != dst {
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
			if c.remoteAddr != src || c.remotePort != sport {
				continue
			}
			score += 4
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// TestDemuxMatchesLinearScan draws random socket sets — wildcard,
// address-bound, interface-bound and connected sockets, bound and
// closed in random order, ephemeral ports steered onto the service
// ports — and checks every delivery against the linear scan, bind conflicts against the open set, and
// that an ephemeral port is never one a socket holds.
func TestDemuxMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { demuxTrial(t, seed) })
	}
}

func demuxTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := stack.NewHost(sim.New(seed), "h")
	var ifaces []*stack.NetIf
	var locals []netip.Addr
	for i := 0; i < 3; i++ {
		ifc := h.AddIf(fmt.Sprint("vlan", i), netpkt.Addr4(10, 0, byte(i), 1), 24)
		ifaces = append(ifaces, ifc)
		locals = append(locals, ifc.Addr)
	}
	st := New(h)
	ports := []uint16{1067, 1068, 1069}
	remotes := []netip.Addr{netpkt.Addr4(192, 0, 2, 1), netpkt.Addr4(192, 0, 2, 2)}
	rports := []uint16{7000, 7001}
	pick := func(n int) int { return rng.Intn(n) }
	anyLocal := func() netip.Addr {
		if pick(3) == 0 {
			return netip.Addr{}
		}
		return locals[pick(len(locals))]
	}

	var open []*Conn
	held := func(port uint16) bool {
		for _, c := range open {
			if c.localPort == port {
				return true
			}
		}
		return false
	}
	conflict := func(addr netip.Addr, ifc *stack.NetIf, port uint16) bool {
		for _, c := range open {
			if c.localPort == port && c.localAddr == addr && c.iface == ifc && !c.remoteAddr.IsValid() {
				return true
			}
		}
		return false
	}
	for op := 0; op < 60; op++ {
		switch k := pick(10); {
		case k < 3:
			addr, port := anyLocal(), ports[pick(len(ports))]
			want := conflict(addr, nil, port)
			c, err := st.Bind(addr, port)
			if (err != nil) != want {
				t.Fatalf("op %d: Bind(%v, %d) error %v, want conflict %v", op, addr, port, err, want)
			}
			if c != nil {
				open = append(open, c)
			}
		case k < 6:
			ifc, port := ifaces[pick(len(ifaces))], ports[pick(len(ports))]
			want := conflict(netip.Addr{}, ifc, port)
			c, err := st.BindIf(ifc, port)
			if (err != nil) != want {
				t.Fatalf("op %d: BindIf(%s, %d) error %v, want conflict %v", op, ifc.Link.Name, port, err, want)
			}
			if c != nil {
				open = append(open, c)
			}
		case k < 8:
			// Steer the ephemeral allocator onto the service ports, so
			// connected sockets share them and held ports are skipped.
			st.SetEphemeralBase(ports[pick(len(ports))])
			c, err := st.Dial(remotes[pick(len(remotes))], rports[pick(len(rports))])
			if err != nil {
				t.Fatal(err)
			}
			if held(c.LocalPort()) {
				t.Fatalf("op %d: Dial took port %d, which an open socket holds", op, c.LocalPort())
			}
			open = append(open, c)
		default:
			if len(open) == 0 {
				continue
			}
			i := pick(len(open))
			c := open[i]
			open = append(open[:i], open[i+1:]...)
			c.Close()
			if pick(2) == 0 {
				c.Close() // a stale second Close is a no-op
			}
		}
		for probe := 0; probe < 20; probe++ {
			ifc := ifaces[pick(len(ifaces))]
			dst := locals[pick(len(locals))]
			src, sport := remotes[pick(len(remotes))], rports[pick(len(rports))]
			dport := ports[pick(len(ports))]
			if pick(4) == 0 && len(open) > 0 {
				dport = open[pick(len(open))].localPort
			}
			if got, want := st.demux(ifc, dst, src, sport, dport), refDemux(open, ifc, dst, src, sport, dport); got != want {
				t.Fatalf("op %d: datagram %v:%d -> %v:%d on %s delivered to %+v, linear scan %+v", op, src, sport, dst, dport, ifc.Link.Name, got, want)
			}
		}
	}
	for _, c := range open {
		c.Close()
	}
	if len(st.conns) != 0 {
		t.Fatalf("closing every socket left %d entries in the socket table", len(st.conns))
	}
}

// boundServer is the test server's shape: one interface and one
// interface-bound socket on port 7000 per VLAN.
type boundServer struct {
	st    *Stack
	conns []*Conn
	pkts  []*netpkt.IPv4 // one datagram to each socket
}

func newBoundServer(tb testing.TB, n int) *boundServer {
	h := stack.NewHost(sim.New(1), "server")
	st := New(h)
	srv := &boundServer{st: st}
	src := netpkt.Addr4(192, 168, 1, 100)
	for i := 0; i < n; i++ {
		ifc := h.AddIf(fmt.Sprint("vlan", i), netpkt.Addr4(10, byte(i>>8), byte(i), 1), 24)
		c, err := st.BindIf(ifc, 7000)
		if err != nil {
			tb.Fatal(err)
		}
		u := netpkt.UDP{SrcPort: 40000, DstPort: 7000, Payload: bindRatePayload}
		srv.conns = append(srv.conns, c)
		srv.pkts = append(srv.pkts, &netpkt.IPv4{
			Protocol: netpkt.ProtoUDP, Src: src, Dst: ifc.Addr, TTL: 64,
			Payload: u.AppendMarshal(nil, src, ifc.Addr),
		})
	}
	return srv
}

// deliver hands the datagram for socket i to the stack and reads it.
func (srv *boundServer) deliver(tb testing.TB, i int) {
	st, ip := srv.st, srv.pkts[i]
	st.input(srv.conns[i].iface, ip)
	if _, ok := srv.conns[i].TryRecv(); !ok {
		tb.Fatalf("datagram for vlan%d not delivered", i)
	}
}

// TestAllocsDeliverBoundIf pins delivery to one of 256 interface-bound
// sockets on a port at zero allocations: the datagram record goes into
// the socket's channel storage and its payload into the stack's chunk
// storage, which the warm-up has grown to full size (one 2 KiB chunk per
// 227 of these 9-byte payloads, which AllocsPerRun's average rounds
// away).
func TestAllocsDeliverBoundIf(t *testing.T) {
	srv := newBoundServer(t, 256)
	for i := 0; i < 1024; i++ {
		srv.deliver(t, i%256)
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		srv.deliver(t, i%256)
		i++
	})
	if n != 0 {
		t.Fatalf("delivery to an interface-bound socket allocates %.1f objects, want 0", n)
	}
}

// BenchmarkUDPDemux delivers datagrams round-robin to 256
// interface-bound sockets on one port.
func BenchmarkUDPDemux(b *testing.B) {
	srv := newBoundServer(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.deliver(b, i%256)
	}
}
