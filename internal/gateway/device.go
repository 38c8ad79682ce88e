// Package gateway assembles complete emulated home-gateway devices: a
// WAN port configured by DHCP, a LAN-side DHCP server, a DNS proxy with
// per-device TCP behavior, per-direction forwarding queues whose service
// rate collapses under bidirectional load, IP-layer quirks, and the NAT
// engine from package nat. profiles.go holds the 34 device profiles of
// the paper's Table 1, calibrated against its figures.
package gateway

import (
	"fmt"
	"net/netip"
	"time"

	"hgw/internal/dhcp"
	"hgw/internal/dnsmsg"
	"hgw/internal/nat"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/tcp"
	"hgw/internal/udp"
)

// DNSTCPMode describes a device's DNS-over-TCP proxy support (the
// paper's Table 2 "DNS over TCP" test: 14 devices accept connections on
// TCP/53, 10 of those answer, and ap forwards the query upstream over
// UDP).
type DNSTCPMode int

// DNS-over-TCP behaviors.
const (
	DNSTCPRefuse       DNSTCPMode = iota // no listener on TCP/53
	DNSTCPAcceptOnly                     // accepts the connection, never answers
	DNSTCPAnswer                         // answers, forwarding upstream over TCP
	DNSTCPAnswerViaUDP                   // answers, forwarding upstream over UDP (ap)
)

// Profile is the complete behavioral description of one device model.
type Profile struct {
	Tag      string
	Vendor   string
	Model    string
	Firmware string

	// NAT is the translation policy (timeouts, ports, ICMP, fallbacks).
	NAT nat.Policy

	// Forwarding-plane performance. Rates are in Mb/s of IP traffic; a
	// zero rate means wire speed (no extra forwarding constraint).
	// BidirFactor scales a direction's rate while the other direction
	// is also forwarding (1.0 = no contention).
	UpMbps      float64
	DownMbps    float64
	BidirFactor float64
	// BufBytes is each direction's forwarding queue size.
	BufBytes int

	// DNSTCP is the DNS proxy's TCP behavior; every device proxies DNS
	// over UDP.
	DNSTCP DNSTCPMode

	// Quirks (§4.4).
	SameMACBothPorts bool
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("%s (%s %s %s)", p.Tag, p.Vendor, p.Model, p.Firmware)
}

// Device is a running emulated gateway.
type Device struct {
	Profile Profile
	S       *sim.Sim
	Host    *stack.Host
	WANIf   *stack.NetIf
	LANIf   *stack.NetIf
	Engine  *nat.Engine

	udpStack *udp.Stack
	tcpStack *tcp.Stack

	lanAddr     netip.Addr
	upstreamDNS netip.Addr
	ready       *sim.Chan[error]

	up   *fwdQueue
	down *fwdQueue
}

// Config sets the per-instance parameters of a device.
type Config struct {
	// LANAddr is the gateway's LAN-side address (e.g. 192.168.1.1); it
	// serves a /24 around it and leases from .100 on.
	LANAddr netip.Addr
}

// New builds (but does not start) a device.
func New(s *sim.Sim, prof Profile, cfg Config) *Device {
	host := stack.NewHost(s, "gw-"+prof.Tag)
	d := &Device{
		Profile: prof,
		S:       s,
		Host:    host,
		Engine:  nat.NewEngine(s, prof.NAT),
		lanAddr: cfg.LANAddr,
		ready:   sim.NewChan[error](s),
	}
	d.WANIf = host.AddIf("wan", netip.Addr{}, 0)
	d.LANIf = host.AddIf("lan", cfg.LANAddr, 24)
	if prof.SameMACBothPorts {
		// The paper found devices using one MAC for both ports (§4.4),
		// which forced them to use physically separate switches.
		d.LANIf.Link.MAC = d.WANIf.Link.MAC
	}
	d.udpStack = udp.New(host)
	d.udpStack.GeneratePortUnreachable = false // gateways are quiet
	d.udpStack.SetEphemeralBase(20000)
	d.tcpStack = tcp.New(host)
	d.tcpStack.SetEphemeralBase(20000)

	d.up = newFwdQueue(d, "up")
	d.down = newFwdQueue(d, "down")
	d.up.other = d.down
	d.down.other = d.up

	host.ForwardHook = d.forward
	host.RawHook = d.rawWAN

	a := cfg.LANAddr.As4()
	_, err := dhcp.NewServer(d.udpStack, dhcp.ServerConfig{
		If:        d.LANIf,
		PoolStart: netip.AddrFrom4([4]byte{a[0], a[1], a[2], 100}),
		PoolSize:  50,
		Mask:      24,
		Router:    cfg.LANAddr,
		DNS:       cfg.LANAddr, // the device's own DNS proxy
		Lease:     24 * time.Hour,
	})
	if err != nil {
		panic("gateway: lan dhcp server: " + err.Error())
	}
	return d
}

// Start boots the device: WAN DHCP, default route, DNS proxy. The
// returned channel yields nil once the WAN is configured.
func (d *Device) Start() *sim.Chan[error] {
	d.S.Spawn("boot-"+d.Profile.Tag, func(p *sim.Proc) {
		lease, err := dhcp.Acquire(p, d.udpStack, d.WANIf, dhcp.ClientConfig{DefaultRoute: true})
		if err != nil {
			d.ready.Send(fmt.Errorf("gateway %s: wan dhcp: %w", d.Profile.Tag, err))
			return
		}
		d.Engine.SetWAN(lease.Addr)
		d.upstreamDNS = lease.DNS
		d.startDNSProxy()
		d.ready.Send(nil)
	})
	return d.ready
}

// Reboot power-cycles the device, reproducing the paper's §4.4
// spontaneous-reboot quirk: the NAT binding table is wiped instantly
// (volatile state does not survive the power cycle), the WAN address is
// forgotten — all traffic drops as DropNoWAN during the outage — and
// after downtime the device re-runs its WAN DHCP exchange. The upstream
// DHCP server leases by MAC, so the device deterministically gets its
// old address back, exactly as the paper's testbed observed; bindings,
// however, are gone, and inbound packets to their old external ports
// count as DropBindingLostReboot. If the re-lease fails (the WAN link
// may be blackholed by an overlapping fault window), the device stays
// dark — the degraded-but-valid figure the experiment reports is the
// point. The DNS proxy's listeners persist across the reboot, a
// deliberate simplification: their sockets hold no NAT state.
func (d *Device) Reboot(downtime time.Duration) {
	d.Engine.WipeBindings()
	d.Engine.SetWAN(netip.Addr{})
	d.S.After(downtime, func() {
		d.S.Spawn("reboot-"+d.Profile.Tag, func(p *sim.Proc) {
			lease, err := dhcp.Acquire(p, d.udpStack, d.WANIf, dhcp.ClientConfig{DefaultRoute: true})
			if err != nil {
				return
			}
			d.Engine.SetWAN(lease.Addr)
			d.upstreamDNS = lease.DNS
		})
	})
}

// WANAddr returns the DHCP-assigned external address.
func (d *Device) WANAddr() netip.Addr { return d.Engine.WAN() }

// LANAddr returns the LAN-side address.
func (d *Device) LANAddr() netip.Addr { return d.lanAddr }

// rawWAN intercepts WAN-arriving packets addressed to the external
// address: real gateways dispatch those through the NAT table first and
// deliver to their own control plane only when no binding matches.
func (d *Device) rawWAN(in *stack.NetIf, ip *netpkt.IPv4) bool {
	// Hairpinning: LAN traffic addressed to our own external address is
	// intercepted before local delivery.
	if in == d.LANIf && ip.Dst.IsValid() && ip.Dst == d.Engine.WAN() {
		if !d.Profile.NAT.Hairpinning {
			// A non-hairpinning NAT eats these; count the drop so the
			// quirks probe's verdict is diagnosable.
			d.Engine.CountDrop(nat.DropHairpinDisabled)
			d.Host.Drop(ip)
			return true
		}
		if !d.Engine.Outbound(ip) {
			d.Host.Drop(ip)
			return true
		}
		ip.Dst = d.Engine.WAN()
		if !d.Engine.InboundHairpin(ip) {
			d.Host.Drop(ip)
			return true
		}
		d.transmit(d.LANIf, ip)
		return true
	}
	if in != d.WANIf || !d.Host.IsLocal(ip.Dst) {
		return false
	}
	if !d.Engine.Inbound(ip) {
		return false // local control-plane traffic (DHCP, DNS upstream, ...)
	}
	if d.Profile.NAT.DecrementTTL {
		if ip.TTL <= 1 {
			d.Host.Drop(ip) // swallow
			return true
		}
		ip.TTL--
	}
	d.down.enqueue(ip)
	return true
}

// forward is the device's forwarding path: quirks, then the queue, then
// NAT, then transmission.
func (d *Device) forward(in *stack.NetIf, ip *netpkt.IPv4) {
	outbound := in == d.LANIf
	// TTL handling (§4.4: some devices do not decrement).
	if d.Profile.NAT.DecrementTTL {
		if ip.TTL <= 1 {
			d.Host.SendICMPError(ip, netpkt.ICMPTimeExceeded, netpkt.ICMPCodeTTLExceeded, 0)
			d.Host.Drop(ip)
			return
		}
		ip.TTL--
	}
	if d.Profile.NAT.HonorRecordRoute && len(ip.Options) > 0 {
		netpkt.RecordRoute(ip.Options, in.Addr)
	}
	q := d.down
	if outbound {
		q = d.up
	}
	q.enqueue(ip)
}

// finishForward runs after the forwarding queue. Upstream packets are
// translated here (downstream ones were translated at WAN arrival so
// the binding lookup keyed the dispatch decision).
func (d *Device) finishForward(q *fwdQueue, ip *netpkt.IPv4) {
	q.noteServiced(ip.TotalLen())
	if q == d.up {
		if !d.Engine.Outbound(ip) {
			d.Host.Drop(ip)
			return
		}
		d.transmit(d.WANIf, ip)
		return
	}
	d.transmit(d.LANIf, ip)
}

func (d *Device) transmit(out *stack.NetIf, ip *netpkt.IPv4) {
	r, ok := d.Host.Lookup(ip.Dst)
	if !ok || r.If != out {
		// Fall back to direct delivery on the chosen interface.
		d.Host.SendVia(out, ip.Dst, ip)
		return
	}
	nh := r.NextHop
	if !nh.IsValid() {
		nh = ip.Dst
	}
	d.Host.SendVia(out, nh, ip)
}

// fwdQueue models the device's per-direction forwarding engine: a
// byte-limited drop-tail queue drained at the profile rate, degraded by
// BidirFactor while the opposite direction is busy.
type fwdQueue struct {
	d      *Device
	name   string
	other  *fwdQueue
	queue  sim.FIFO[*netpkt.IPv4]
	queued int
	busy   bool

	// current is the packet being serviced; serveDoneFn is its cached
	// completion callback (one closure per queue, not per packet).
	current     *netpkt.IPv4
	serveDoneFn func()

	// Sliding two-bucket load accounting, used to decide whether the
	// opposite direction is under sustained load (bidirectional
	// contention) as opposed to just carrying an ACK stream.
	winStart          sim.Time
	bitsCur, bitsPrev float64
}

// loadWindow is the load-measurement bucket width.
const loadWindow = 10 * time.Millisecond

func (q *fwdQueue) roll() {
	now := q.d.S.Now()
	for now-q.winStart >= loadWindow {
		q.bitsPrev = q.bitsCur
		q.bitsCur = 0
		q.winStart += loadWindow
		if now-q.winStart >= 2*loadWindow {
			q.bitsPrev = 0
			q.winStart = now
			break
		}
	}
}

func (q *fwdQueue) noteServiced(bytes int) {
	q.roll()
	q.bitsCur += float64(bytes * 8)
}

// loadBps estimates the direction's recent forwarding rate.
func (q *fwdQueue) loadBps() float64 {
	q.roll()
	return (q.bitsPrev + q.bitsCur) * float64(time.Second) / float64(2*loadWindow)
}

// capacityBps is the direction's solo capacity (wire speed = 100 Mb/s).
func (q *fwdQueue) capacityBps() float64 {
	var r float64
	if q == q.d.up {
		r = q.d.Profile.UpMbps
	} else {
		r = q.d.Profile.DownMbps
	}
	if r <= 0 {
		r = 100
	}
	return r * 1e6
}

func newFwdQueue(d *Device, name string) *fwdQueue {
	q := &fwdQueue{d: d, name: name}
	q.serveDoneFn = q.serveDone
	return q
}

// rate returns the current service rate in bits/sec; 0 = wire speed.
// When the opposite direction is carrying sustained load (a standing
// backlog, not just the ACK stream of a unidirectional transfer), the
// device's shared forwarding engine degrades this direction by the
// profile's BidirFactor — the effect behind the paper's Figure 8/9
// bidirectional series.
func (q *fwdQueue) rate() float64 {
	var r float64
	if q == q.d.up {
		r = q.d.Profile.UpMbps
	} else {
		r = q.d.Profile.DownMbps
	}
	contended := q.other.loadBps() > 0.25*q.other.capacityBps()
	f := q.d.Profile.BidirFactor
	if r <= 0 {
		// Wire-speed forwarding plane; contention can still bite.
		if contended && f > 0 && f < 1 {
			return 100e6 * f
		}
		return 0
	}
	if contended && f > 0 && f < 1 {
		r *= f
	}
	return r * 1e6
}

func (q *fwdQueue) enqueue(ip *netpkt.IPv4) {
	if q.rate() == 0 && !q.busy {
		// Wire-speed device: no forwarding bottleneck.
		q.d.finishForward(q, ip)
		return
	}
	if q.busy {
		buf := q.d.Profile.BufBytes
		if buf <= 0 {
			buf = 256 * 1024
		}
		if q.queued+ip.TotalLen() > buf {
			q.d.Host.Drop(ip)
			return
		}
		q.queue.Push(ip)
		q.queued += ip.TotalLen()
		return
	}
	q.serve(ip)
}

func (q *fwdQueue) serve(ip *netpkt.IPv4) {
	rate := q.rate()
	if rate == 0 {
		q.d.finishForward(q, ip)
		q.next()
		return
	}
	q.busy = true
	q.current = ip
	svc := time.Duration(float64(ip.TotalLen()*8) / rate * float64(time.Second))
	if svc <= 0 {
		svc = time.Nanosecond
	}
	q.d.S.After(svc, q.serveDoneFn)
}

func (q *fwdQueue) serveDone() {
	ip := q.current
	q.current = nil
	q.d.finishForward(q, ip)
	q.busy = false
	q.next()
}

func (q *fwdQueue) next() {
	if q.queue.Len() == 0 {
		return
	}
	ip := q.queue.Pop()
	q.queued -= ip.TotalLen()
	q.serve(ip)
}

// startDNSProxy brings up the UDP (and, per profile, TCP) DNS proxy on
// the LAN address.
func (d *Device) startDNSProxy() {
	conn, err := d.udpStack.Bind(d.lanAddr, 53)
	if err == nil {
		conn.Serve(func(q udp.Datagram) { d.dnsProxyUDP(conn, q) })
	}
	if d.Profile.DNSTCP != DNSTCPRefuse {
		lis, err := d.tcpStack.Listen(53)
		if err == nil {
			lis.Serve(func(c *tcp.Conn) {
				d.S.Spawn("dnsproxy-tcp-conn-"+d.Profile.Tag, func(cp *sim.Proc) {
					d.dnsProxyTCPConn(cp, c)
				})
			})
		}
	}
}

// dnsProxyUDP forwards query q, which arrived on conn, upstream from an
// ephemeral socket, and relays one answer from a process of its own.
func (d *Device) dnsProxyUDP(conn *udp.Conn, q udp.Datagram) {
	if !d.upstreamDNS.IsValid() {
		return
	}
	up, err := d.udpStack.Dial(d.upstreamDNS, 53)
	if err != nil {
		return
	}
	client, cport, data := q.From, q.FromPort, q.Data
	d.S.Spawn("dnsfwd-"+d.Profile.Tag, func(fp *sim.Proc) {
		defer up.Close()
		up.Send(data)
		resp, ok := up.Recv(fp, 5*time.Second)
		if !ok {
			return
		}
		conn.SendTo(client, cport, resp.Data)
	})
}

func (d *Device) dnsProxyTCPConn(p *sim.Proc, c *tcp.Conn) {
	defer c.Close()
	mode := d.Profile.DNSTCP
	var buf []byte
	for {
		var err error
		if buf, err = c.ReadAppend(p, buf, 4096, 10*time.Second); err != nil {
			return
		}
		msg, rest, ok := dnsmsg.UnframeTCP(buf)
		if !ok {
			continue
		}
		buf = rest
		switch mode {
		case DNSTCPRefuse:
			// Unreachable: the listener is only started when the mode
			// is not DNSTCPRefuse (see startDNS); swallow if it ever is.
			continue
		case DNSTCPAcceptOnly:
			// Swallow the query silently (the paper's accept-but-no-
			// answer devices).
			continue
		case DNSTCPAnswer:
			resp, ok := d.forwardDNSOverTCP(p, msg)
			if !ok {
				continue
			}
			if err := c.Write(p, dnsmsg.FrameTCP(resp)); err != nil {
				return
			}
		case DNSTCPAnswerViaUDP:
			// ap's quirk: queries received over TCP go upstream over UDP.
			up, err := d.udpStack.Dial(d.upstreamDNS, 53)
			if err != nil {
				continue
			}
			up.Send(msg)
			resp, ok := up.Recv(p, 5*time.Second)
			up.Close()
			if !ok {
				continue
			}
			if err := c.Write(p, dnsmsg.FrameTCP(resp.Data)); err != nil {
				return
			}
		}
	}
}

func (d *Device) forwardDNSOverTCP(p *sim.Proc, msg []byte) ([]byte, bool) {
	if !d.upstreamDNS.IsValid() {
		return nil, false
	}
	c, err := d.tcpStack.Connect(p, d.upstreamDNS, 53, 0, 5*time.Second)
	if err != nil {
		return nil, false
	}
	defer c.Close()
	if err := c.Write(p, dnsmsg.FrameTCP(msg)); err != nil {
		return nil, false
	}
	var buf []byte
	deadline := d.S.Now() + 5*time.Second
	for d.S.Now() < deadline {
		var err error
		if buf, err = c.ReadAppend(p, buf, 4096, deadline-d.S.Now()); err != nil {
			return nil, false
		}
		if msg, _, ok := dnsmsg.UnframeTCP(buf); ok {
			return msg, true
		}
	}
	return nil, false
}
