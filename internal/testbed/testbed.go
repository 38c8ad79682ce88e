// Package testbed builds the paper's Figure 1 experimental setup on the
// simulator: a test server and a test client, each with one interface
// per VLAN, connected through a set of emulated home gateways via two
// VLAN-partitioned switches. The server runs a DHCP service per WAN
// VLAN (leasing a distinct RFC 1918 block to each gateway) and the
// global DNS server; the client acquires a lease from each gateway's
// LAN DHCP server and installs only interface-specific routes.
package testbed

import (
	"fmt"
	"net/netip"
	"time"

	"hgw/internal/dccp"
	"hgw/internal/dhcp"
	"hgw/internal/dnsmsg"
	"hgw/internal/gateway"
	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sctp"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/tcp"
	"hgw/internal/udp"
)

// ServerName is the DNS name the testbed zone serves (the paper used
// the hiit.fi DNS server).
const ServerName = "server.hiit.fi"

// Endpoint bundles a host with all its transport stacks.
type Endpoint struct {
	Host *stack.Host
	UDP  *udp.Stack
	TCP  *tcp.Stack
	SCTP *sctp.Stack
	DCCP *dccp.Stack
}

func newEndpoint(s *sim.Sim, name string) *Endpoint {
	h := stack.NewHost(s, name)
	return &Endpoint{
		Host: h,
		UDP:  udp.New(h),
		TCP:  tcp.New(h),
		SCTP: sctp.New(h),
		DCCP: dccp.New(h),
	}
}

// Node is one gateway under test with its addressing.
type Node struct {
	Index    int // 1-based; subnets are derived from it
	Tag      string
	Dev      *gateway.Device
	ServerIf *stack.NetIf // the server's interface on this node's WAN VLAN
	ClientIf *stack.NetIf // the client's interface on this node's LAN VLAN

	// ClientAddr is the client's DHCP-assigned LAN address; WANAddr the
	// gateway's DHCP-assigned external address (valid after Start).
	ClientAddr netip.Addr
	WANAddr    netip.Addr

	// ServerAddr is the server's address on this node's WAN VLAN (the
	// destination the client probes).
	ServerAddr netip.Addr

	wanLink *netem.Link
}

// WANLink returns the node's gateway-to-WAN-switch link, the surface
// fault injection acts on (loss/corrupt/flap windows, blackholes).
func (n *Node) WANLink() *netem.Link { return n.wanLink }

// Config controls testbed construction.
type Config struct {
	// Tags selects the gateways (default: all 34).
	Tags []string
	// Profiles, when non-empty, supplies the gateway profiles directly
	// and takes precedence over Tags. Synthetic fleets use this: their
	// profiles exist only in the caller's hands, not in the Table 1
	// inventory.
	Profiles []gateway.Profile
	// Seed seeds the simulator when Build creates one.
	Seed int64
	// VLANBase is the first VLAN id the testbed allocates (default
	// 1000). Sharded fleets give each shard a disjoint VLAN range so a
	// fleet reads as one switched topology split across sub-testbeds.
	VLANBase int
	// Obs, when non-nil, is attached to the simulator (sim.SetObs)
	// before any event runs, so the whole build/boot/sweep trajectory
	// is accounted. Telemetry is write-only from simulation code
	// (obslint), so attaching a registry never changes the run.
	Obs *obs.Registry
}

// switchLink is every testbed link: 100 Mb/s with generous switch/NIC
// queues, because the interesting queueing happens inside the
// gateways, as on the paper's testbed.
var switchLink = netem.LinkConfig{QueueBytes: 256 * 1024}

// MaxNodes bounds the devices a single testbed can address: node
// subnets are carved from 10.0.0.0/8 (WAN) and 192.168.0.0/16 plus
// 172.16.0.0/12 (LAN), and the LAN space runs out first.
const MaxNodes = 4094

// wanSubnetAddr returns host addr `host` on node idx's WAN /24. The
// first 255 nodes keep the paper's 10.0.<idx>.0/24 numbering; larger
// fleets continue into 10.<idx/256>.<idx%256>.0/24.
func wanSubnetAddr(idx int, host byte) netip.Addr {
	return netpkt.Addr4(10, byte(idx>>8), byte(idx), host)
}

// lanGatewayAddr returns node idx's LAN-side gateway address. The
// first 255 nodes keep the familiar 192.168.<idx>.1; larger fleets
// continue into 172.16.0.0/12.
func lanGatewayAddr(idx int) netip.Addr {
	if idx < 256 {
		return netpkt.Addr4(192, 168, byte(idx), 1)
	}
	return netpkt.Addr4(172, byte(16+idx>>8), byte(idx), 1)
}

// Testbed is the assembled Figure 1 environment.
type Testbed struct {
	S      *sim.Sim
	Server *Endpoint
	Client *Endpoint
	Nodes  []*Node

	wanSwitch *netem.Switch
	lanSwitch *netem.Switch
	dnsZone   dnsmsg.Zone
	vlanBase  int

	// DNSQueriesUDP counts queries the testbed DNS server answered
	// over UDP (used to detect gateways that forward TCP-received
	// queries upstream over UDP, like ap).
	DNSQueriesUDP int
}

// Build constructs the testbed topology (links, switches, gateways,
// addressing) without running any traffic. Call Start from a simulator
// process (or use Run) to bring the DHCP leases up.
func Build(s *sim.Sim, cfg Config) *Testbed {
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		tags := cfg.Tags
		if len(tags) == 0 {
			tags = gateway.Tags()
		}
		profiles = make([]gateway.Profile, 0, len(tags))
		for _, tag := range tags {
			prof, ok := gateway.ByTag(tag)
			if !ok {
				panic("testbed: unknown gateway tag " + tag)
			}
			profiles = append(profiles, prof)
		}
	}
	if len(profiles) > MaxNodes {
		panic(fmt.Sprintf("testbed: %d devices exceed the %d-node address space; shard the fleet", len(profiles), MaxNodes))
	}
	vlanBase := cfg.VLANBase
	if vlanBase <= 0 {
		vlanBase = 1000
	}
	tb := &Testbed{
		S:         s,
		Server:    newEndpoint(s, "server"),
		Client:    newEndpoint(s, "client"),
		wanSwitch: netem.NewSwitch(s, "wan-sw"),
		lanSwitch: netem.NewSwitch(s, "lan-sw"),
		dnsZone:   dnsmsg.Zone{},
		vlanBase:  vlanBase,
	}

	for i, prof := range profiles {
		idx := i + 1
		node := &Node{
			Index:      idx,
			Tag:        prof.Tag,
			ServerAddr: wanSubnetAddr(idx, 1),
		}

		// Server side: vlan-if<idx> with 10.0.<idx>.1/24 plus a DHCP
		// service leasing 10.0.<idx>.50+ to the gateway's WAN port.
		sif := tb.Server.Host.AddIf(fmt.Sprintf("vlan-if%d", idx), node.ServerAddr, 24)
		node.ServerIf = sif
		if _, err := dhcp.NewServer(tb.Server.UDP, dhcp.ServerConfig{
			If:        sif,
			PoolStart: wanSubnetAddr(idx, 50),
			PoolSize:  8,
			Mask:      24,
			Router:    node.ServerAddr,
			DNS:       node.ServerAddr, // "global" DNS server
			Lease:     24 * time.Hour,
		}); err != nil {
			panic("testbed: server dhcp: " + err.Error())
		}

		// The gateway itself.
		node.Dev = gateway.New(s, prof, gateway.Config{LANAddr: lanGatewayAddr(idx)})

		// Client side: an unconfigured vlan interface.
		cif := tb.Client.Host.AddIf(fmt.Sprintf("vlan-if%d", idx), netip.Addr{}, 0)
		node.ClientIf = cif

		// Wire through the two switches on per-node VLANs, like the
		// paper's HP-2524s (WAN and LAN on physically separate switches
		// because of the shared-MAC devices).
		wanVLAN := tb.wanVLAN(idx)
		lanVLAN := tb.lanVLAN(idx)
		netem.Connect(s, sif.Link, tb.wanSwitch.AddPort(wanVLAN), switchLink)
		node.wanLink = netem.Connect(s, node.Dev.WANIf.Link, tb.wanSwitch.AddPort(wanVLAN), switchLink)
		netem.Connect(s, node.Dev.LANIf.Link, tb.lanSwitch.AddPort(lanVLAN), switchLink)
		netem.Connect(s, cif.Link, tb.lanSwitch.AddPort(lanVLAN), switchLink)

		tb.Nodes = append(tb.Nodes, node)
	}

	// The test server routes between its VLAN interfaces (in the paper
	// it is the default router of every WAN segment); gateway-to-gateway
	// traffic, e.g. for the hole-punching experiments, relies on this.
	tb.Server.Host.ForwardHook = func(in *stack.NetIf, ip *netpkt.IPv4) {
		if ip.TTL <= 1 {
			// The error copies what it embeds; the packet dies here.
			tb.Server.Host.SendICMPError(ip, netpkt.ICMPTimeExceeded, netpkt.ICMPCodeTTLExceeded, 0)
			tb.Server.Host.Drop(ip)
			return
		}
		ip.TTL--
		tb.Server.Host.Send(ip)
	}

	// The testbed DNS zone, served over UDP and TCP on every server
	// address.
	tb.dnsZone[ServerName] = netpkt.Addr4(10, 0, 1, 1)
	tb.startDNSServer()
	return tb
}

// wanVLAN and lanVLAN map a node index onto the testbed's VLAN range.
// Adjacent ids per node keep the range dense so sharded fleets can pack
// disjoint ranges into the 12-bit VLAN space of real switches.
func (tb *Testbed) wanVLAN(idx int) uint16 { return uint16(tb.vlanBase + 2*idx) }
func (tb *Testbed) lanVLAN(idx int) uint16 { return uint16(tb.vlanBase + 2*idx + 1) }

// Start boots every gateway and then configures every client interface
// via DHCP, installing interface-specific routes to the corresponding
// server VLAN (the paper's modified dhcpclient). It must be called from
// a simulator process.
func (tb *Testbed) Start(p *sim.Proc) error {
	// Boot gateways in parallel.
	chans := make([]*sim.Chan[error], len(tb.Nodes))
	for i, n := range tb.Nodes {
		chans[i] = n.Dev.Start()
	}
	for i, ch := range chans {
		err, ok := ch.Recv(p, 30*time.Second)
		if !ok {
			return fmt.Errorf("testbed: gateway %s boot timed out", tb.Nodes[i].Tag)
		}
		if err != nil {
			return err
		}
		tb.Nodes[i].WANAddr = tb.Nodes[i].Dev.WANAddr()
	}
	// Configure client VLAN interfaces (sequentially: each Acquire is
	// quick in virtual time).
	for _, n := range tb.Nodes {
		serverNet := netip.PrefixFrom(n.ServerAddr, 24).Masked()
		lease, err := dhcp.Acquire(p, tb.Client.UDP, n.ClientIf, dhcp.ClientConfig{
			ExtraRoutes: []netip.Prefix{serverNet},
		})
		if err != nil {
			return fmt.Errorf("testbed: client dhcp on %s: %w", n.Tag, err)
		}
		n.ClientAddr = lease.Addr
	}
	return nil
}

// Run builds a testbed with a fresh simulator, starts it, and returns
// both. It panics on setup failure (tests and benchmarks rely on a
// working testbed).
func Run(cfg Config) (*Testbed, *sim.Sim) {
	s := sim.New(cfg.Seed + 1)
	s.SetObs(cfg.Obs)
	tb := Build(s, cfg)
	var startErr error
	done := s.Spawn("testbed-start", func(p *sim.Proc) {
		startErr = tb.Start(p)
	})
	s.Run(0)
	if !done.Exited() {
		panic("testbed: setup stalled")
	}
	if startErr != nil {
		panic("testbed: " + startErr.Error())
	}
	return tb, s
}

// startDNSServer serves the zone over UDP and TCP port 53.
func (tb *Testbed) startDNSServer() {
	conn, err := tb.Server.UDP.Bind(netip.Addr{}, 53)
	if err != nil {
		panic("testbed: dns udp: " + err.Error())
	}
	conn.Serve(func(d udp.Datagram) {
		q, err := dnsmsg.Parse(d.Data)
		if err != nil {
			return
		}
		tb.DNSQueriesUDP++
		resp, err := tb.dnsZone.Answer(q).Marshal()
		if err != nil {
			return
		}
		conn.SendTo(d.From, d.FromPort, resp)
	})
	lis, err := tb.Server.TCP.Listen(53)
	if err != nil {
		panic("testbed: dns tcp: " + err.Error())
	}
	lis.Serve(func(cc *tcp.Conn) {
		tb.S.Spawn("dns-tcp-conn", func(cp *sim.Proc) {
			defer cc.Close()
			var buf []byte
			for {
				var err error
				if buf, err = cc.ReadAppend(cp, buf, 4096, 10*time.Second); err != nil {
					return
				}
				msg, rest, ok := dnsmsg.UnframeTCP(buf)
				if !ok {
					continue
				}
				buf = rest
				q, err := dnsmsg.Parse(msg)
				if err != nil {
					continue
				}
				resp, err := tb.dnsZone.Answer(q).Marshal()
				if err != nil {
					continue
				}
				if err := cc.Write(cp, dnsmsg.FrameTCP(resp)); err != nil {
					return
				}
			}
		})
	})
}

// AddWANHost attaches an additional host to a node's WAN segment and
// configures it via the server's per-VLAN DHCP service, returning the
// endpoint and its leased address. The host sits on the same subnet as
// the gateway's WAN port, so it is a second server-side endpoint with a
// distinct address — the NATMap probe sends from it to tell
// address-dependent from endpoint-independent filtering, and probes
// mapping behavior across destination addresses. It must be called from
// a simulator process.
func (tb *Testbed) AddWANHost(p *sim.Proc, n *Node, name string) (*Endpoint, netip.Addr, error) {
	ep := newEndpoint(tb.S, name)
	ifc := ep.Host.AddIf("wan0", netip.Addr{}, 0)
	netem.Connect(tb.S, ifc.Link, tb.wanSwitch.AddPort(tb.wanVLAN(n.Index)), switchLink)
	lease, err := dhcp.Acquire(p, ep.UDP, ifc, dhcp.ClientConfig{DefaultRoute: true})
	if err != nil {
		return nil, netip.Addr{}, fmt.Errorf("testbed: wan host %s dhcp: %w", name, err)
	}
	return ep, lease.Addr, nil
}

// AddLANHost attaches an additional host to a node's LAN segment and
// configures it via the gateway's DHCP (with a default route through
// the gateway, like an ordinary household machine). It must be called
// from a simulator process. The hole-punching experiments use one such
// host behind each of two gateways.
func (tb *Testbed) AddLANHost(p *sim.Proc, n *Node, name string) (*Endpoint, error) {
	ep := newEndpoint(tb.S, name)
	ifc := ep.Host.AddIf("lan0", netip.Addr{}, 0)
	netem.Connect(tb.S, ifc.Link, tb.lanSwitch.AddPort(tb.lanVLAN(n.Index)), switchLink)
	if _, err := dhcp.Acquire(p, ep.UDP, ifc, dhcp.ClientConfig{DefaultRoute: true}); err != nil {
		return nil, fmt.Errorf("testbed: lan host %s dhcp: %w", name, err)
	}
	return ep, nil
}
