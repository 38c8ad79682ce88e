package gateway

import (
	"sort"
	"time"

	"hgw/internal/nat"
	"hgw/internal/netpkt"
)

// The profiles below encode the paper's Table 1 device inventory with
// behavioral parameters calibrated from its figures and prose:
//
//   - UDP-1/2/3 timeouts follow the orderings of Figures 3-5 and the
//     anchors stated in §4.1 (je/ed/owrt/te/to = 30 s, ls1 = 691 s,
//     UDP-2 minimum 54 s, be2 ≈ 202 s, population medians 90/180/181 s).
//   - Coarse timers on we/al/je/ng5 reproduce the wide UDP-2 quartiles.
//   - UDP-4 port classes: 23 preserve+reuse, 4 preserve+new-binding,
//     7 no-preservation.
//   - UDP-5: dl8 shortens the DNS-port timeout.
//   - TCP-1 timeouts follow Figure 7 (be1 = 239 s shortest; ap, bu1,
//     ed, ls3, ls5, ng1, te exceed the 24 h cut-off).
//   - TCP-2/3 rates, bidirectional factors and buffer sizes follow
//     Figures 8-9 (13 wire-speed devices; dl10/ls1 worst; smc
//     asymmetric 41/27).
//   - TCP-4 binding caps follow Figure 10 (16 for dl9/smc, ~1024 for
//     ng1/ap, median ≈ 135).
//   - ICMP/SCTP/DCCP/DNS behaviors follow Table 2 and §4.3 prose
//     (exact per-cell values are approximations preserving the stated
//     population counts; see DESIGN.md §5).
//
// Where a figure's pixel value is not stated in prose, the value is
// chosen to respect the figure's x-axis ordering and the published
// population median/mean.

// icmpClass is a shorthand for a device's ICMP error handling.
type icmpClass int

const (
	icmpFull     icmpClass = iota // translate everything correctly
	icmpFullNI                    // forward everything, inner headers unfixed
	icmpBadSum                    // translate, corrupt inner IP checksum (zy1)
	icmpBadSum12                  // ls1: 6 kinds per transport, bad inner csum
	icmpBasic4                    // TTL/Port/Host/Net only, inner unfixed
	icmpBasic2                    // TTL/Port only, translated correctly
	icmpRST                       // ls2: TCP errors -> RST; UDP unfixed
	icmpNone                      // nw1: nothing
)

// unknownClass is a shorthand for unknown-protocol fallback.
type unknownClass int

const (
	unkDrop     unknownClass = iota
	unkIPOnly                // rewrites IP source; SCTP passes
	unkIPOnlyNR              // rewrites IP source outbound, drops replies
	unkUntouched
)

// portClass is a shorthand for UDP-4 behavior.
type portClass int

const (
	portPreserveReuse portClass = iota
	portPreserveNew
	portNoPreserve
)

// profileRow is the compact calibration record for one device.
type profileRow struct {
	tag, vendor, model, fw string

	udp1, udp2, udp3 int // seconds
	granularity      int // seconds; coarse refresh timers
	dnsUDPTimeout    int // seconds; 0 = no per-service override (UDP-5)

	// ports sets port preservation and reuse. The RFC 4787 mapping and
	// filtering axes are not a column: the paper's measurements put
	// every Table 1 device at nat.Policy's zero APDM×APDF (§4.1's UDP-4
	// observations key bindings by the full destination endpoint, and
	// no device passed unsolicited inbound traffic in any test).
	ports portClass

	tcp1Min float64 // minutes; 0 = kept > 24 h
	maxTCP  int

	upMbps, downMbps float64 // 0 = wire speed (100 Mb/s path)
	bidirFactor      float64
	delayMs          int // target unidirectional queuing delay

	unknown unknownClass
	icmp    icmpClass
	dnsTCP  DNSTCPMode

	sameMAC  bool // same MAC on WAN and LAN ports (§4.4)
	noTTLDec bool // does not decrement TTL (§4.4)
	honorRR  bool // honors Record Route (§4.4)
	hairpin  bool
}

var profileRows = []profileRow{
	//   tag    vendor      model                 firmware                  u1   u2   u3  gran dns  ports              tcp1   max   up    down  bf    dly  unknown       icmp          dnstcp              quirks
	{tag: "al", vendor: "A-Link", model: "WNAP", fw: "e2.0.9A",
		udp1: 35, udp2: 210, udp3: 210, granularity: 45,
		ports: portPreserveReuse, tcp1Min: 8, maxTCP: 800,
		upMbps: 0, downMbps: 0, bidirFactor: 0.90, delayMs: 4,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer},
	{tag: "ap", vendor: "Apple", model: "Airport Express", fw: "7.4.2",
		udp1: 65, udp2: 54, udp3: 130,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 1024,
		upMbps: 12, downMbps: 12, bidirFactor: 0.60, delayMs: 65,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswerViaUDP, hairpin: true},
	{tag: "as1", vendor: "Asus", model: "RT-N15", fw: "2.0.1.1",
		udp1: 88, udp2: 170, udp3: 170,
		ports: portPreserveReuse, tcp1Min: 20, maxTCP: 600,
		upMbps: 0, downMbps: 0, bidirFactor: 0.70, delayMs: 8,
		unknown: unkDrop, icmp: icmpFullNI, dnsTCP: DNSTCPAcceptOnly},
	{tag: "be1", vendor: "Belkin", model: "Wireless N Router", fw: "F5D8236-4_WW_3.00.02",
		udp1: 110, udp2: 120, udp3: 185,
		ports: portPreserveNew, tcp1Min: 3.98, maxTCP: 128,
		upMbps: 0, downMbps: 0, bidirFactor: 0.80, delayMs: 5,
		unknown: unkDrop, icmp: icmpBasic4, dnsTCP: DNSTCPRefuse},
	{tag: "be2", vendor: "Belkin", model: "Enhanced N150", fw: "F6D4230-4_WW_1.00.03",
		udp1: 490, udp2: 202, udp3: 490,
		ports: portPreserveNew, tcp1Min: 5.5, maxTCP: 130,
		upMbps: 0, downMbps: 0, bidirFactor: 0.80, delayMs: 5,
		unknown: unkDrop, icmp: icmpBasic4, dnsTCP: DNSTCPRefuse},
	{tag: "bu1", vendor: "Buffalo", model: "WZR-AGL300NH", fw: "R1.06/B1.05",
		udp1: 90, udp2: 175, udp3: 175,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 768,
		upMbps: 0, downMbps: 0, bidirFactor: 1.0, delayMs: 8,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer, hairpin: true},
	{tag: "dl1", vendor: "D-Link", model: "DIR-300", fw: "1.03",
		udp1: 85, udp2: 178, udp3: 178,
		ports: portPreserveReuse, tcp1Min: 90, maxTCP: 176,
		upMbps: 98, downMbps: 98, bidirFactor: 0.75, delayMs: 12,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "dl2", vendor: "D-Link", model: "DIR-300", fw: "1.04",
		udp1: 85, udp2: 180, udp3: 180,
		ports: portPreserveReuse, tcp1Min: 95, maxTCP: 134,
		upMbps: 95, downMbps: 95, bidirFactor: 0.75, delayMs: 10,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer},
	{tag: "dl3", vendor: "D-Link", model: "DI-524up", fw: "v1.06",
		udp1: 100, udp2: 120, udp3: 120,
		ports: portPreserveReuse, tcp1Min: 58, maxTCP: 512,
		upMbps: 0, downMbps: 0, bidirFactor: 0.95, delayMs: 3,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "dl4", vendor: "D-Link", model: "DI-524", fw: "v2.0.4",
		udp1: 150, udp2: 230, udp3: 260,
		ports: portPreserveReuse, tcp1Min: 80, maxTCP: 48,
		upMbps: 0, downMbps: 0, bidirFactor: 1.0, delayMs: 6,
		unknown: unkUntouched, icmp: icmpBasic2, dnsTCP: DNSTCPRefuse, noTTLDec: true},
	{tag: "dl5", vendor: "D-Link", model: "DIR-100", fw: "v1.12",
		udp1: 100, udp2: 120, udp3: 120,
		ports: portPreserveReuse, tcp1Min: 57, maxTCP: 640,
		upMbps: 0, downMbps: 0, bidirFactor: 0.85, delayMs: 2,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "dl6", vendor: "D-Link", model: "DIR-600", fw: "v2.01",
		udp1: 85, udp2: 180, udp3: 180,
		ports: portPreserveReuse, tcp1Min: 110, maxTCP: 137,
		upMbps: 0, downMbps: 0, bidirFactor: 1.0, delayMs: 6,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer},
	{tag: "dl7", vendor: "D-Link", model: "DIR-615", fw: "v4.00",
		udp1: 85, udp2: 180, udp3: 180,
		ports: portPreserveReuse, tcp1Min: 100, maxTCP: 512,
		upMbps: 0, downMbps: 0, bidirFactor: 0.75, delayMs: 3,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer},
	{tag: "dl8", vendor: "D-Link", model: "DIR-635", fw: "v2.33EU",
		udp1: 160, udp2: 250, udp3: 280, dnsUDPTimeout: 40,
		ports: portPreserveReuse, tcp1Min: 120, maxTCP: 200,
		upMbps: 0, downMbps: 0, bidirFactor: 0.90, delayMs: 60,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPAcceptOnly},
	{tag: "dl9", vendor: "D-Link", model: "DI-604", fw: "v3.09",
		udp1: 180, udp2: 270, udp3: 300,
		ports: portNoPreserve, tcp1Min: 58, maxTCP: 16,
		upMbps: 30, downMbps: 30, bidirFactor: 0.55, delayMs: 25,
		unknown: unkUntouched, icmp: icmpBasic2, dnsTCP: DNSTCPRefuse, noTTLDec: true},
	{tag: "dl10", vendor: "D-Link", model: "DI-713P", fw: "2.60 build 6a",
		udp1: 120, udp2: 130, udp3: 240,
		ports: portNoPreserve, tcp1Min: 55, maxTCP: 30,
		upMbps: 6, downMbps: 6, bidirFactor: 1.0, delayMs: 74,
		unknown: unkUntouched, icmp: icmpBasic2, dnsTCP: DNSTCPRefuse, sameMAC: true},
	{tag: "ed", vendor: "Edimax", model: "6104WG", fw: "2.63",
		udp1: 30, udp2: 180, udp3: 181,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 400,
		upMbps: 35, downMbps: 35, bidirFactor: 0.55, delayMs: 45,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer},
	{tag: "je", vendor: "Jensen", model: "Air:Link 59300", fw: "1.15",
		udp1: 30, udp2: 80, udp3: 80, granularity: 20,
		ports: portPreserveReuse, tcp1Min: 40, maxTCP: 448,
		upMbps: 90, downMbps: 90, bidirFactor: 0.65, delayMs: 10,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer},
	{tag: "ls1", vendor: "Linksys", model: "BEFSR41c2", fw: "1.45.11",
		udp1: 691, udp2: 380, udp3: 691,
		ports: portNoPreserve, tcp1Min: 15, maxTCP: 32,
		upMbps: 6, downMbps: 8, bidirFactor: 1.0, delayMs: 110,
		unknown: unkUntouched, icmp: icmpBadSum12, dnsTCP: DNSTCPRefuse, sameMAC: true},
	{tag: "ls2", vendor: "Linksys", model: "WR54G", fw: "v7.00.1",
		udp1: 90, udp2: 90, udp3: 90,
		ports: portPreserveReuse, tcp1Min: 10, maxTCP: 130,
		upMbps: 65, downMbps: 65, bidirFactor: 0.55, delayMs: 28,
		unknown: unkDrop, icmp: icmpRST, dnsTCP: DNSTCPRefuse},
	{tag: "ls3", vendor: "Linksys", model: "WRT54GL v1.1", fw: "v4.30.7",
		udp1: 75, udp2: 180, udp3: 181,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 112,
		upMbps: 58, downMbps: 58, bidirFactor: 0.55, delayMs: 32,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "ls5", vendor: "Linksys", model: "WRT54GL-EU", fw: "v4.30.7",
		udp1: 75, udp2: 180, udp3: 181,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 64,
		upMbps: 58, downMbps: 58, bidirFactor: 0.55, delayMs: 32,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "owrt", vendor: "Linksys", model: "WRT54G OpenWRT", fw: "RC5",
		udp1: 30, udp2: 180, udp3: 181,
		ports: portPreserveReuse, tcp1Min: 900, maxTCP: 256,
		upMbps: 18, downMbps: 18, bidirFactor: 0.60, delayMs: 50,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer, honorRR: true, hairpin: true},
	{tag: "to", vendor: "Linksys", model: "WRT54GL v1.1 tomato", fw: "1.27",
		udp1: 30, udp2: 180, udp3: 181,
		ports: portPreserveReuse, tcp1Min: 400, maxTCP: 100,
		upMbps: 62, downMbps: 62, bidirFactor: 0.60, delayMs: 18,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAnswer, honorRR: true, hairpin: true},
	{tag: "ng1", vendor: "Netgear", model: "RP614 v4", fw: "V1.0.2_06.29",
		udp1: 300, udp2: 290, udp3: 320,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 1024,
		upMbps: 0, downMbps: 0, bidirFactor: 0.85, delayMs: 2,
		unknown: unkIPOnlyNR, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "ng2", vendor: "Netgear", model: "WGR614 v7", fw: "(1.0.13_1.0.13)",
		udp1: 60, udp2: 60, udp3: 60,
		ports: portPreserveReuse, tcp1Min: 30, maxTCP: 64,
		upMbps: 70, downMbps: 70, bidirFactor: 0.60, delayMs: 30,
		unknown: unkIPOnlyNR, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "ng3", vendor: "Netgear", model: "WGR614 v9", fw: "V1.2.6_18.0.17",
		udp1: 330, udp2: 150, udp3: 350,
		ports: portPreserveNew, tcp1Min: 48, maxTCP: 96,
		upMbps: 50, downMbps: 50, bidirFactor: 0.60, delayMs: 35,
		unknown: unkDrop, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "ng4", vendor: "Netgear", model: "WNR2000-100PES", fw: "v.1.0.0.34_29.0.45",
		udp1: 330, udp2: 150, udp3: 350,
		ports: portPreserveNew, tcp1Min: 52, maxTCP: 320,
		upMbps: 45, downMbps: 45, bidirFactor: 0.60, delayMs: 70,
		unknown: unkDrop, icmp: icmpFullNI, dnsTCP: DNSTCPRefuse},
	{tag: "ng5", vendor: "Netgear", model: "WGR614 v4", fw: "V5.0_07",
		udp1: 600, udp2: 160, udp3: 600, granularity: 20,
		ports: portNoPreserve, tcp1Min: 5, maxTCP: 120,
		upMbps: 48, downMbps: 48, bidirFactor: 0.60, delayMs: 38,
		unknown: unkDrop, icmp: icmpBasic4, dnsTCP: DNSTCPRefuse},
	{tag: "nw1", vendor: "Netwjork", model: "54M", fw: "Ver 1.2.6",
		udp1: 95, udp2: 100, udp3: 100,
		ports: portNoPreserve, tcp1Min: 25, maxTCP: 128,
		upMbps: 55, downMbps: 55, bidirFactor: 0.60, delayMs: 15,
		unknown: unkDrop, icmp: icmpNone, dnsTCP: DNSTCPRefuse},
	{tag: "smc", vendor: "SMC", model: "Barricade SMC7004VBR", fw: "R1.07",
		udp1: 170, udp2: 310, udp3: 340,
		ports: portNoPreserve, tcp1Min: 62, maxTCP: 16,
		upMbps: 41, downMbps: 27, bidirFactor: 0.80, delayMs: 20,
		unknown: unkDrop, icmp: icmpBasic2, dnsTCP: DNSTCPRefuse, noTTLDec: true},
	{tag: "te", vendor: "Telewell", model: "TW-3G", fw: "V7.04b3",
		udp1: 30, udp2: 180, udp3: 181,
		ports: portPreserveReuse, tcp1Min: 0, maxTCP: 136,
		upMbps: 15, downMbps: 15, bidirFactor: 0.60, delayMs: 55,
		unknown: unkIPOnly, icmp: icmpFullNI, dnsTCP: DNSTCPAcceptOnly},
	{tag: "we", vendor: "Webee", model: "Wireless N Router", fw: "e2.0.9D",
		udp1: 40, udp2: 70, udp3: 70, granularity: 45,
		ports: portPreserveReuse, tcp1Min: 12, maxTCP: 896,
		upMbps: 0, downMbps: 0, bidirFactor: 0.70, delayMs: 4,
		unknown: unkIPOnly, icmp: icmpFull, dnsTCP: DNSTCPAcceptOnly},
	{tag: "zy1", vendor: "ZyXel", model: "P-335U", fw: "V3.60(AMB.2)C0",
		udp1: 420, udp2: 330, udp3: 420,
		ports: portNoPreserve, tcp1Min: 180, maxTCP: 300,
		upMbps: 40, downMbps: 40, bidirFactor: 0.60, delayMs: 40,
		unknown: unkDrop, icmp: icmpBadSum, dnsTCP: DNSTCPRefuse},
}

// ls1Kinds are the six error kinds (per transport) that ls1 forwards.
var ls1Kinds = []netpkt.ICMPKind{
	netpkt.KindReassemblyTimeExceeded, netpkt.KindFragNeeded,
	netpkt.KindTTLExceeded, netpkt.KindHostUnreachable,
	netpkt.KindNetUnreachable, netpkt.KindPortUnreachable,
}

// basic4Kinds are TTL/Port/Host/Net.
var basic4Kinds = []netpkt.ICMPKind{
	netpkt.KindTTLExceeded, netpkt.KindPortUnreachable,
	netpkt.KindHostUnreachable, netpkt.KindNetUnreachable,
}

// basic2Kinds are TTL/Port — the minimum the paper saw everywhere but
// nw1.
var basic2Kinds = []netpkt.ICMPKind{
	netpkt.KindTTLExceeded, netpkt.KindPortUnreachable,
}

func (r profileRow) build() Profile {
	pol := nat.Policy{
		UDP: nat.UDPTimeouts{
			Outbound: time.Duration(r.udp1) * time.Second,
			Inbound:  time.Duration(r.udp2) * time.Second,
			Bidir:    time.Duration(r.udp3) * time.Second,
		},
		TimerGranularity:    time.Duration(r.granularity) * time.Second,
		ReuseExpiredBinding: r.ports == portPreserveReuse,
		TCPEstablished:      time.Duration(r.tcp1Min * float64(time.Minute)),
		MaxTCPBindings:      r.maxTCP,
		DecrementTTL:        !r.noTTLDec,
		HonorRecordRoute:    r.honorRR,
		Hairpinning:         r.hairpin,
	}
	if r.ports != portNoPreserve {
		pol.PortAlloc = nat.PortAllocPreserving
	}
	if r.dnsUDPTimeout > 0 {
		pol.UDPServices = map[uint16]nat.UDPTimeouts{
			53: {
				Outbound: time.Duration(r.dnsUDPTimeout) * time.Second,
				Inbound:  time.Duration(r.dnsUDPTimeout) * time.Second,
				Bidir:    time.Duration(r.dnsUDPTimeout) * time.Second,
			},
		}
	}
	switch r.unknown {
	case unkDrop:
		pol.UnknownProto = nat.UnknownDrop
	case unkIPOnly:
		pol.UnknownProto = nat.UnknownTranslateIPOnly
	case unkIPOnlyNR:
		pol.UnknownProto = nat.UnknownTranslateIPOnly
		pol.UnknownInboundDrop = true
	case unkUntouched:
		pol.UnknownProto = nat.UnknownPassUntouched
	}
	switch r.icmp {
	case icmpFull:
		pol.ICMPTCP = nat.AllICMP(nat.ICMPTranslate)
		pol.ICMPUDP = nat.AllICMP(nat.ICMPTranslate)
		pol.ICMPEcho = nat.ICMPTranslate
	case icmpFullNI:
		pol.ICMPTCP = nat.AllICMP(nat.ICMPNoInnerFix)
		pol.ICMPUDP = nat.AllICMP(nat.ICMPNoInnerFix)
		pol.ICMPEcho = nat.ICMPNoInnerFix
	case icmpBadSum:
		pol.ICMPTCP = nat.AllICMP(nat.ICMPBadInnerIPChecksum)
		pol.ICMPUDP = nat.AllICMP(nat.ICMPBadInnerIPChecksum)
		pol.ICMPEcho = nat.ICMPBadInnerIPChecksum
	case icmpBadSum12:
		pol.ICMPTCP = nat.ICMPOnly(nat.ICMPBadInnerIPChecksum, ls1Kinds...)
		pol.ICMPUDP = nat.ICMPOnly(nat.ICMPBadInnerIPChecksum, ls1Kinds...)
		pol.ICMPEcho = nat.ICMPDrop
	case icmpBasic4:
		pol.ICMPTCP = nat.ICMPOnly(nat.ICMPNoInnerFix, basic4Kinds...)
		pol.ICMPUDP = nat.ICMPOnly(nat.ICMPNoInnerFix, basic4Kinds...)
		pol.ICMPEcho = nat.ICMPDrop
	case icmpBasic2:
		pol.ICMPTCP = nat.ICMPOnly(nat.ICMPTranslate, basic2Kinds...)
		pol.ICMPUDP = nat.ICMPOnly(nat.ICMPTranslate, basic2Kinds...)
		pol.ICMPEcho = nat.ICMPDrop
	case icmpRST:
		pol.ICMPTCP = nat.AllICMP(nat.ICMPToRST)
		pol.ICMPUDP = nat.AllICMP(nat.ICMPNoInnerFix)
		pol.ICMPEcho = nat.ICMPDrop
	case icmpNone:
		pol.ICMPTCP = nat.AllICMP(nat.ICMPDrop)
		pol.ICMPUDP = nat.AllICMP(nat.ICMPDrop)
		pol.ICMPEcho = nat.ICMPDrop
	}
	// Buffer sized for the target unidirectional queuing delay at the
	// device's download rate (wire-speed devices budget against the
	// 100 Mb/s path). The 16-bit TCP window caps the achievable delay for
	// large-buffer devices; see DESIGN.md §5.
	rate := r.downMbps
	if rate <= 0 {
		rate = 100
	}
	buf := int(float64(r.delayMs) / 1000 * rate * 1e6 / 8)
	if buf < 8*1024 {
		buf = 8 * 1024
	}
	if buf > 160*1024 {
		buf = 160 * 1024
	}
	return Profile{
		Tag: r.tag, Vendor: r.vendor, Model: r.model, Firmware: r.fw,
		NAT:    pol,
		UpMbps: r.upMbps, DownMbps: r.downMbps,
		BidirFactor:      r.bidirFactor,
		BufBytes:         buf,
		DNSTCP:           r.dnsTCP,
		SameMACBothPorts: r.sameMAC,
	}
}

var (
	profilesByTag map[string]Profile
	profileOrder  []string
)

func init() {
	profilesByTag = make(map[string]Profile, len(profileRows))
	for _, r := range profileRows {
		if _, dup := profilesByTag[r.tag]; dup {
			panic("gateway: duplicate profile tag " + r.tag)
		}
		profilesByTag[r.tag] = r.build()
		profileOrder = append(profileOrder, r.tag)
	}
	sort.Strings(profileOrder)
}

// Tags returns the 34 device tags in alphabetical order.
func Tags() []string {
	return append([]string(nil), profileOrder...)
}

// ByTag returns the profile for a device tag.
func ByTag(tag string) (Profile, bool) {
	p, ok := profilesByTag[tag]
	return p, ok
}

// Profiles returns all 34 device profiles in alphabetical tag order.
func Profiles() []Profile {
	out := make([]Profile, 0, len(profileOrder))
	for _, tag := range profileOrder {
		out = append(out, profilesByTag[tag])
	}
	return out
}
