package gateway

import (
	"testing"
	"time"

	"hgw/internal/nat"
	"hgw/internal/netpkt"
)

func TestProfilesInventory(t *testing.T) {
	tags := Tags()
	if len(tags) != 34 {
		t.Fatalf("profiles = %d, want 34", len(tags))
	}
	if _, ok := ByTag("owrt"); !ok {
		t.Fatal("owrt missing")
	}
	if _, ok := ByTag("nope"); ok {
		t.Fatal("unknown tag found")
	}
	if len(Profiles()) != 34 {
		t.Fatal("Profiles() size")
	}
}

func TestProfileAnchorsFromPaper(t *testing.T) {
	// Anchor values stated in the paper's prose.
	je, _ := ByTag("je")
	if je.NAT.UDP.Outbound != 30*time.Second {
		t.Errorf("je UDP-1 = %v, want 30s", je.NAT.UDP.Outbound)
	}
	ls1, _ := ByTag("ls1")
	if ls1.NAT.UDP.Outbound != 691*time.Second {
		t.Errorf("ls1 UDP-1 = %v, want 691s", ls1.NAT.UDP.Outbound)
	}
	be2, _ := ByTag("be2")
	if be2.NAT.UDP.Inbound != 202*time.Second {
		t.Errorf("be2 UDP-2 = %v, want 202s", be2.NAT.UDP.Inbound)
	}
	be1, _ := ByTag("be1")
	if be1.NAT.TCPEstablished != time.Duration(3.98*float64(time.Minute)) {
		t.Errorf("be1 TCP-1 = %v, want 239s", be1.NAT.TCPEstablished)
	}
	// Seven devices retain TCP bindings beyond the 24 h cut-off.
	over24 := 0
	for _, p := range Profiles() {
		if p.NAT.TCPEstablished == 0 {
			over24++
		}
	}
	if over24 != 7 {
		t.Errorf("devices > 24 h = %d, want 7", over24)
	}
	// dl9 and smc allow only 16 TCP bindings; ng1 and ap about 1024.
	for _, tag := range []string{"dl9", "smc"} {
		p, _ := ByTag(tag)
		if p.NAT.MaxTCPBindings != 16 {
			t.Errorf("%s max bindings = %d, want 16", tag, p.NAT.MaxTCPBindings)
		}
	}
	for _, tag := range []string{"ng1", "ap"} {
		p, _ := ByTag(tag)
		if p.NAT.MaxTCPBindings != 1024 {
			t.Errorf("%s max bindings = %d, want 1024", tag, p.NAT.MaxTCPBindings)
		}
	}
}

func TestPopulationCountsFromProse(t *testing.T) {
	var ipOnly, untouched, drop, sctpCapable int
	var preserve, reuse int
	var dnsTCPListeners, dnsTCPAnswerers int
	for _, p := range Profiles() {
		switch p.NAT.UnknownProto {
		case nat.UnknownTranslateIPOnly:
			ipOnly++
			if !p.NAT.UnknownInboundDrop {
				sctpCapable++
			}
		case nat.UnknownPassUntouched:
			untouched++
		default:
			drop++
		}
		if p.NAT.PortAlloc == nat.PortAllocPreserving {
			preserve++
			if p.NAT.ReuseExpiredBinding {
				reuse++
			}
		}
		if p.DNSTCP != DNSTCPRefuse {
			dnsTCPListeners++
		}
		if p.DNSTCP == DNSTCPAnswer || p.DNSTCP == DNSTCPAnswerViaUDP {
			dnsTCPAnswerers++
		}
	}
	if ipOnly != 20 {
		t.Errorf("IP-only translators = %d, want 20 (§4.3)", ipOnly)
	}
	if untouched != 4 {
		t.Errorf("pass-untouched = %d, want 4 (dl4, dl9, dl10, ls1)", untouched)
	}
	if sctpCapable != 18 {
		t.Errorf("SCTP-capable = %d, want 18", sctpCapable)
	}
	if preserve != 27 {
		t.Errorf("port preservers = %d, want 27 (§4.1)", preserve)
	}
	if reuse != 23 {
		t.Errorf("binding reusers = %d, want 23", reuse)
	}
	if dnsTCPListeners != 14 {
		t.Errorf("TCP/53 listeners = %d, want 14 (§4.3)", dnsTCPListeners)
	}
	if dnsTCPAnswerers != 10 {
		t.Errorf("TCP/53 answerers = %d, want 10", dnsTCPAnswerers)
	}
}

func TestICMPInnerTranslationCounts(t *testing.T) {
	// "About half of the devices (16 of 34) do not correctly translate
	// transport headers contained in ICMP payloads."
	unfixed := 0
	badSum := 0
	for _, p := range Profiles() {
		hasUnfixed := false
		hasBad := false
		for k := netpkt.ICMPKind(0); k < netpkt.NumICMPKinds; k++ {
			if p.NAT.ICMPTCP[k] == nat.ICMPNoInnerFix || p.NAT.ICMPUDP[k] == nat.ICMPNoInnerFix {
				hasUnfixed = true
			}
			if p.NAT.ICMPTCP[k] == nat.ICMPBadInnerIPChecksum || p.NAT.ICMPUDP[k] == nat.ICMPBadInnerIPChecksum {
				hasBad = true
			}
		}
		if hasUnfixed {
			unfixed++
		}
		if hasBad {
			badSum++
		}
	}
	if unfixed != 16 {
		t.Errorf("inner-unfixed devices = %d, want 16", unfixed)
	}
	if badSum != 2 {
		t.Errorf("bad-checksum devices = %d, want 2 (zy1, ls1)", badSum)
	}
}

func TestUDPTimeoutOrderingMatchesFigures(t *testing.T) {
	// Figure 3 anchors: five devices share the 30 s minimum; ls1 max.
	min30 := 0
	var maxTag string
	var maxV time.Duration
	for _, p := range Profiles() {
		if p.NAT.UDP.Outbound == 30*time.Second {
			min30++
		}
		if p.NAT.UDP.Outbound > maxV {
			maxV = p.NAT.UDP.Outbound
			maxTag = p.Tag
		}
	}
	if min30 != 5 {
		t.Errorf("devices at 30s = %d, want 5 (je, ed, owrt, te, to)", min30)
	}
	if maxTag != "ls1" {
		t.Errorf("max UDP-1 device = %s, want ls1", maxTag)
	}
	// UDP-3 never shortens a device's timeout relative to UDP-2 (§4.1).
	for _, p := range Profiles() {
		if p.NAT.UDP.Bidir < p.NAT.UDP.Inbound {
			t.Errorf("%s: UDP-3 %v < UDP-2 %v", p.Tag, p.NAT.UDP.Bidir, p.NAT.UDP.Inbound)
		}
	}
}

func TestBufferSizesDerived(t *testing.T) {
	for _, p := range Profiles() {
		if p.BufBytes < 8*1024 || p.BufBytes > 160*1024 {
			t.Errorf("%s BufBytes = %d out of range", p.Tag, p.BufBytes)
		}
	}
	// ls1's bufferbloat must dominate ng1's.
	ls1, _ := ByTag("ls1")
	ng1, _ := ByTag("ng1")
	if ls1.BufBytes <= ng1.BufBytes {
		t.Errorf("ls1 buffer (%d) should exceed ng1's (%d)", ls1.BufBytes, ng1.BufBytes)
	}
}

func TestQuirkFlags(t *testing.T) {
	for _, tag := range []string{"dl10", "ls1"} {
		p, _ := ByTag(tag)
		if !p.SameMACBothPorts {
			t.Errorf("%s should share one MAC across ports", tag)
		}
	}
	noTTL := 0
	for _, p := range Profiles() {
		if !p.NAT.DecrementTTL {
			noTTL++
		}
	}
	if noTTL == 0 {
		t.Error("no devices skip TTL decrement; §4.4 says some do")
	}
	dl8, _ := ByTag("dl8")
	if dl8.NAT.UDPServices[53].Outbound == 0 {
		t.Error("dl8 must override the DNS-port timeout (Figure 6)")
	}
}
