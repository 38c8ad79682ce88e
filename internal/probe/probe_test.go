package probe

import (
	"math"
	"testing"
	"time"

	"hgw/internal/gateway"
	"hgw/internal/netpkt"
	"hgw/internal/stats"
	"hgw/internal/testbed"
)

var quick = Options{Iterations: 3}

func medianOf(r DeviceResult) float64 { return stats.Median(r.Samples) }

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.2f, want %.2f ± %.1f", name, got, want, tol)
	}
}

func TestBinarySearchConvergence(t *testing.T) {
	// Pure function check: alive(t) = t < 137s must converge to 137.
	calls := 0
	timeout, capped := binarySearch(func(d time.Duration) bool {
		calls++
		return d < 137*time.Second
	}, 15*time.Second, 20*time.Minute, time.Second)
	if capped {
		t.Fatal("capped")
	}
	if timeout < 136*time.Second || timeout > 138*time.Second {
		t.Fatalf("converged to %v, want ~137s", timeout)
	}
	if calls > 24 {
		t.Fatalf("%d probes, want <= 24", calls)
	}
}

func TestBinarySearchCap(t *testing.T) {
	timeout, capped := binarySearch(func(d time.Duration) bool { return true },
		15*time.Second, time.Minute, time.Second)
	if !capped || timeout != time.Minute {
		t.Fatalf("got %v capped=%v", timeout, capped)
	}
}

func TestUDP1RecoversProfileTimeouts(t *testing.T) {
	// je: 30 s; be2: 490 s; ls1: 691 s (the paper's extremes).
	tb, s := testbed.Run(testbed.Config{Tags: []string{"je", "be2", "ls1"}})
	res := UDPTimeouts(tb, s, UDPSolitary, 0, quick)
	byTag := map[string]float64{}
	for _, r := range res {
		byTag[r.Tag] = medianOf(r)
	}
	within(t, "je UDP-1", byTag["je"], 30, 2)
	within(t, "be2 UDP-1", byTag["be2"], 490, 3)
	within(t, "ls1 UDP-1", byTag["ls1"], 691, 3)
}

func TestUDP2InboundRefresh(t *testing.T) {
	// be2 shortens from 490 (UDP-1) to ~202 with inbound traffic; ed
	// lengthens from 30 to 180 — the paper's headline UDP-2 effects.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"be2", "ed"}})
	res := UDPTimeouts(tb, s, UDPInbound, 0, quick)
	byTag := map[string]float64{}
	for _, r := range res {
		byTag[r.Tag] = medianOf(r)
	}
	within(t, "be2 UDP-2", byTag["be2"], 202, 4)
	within(t, "ed UDP-2", byTag["ed"], 180, 4)
}

func TestUDP3Bidirectional(t *testing.T) {
	// be2 and ng5 return to their long timeouts under bidirectional
	// traffic (§4.1: "reaching the same level as in the UDP-1 test").
	tb, s := testbed.Run(testbed.Config{Tags: []string{"be2", "ng5"}})
	res := UDPTimeouts(tb, s, UDPEcho, 0, quick)
	byTag := map[string]float64{}
	for _, r := range res {
		byTag[r.Tag] = medianOf(r)
	}
	within(t, "be2 UDP-3", byTag["be2"], 490, 4)
	within(t, "ng5 UDP-3", byTag["ng5"], 600, 25) // coarse 20 s timer
}

func TestUDP2CoarseTimerSpread(t *testing.T) {
	// we has a 45 s refresh-timer granularity: its UDP-2 quartiles must
	// be visibly wide while dl2's (exact timers) are tight.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"we", "dl2"}})
	res := UDPTimeouts(tb, s, UDPInbound, 0, Options{Iterations: 8})
	var we, dl2 stats.Summary
	for _, r := range res {
		if r.Tag == "we" {
			we = r.Summary()
		} else {
			dl2 = r.Summary()
		}
	}
	if we.IQR() < 3 {
		t.Errorf("we IQR = %.1f, want wide (coarse timers)", we.IQR())
	}
	if dl2.IQR() > 3 {
		t.Errorf("dl2 IQR = %.1f, want tight", dl2.IQR())
	}
}

func TestUDP5ServiceOverride(t *testing.T) {
	// dl8 uses a shorter timeout for the DNS port (Figure 6's notable
	// exception); its NTP timeout matches the default.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"dl8"}})
	dns := UDPTimeouts(tb, s, UDPInbound, 53, quick)
	ntp := UDPTimeouts(tb, s, UDPInbound, 123, quick)
	within(t, "dl8 dns", medianOf(dns[0]), 40, 3)
	within(t, "dl8 ntp", medianOf(ntp[0]), 250, 4)
}

func TestPortReuseClasses(t *testing.T) {
	// dl2: preserve+reuse; be1: preserve+new binding; smc: no preservation.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"dl2", "be1", "smc"}})
	res := PortReuse(tb, s, Options{Iterations: 1})
	byTag := map[string]PortReuseResult{}
	for _, r := range res {
		byTag[r.Tag] = r
	}
	if c := byTag["dl2"].Class; c != PreserveAndReuse {
		t.Errorf("dl2 class = %v", c)
	}
	if c := byTag["be1"].Class; c != PreserveNewBinding {
		t.Errorf("be1 class = %v (ports %v src %d)", c, byTag["be1"].ObservedPorts, byTag["be1"].SourcePort)
	}
	if c := byTag["smc"].Class; c != NoPreservation {
		t.Errorf("smc class = %v", c)
	}
}

func TestTCP1Timeouts(t *testing.T) {
	// be1: 239 s ≈ 3.98 min (the paper's shortest); te: > 24 h cut-off.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"be1", "te"}})
	res := TCPTimeouts(tb, s, Options{Iterations: 2})
	byTag := map[string]float64{}
	for _, r := range res {
		byTag[r.Tag] = medianOf(r)
	}
	within(t, "be1 TCP-1 (min)", byTag["be1"], 3.98, 0.3)
	if byTag["te"] < 1439 {
		t.Errorf("te TCP-1 = %.1f min, want 24 h cut-off", byTag["te"])
	}
}

func TestMaxBindings(t *testing.T) {
	// dl9 and smc allow only 16 bindings; dl4 48.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"dl9", "dl4"}})
	res := MaxBindings(tb, s, quick)
	byTag := map[string]float64{}
	for _, r := range res {
		byTag[r.Tag] = r.Samples[0]
	}
	if byTag["dl9"] != 16 {
		t.Errorf("dl9 max bindings = %.0f, want 16", byTag["dl9"])
	}
	if byTag["dl4"] != 48 {
		t.Errorf("dl4 max bindings = %.0f, want 48", byTag["dl4"])
	}
}

func TestThroughputShapes(t *testing.T) {
	// dl10 is rate-limited to ~6 Mb/s; bu1 runs at wire speed.
	opts := Options{TransferBytes: 3 << 20}
	dl10 := MeasureThroughput("dl10", opts, 7)
	if dl10.DownMbps > 7 || dl10.DownMbps < 4 {
		t.Errorf("dl10 down = %.1f Mb/s, want ~6", dl10.DownMbps)
	}
	bu1 := MeasureThroughput("bu1", opts, 7)
	if bu1.DownMbps < 80 {
		t.Errorf("bu1 down = %.1f Mb/s, want wire speed", bu1.DownMbps)
	}
	// Queuing delay: dl10's bufferbloat must dwarf bu1's.
	if dl10.DelayDownMs < 3*bu1.DelayDownMs {
		t.Errorf("dl10 delay %.1f ms vs bu1 %.1f ms: wrong shape", dl10.DelayDownMs, bu1.DelayDownMs)
	}
	// Bidirectional contention on a mid-range device (ls2 factor 0.55).
	ls2 := MeasureThroughput("ls2", opts, 7)
	if ls2.BiDownMbps > 0.85*ls2.DownMbps {
		t.Errorf("ls2 bidir down %.1f vs solo %.1f: no contention", ls2.BiDownMbps, ls2.DownMbps)
	}
}

func TestICMPMatrixSpots(t *testing.T) {
	tb, s := testbed.Run(testbed.Config{Tags: []string{"owrt", "nw1", "ls2", "zy1", "be1"}})
	res := ICMPMatrixProbe(tb, s, Options{})
	byTag := map[string]ICMPMatrix{}
	for _, m := range res {
		byTag[m.Tag] = m
	}
	// owrt translates everything correctly.
	for k := netpkt.ICMPKind(0); k < netpkt.NumICMPKinds; k++ {
		if v := byTag["owrt"].UDP[k]; v != VerdictCorrect {
			t.Errorf("owrt UDP %v = %v", k, v)
		}
		if v := byTag["owrt"].TCP[k]; v != VerdictCorrect {
			t.Errorf("owrt TCP %v = %v", k, v)
		}
	}
	// nw1 translates nothing.
	for k := netpkt.ICMPKind(0); k < netpkt.NumICMPKinds; k++ {
		if byTag["nw1"].UDP[k].Forwarded() || byTag["nw1"].TCP[k].Forwarded() {
			t.Errorf("nw1 forwarded %v", k)
		}
	}
	// ls2 turns TCP errors into RSTs.
	if v := byTag["ls2"].TCP[netpkt.KindHostUnreachable]; v != VerdictRST {
		t.Errorf("ls2 TCP host-unreach = %v, want rst", v)
	}
	// zy1 breaks embedded IP checksums but still forwards.
	if v := byTag["zy1"].UDP[netpkt.KindPortUnreachable]; v != VerdictInnerBadChecksum {
		t.Errorf("zy1 UDP port-unreach = %v, want inner-bad-csum", v)
	}
	// be1 forwards TTL-exceeded (inner unfixed) but drops Source Quench.
	if v := byTag["be1"].UDP[netpkt.KindTTLExceeded]; v != VerdictInnerUnfixed {
		t.Errorf("be1 UDP ttl-exceeded = %v, want inner-unfixed", v)
	}
	if v := byTag["be1"].UDP[netpkt.KindSourceQuench]; v.Forwarded() {
		t.Errorf("be1 UDP source-quench forwarded (%v)", v)
	}
}

func TestSCTPDCCPAndDNS(t *testing.T) {
	tb, s := testbed.Run(testbed.Config{Tags: []string{"owrt", "ng1", "dl9", "smc", "ap", "te"}})
	sctp := SCTPConnect(tb, s, Options{})
	dccp := DCCPConnect(tb, s, Options{})
	dns := DNSProxy(tb, s, Options{})
	sctpByTag := map[string]bool{}
	for _, r := range sctp {
		sctpByTag[r.Tag] = r.OK
	}
	// owrt: IP-only translation -> SCTP works. ng1: IP-only but drops
	// replies -> fails. dl9: passes untouched -> fails. smc: drops.
	if !sctpByTag["owrt"] {
		t.Error("owrt SCTP failed, want pass (IP-only translation)")
	}
	for _, tag := range []string{"ng1", "dl9", "smc"} {
		if sctpByTag[tag] {
			t.Errorf("%s SCTP passed, want fail", tag)
		}
	}
	// DCCP works through no device (pseudo-header checksum).
	for _, r := range dccp {
		if r.OK {
			t.Errorf("%s DCCP passed, want universal failure", r.Tag)
		}
	}
	dnsByTag := map[string]DNSResult{}
	for _, r := range dns {
		dnsByTag[r.Tag] = r
	}
	// Everyone proxies UDP; ap answers TCP but forwards via UDP; te
	// accepts TCP but never answers; dl9 refuses TCP.
	for _, tag := range []string{"owrt", "ap", "te", "dl9"} {
		if !dnsByTag[tag].UDPAnswers {
			t.Errorf("%s DNS/UDP failed", tag)
		}
	}
	if r := dnsByTag["ap"]; !r.TCPAccepts || !r.TCPAnswers || !r.TCPViaUDP {
		t.Errorf("ap DNS = %+v, want accept+answer via UDP", r)
	}
	if r := dnsByTag["owrt"]; !r.TCPAnswers || r.TCPViaUDP {
		t.Errorf("owrt DNS = %+v, want answer via TCP", r)
	}
	if r := dnsByTag["te"]; !r.TCPAccepts || r.TCPAnswers {
		t.Errorf("te DNS = %+v, want accept-only", r)
	}
	if r := dnsByTag["dl9"]; r.TCPAccepts {
		t.Errorf("dl9 DNS = %+v, want refuse", r)
	}
}

func TestIPQuirks(t *testing.T) {
	tb, s := testbed.Run(testbed.Config{Tags: []string{"owrt", "smc", "dl10", "dl2"}})
	res := IPQuirks(tb, s, Options{})
	byTag := map[string]QuirkResult{}
	for _, r := range res {
		byTag[r.Tag] = r
	}
	if !byTag["owrt"].DecrementsTTL || !byTag["owrt"].RecordsRoute || !byTag["owrt"].Hairpins {
		t.Errorf("owrt quirks = %+v", byTag["owrt"])
	}
	if byTag["smc"].DecrementsTTL {
		t.Errorf("smc decrements TTL, profile says it does not")
	}
	if !byTag["dl10"].SameMAC {
		t.Errorf("dl10 should share one MAC across ports")
	}
	if byTag["dl2"].SameMAC || byTag["dl2"].RecordsRoute || byTag["dl2"].Hairpins {
		t.Errorf("dl2 quirks = %+v", byTag["dl2"])
	}
}

func TestProfilesComplete(t *testing.T) {
	tags := gateway.Tags()
	if len(tags) != 34 {
		t.Fatalf("profiles = %d, want 34 (the paper's Table 1)", len(tags))
	}
}

func TestBindRateTracksForwardingPlane(t *testing.T) {
	tb, s := testbed.Run(testbed.Config{Tags: []string{"dl10", "ng1"}})
	res := BindRate(tb, s, 500*time.Millisecond, Options{})
	byTag := map[string]float64{}
	for _, r := range res {
		byTag[r.Tag] = r.Samples[0]
	}
	if byTag["dl10"] <= 0 || byTag["ng1"] <= 0 {
		t.Fatalf("rates: %v", byTag)
	}
	// dl10's 6 Mb/s forwarding plane must cap well below wire speed.
	if byTag["dl10"] > 0.8*byTag["ng1"] {
		t.Errorf("dl10 rate %.0f vs ng1 %.0f: forwarding plane not limiting", byTag["dl10"], byTag["ng1"])
	}
}

func TestKeepaliveSurvival(t *testing.T) {
	// we times TCP bindings out after 12 min: 2 h keepalives cannot hold
	// it. te keeps bindings > 24 h: it survives regardless. owrt (15 h
	// timeout) survives because each 2 h keepalive refreshes the binding.
	tb, s := testbed.Run(testbed.Config{Tags: []string{"we", "te", "owrt"}})
	res := KeepaliveSurvival(tb, s, 2*time.Hour, 6*time.Hour, Options{})
	byTag := map[string]bool{}
	for _, r := range res {
		byTag[r.Tag] = r.Survived
	}
	if byTag["we"] {
		t.Error("we survived 6 h idle with 2 h keepalives despite a 12 min timeout")
	}
	if !byTag["te"] {
		t.Error("te should survive (no timeout)")
	}
	if !byTag["owrt"] {
		t.Error("owrt should survive (15 h timeout, 2 h keepalives)")
	}
}

func TestHolePunch(t *testing.T) {
	punch := func(tagA, tagB string) HolePunchResult {
		tb, s := testbed.Run(testbed.Config{Tags: []string{tagA, tagB}, Seed: 3})
		defer s.Shutdown()
		r := HolePunch(tb, s)
		if r.TagA != tagA || r.TagB != tagB {
			t.Errorf("punch %s<->%s reports tags %s, %s", tagA, tagB, r.TagA, r.TagB)
		}
		return r
	}
	// Two port-preserving NATs: the punch succeeds.
	r := punch("owrt", "bu1")
	if !r.Success {
		t.Errorf("punch owrt<->bu1 failed (extA=%v extB=%v)", r.ExtA, r.ExtB)
	}
	// A non-preserving NAT (smc) allocates a fresh external port for the
	// peer flow, so the predicted endpoint is wrong and the punch fails.
	r2 := punch("owrt", "smc")
	if r2.Success {
		t.Error("punch through non-preserving smc unexpectedly succeeded")
	}
}
