package udp

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// oneShotScript drives host a of a fresh pair through one-shot sends
// (by SendOnce, or by Dial → SendTo → Close when dial is set) and what
// may follow them, and returns everything observable: every frame on
// a's interface in order, the datagrams b's socket received, a's port
// tables and its next ephemeral port.
func oneShotScript(t *testing.T, dial bool) []string {
	t.Helper()
	s := sim.New(1)
	ha, _, ua, ub := pair(s)
	var log []string
	r, _ := ha.Lookup(netpkt.Addr4(10, 0, 0, 2))
	r.If.Link.Tap = func(dir string, f *netpkt.Frame) {
		log = append(log, fmt.Sprintf("%s %v>%v %04x %x", dir, f.Src, f.Dst, f.Type, f.Payload))
	}
	a, b := netpkt.Addr4(10, 0, 0, 1), netpkt.Addr4(10, 0, 0, 2)
	srv, err := ub.Bind(b, 7000)
	if err != nil {
		t.Fatal(err)
	}
	// A socket on the first ephemeral port: both ways must skip it.
	held, err := ua.Bind(netip.Addr{}, 32768)
	if err != nil {
		t.Fatal(err)
	}
	send := func(dport uint16, data string) {
		if !dial {
			if err := ua.SendOnce(b, dport, []byte(data)); err != nil {
				t.Fatal(err)
			}
			return
		}
		c, err := ua.Dial(b, dport)
		if err != nil {
			t.Fatal(err)
		}
		c.SendTo(b, dport, []byte(data))
		c.Close()
	}
	send(7000, "one")
	send(7000, "two")
	// Nothing listens on 7001: b answers Port Unreachable about a
	// datagram from a port that a has released by then.
	send(7001, "three")
	s.Run(0)
	for {
		d, ok := srv.TryRecv()
		if !ok {
			break
		}
		log = append(log, fmt.Sprintf("got %v:%d %q", d.From, d.FromPort, d.Data))
	}
	// A late datagram to the port "two" went from.
	srv.SendTo(a, 32770, []byte("late"))
	s.Run(0)
	log = append(log, fmt.Sprintf("port tables %d", len(ua.conns)))
	next, err := ua.Dial(b, 7000)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("next port %d", next.LocalPort()))
	next.Close()
	held.Close()
	return log
}

// TestSendOnceMatchesDialSendClose: SendOnce is Dial → SendTo → Close
// for a datagram that needs no reply. Both emit byte-identical frames,
// take the same ephemeral ports, and leave the port free: a later
// datagram to it draws Port Unreachable and no socket holds it.
func TestSendOnceMatchesDialSendClose(t *testing.T) {
	once, dialed := oneShotScript(t, false), oneShotScript(t, true)
	if !slices.Equal(once, dialed) {
		t.Fatalf("SendOnce and Dial/SendTo/Close differ\n--- SendOnce ---\n%v\n--- Dial ---\n%v", once, dialed)
	}
	want := []string{
		`got 10.0.0.1:32769 "one"`,
		`got 10.0.0.1:32770 "two"`,
		"port tables 1", // the held socket's
		"next port 32772",
	}
	for _, w := range want {
		if !slices.Contains(once, w) {
			t.Errorf("missing %q in\n%v", w, once)
		}
	}
	// Port Unreachable: once from b about "three", once from a about "late".
	if n := portUnreachables(once); n != 2 {
		t.Errorf("%d ICMP Port Unreachable frames on a's link, want 2 (rx for 7001, tx for the late datagram)", n)
	}
}

// portUnreachables counts the logged IPv4 frames that carry ICMP Port
// Unreachable.
func portUnreachables(log []string) int {
	n := 0
	for _, l := range log {
		var dir, addrs string
		var typ uint16
		var p []byte
		if _, err := fmt.Sscanf(l, "%s %s %04x %x", &dir, &addrs, &typ, &p); err != nil || typ != 0x0800 || len(p) < 20 {
			continue
		}
		ihl := int(p[0]&0x0f) * 4
		if p[9] == netpkt.ProtoICMP && len(p) > ihl+1 &&
			p[ihl] == netpkt.ICMPDestUnreachable && p[ihl+1] == netpkt.ICMPCodePortUnreachable {
			n++
		}
	}
	return n
}
