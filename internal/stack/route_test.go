package stack

import (
	"fmt"
	"net/netip"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// linearLookup is the reference routing decision: a scan over every
// route in insertion order, keeping the longest matching prefix and,
// among equal lengths, the latest added. Host.Lookup must agree with
// it on every table and destination.
func linearLookup(routes []Route, dst netip.Addr) (Route, bool) {
	best := -1
	var found Route
	for _, r := range routes {
		if r.Prefix.Contains(dst) && r.Prefix.Bits() >= best {
			best = r.Prefix.Bits()
			found = r
		}
	}
	return found, best >= 0
}

// FuzzLookup replays a byte string as a sequence of AddRoute,
// removeRoutesVia and Lookup operations against both Host.Lookup and
// linearLookup. Each operation takes four bytes [op x y z]:
//
//   - op%4 in {0,1}: AddRoute(10.0.(x&3).y/(z%33)) via interface
//     (op>>2)&3 — unmasked as given, so host bits survive in the
//     stored prefix — with a next hop numbering the route, so equal
//     prefixes stay distinguishable;
//   - op%4 == 2: removeRoutesVia(interface (op>>2)&3);
//   - op%4 == 3: no change.
//
// After every operation both lookups are compared for the destination
// (10+((op>>4)&1)).0.(x&3).y; 11.x destinations match only routes of
// length 0 to 7, so most of them test the no-route answer.
func FuzzLookup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHost(sim.New(1), "fuzz")
		var ifs [4]*NetIf
		for i := range ifs {
			ifs[i] = h.AddIf(fmt.Sprintf("if%d", i), netip.Addr{}, 0)
		}
		var ref []Route
		for n := 0; len(data) >= 4; n++ {
			op, x, y, z := data[0], data[1], data[2], data[3]
			data = data[4:]
			ifc := ifs[(op>>2)&3]
			switch op % 4 {
			case 0, 1:
				p := netip.PrefixFrom(netpkt.Addr4(10, 0, x&3, y), int(z%33))
				nh := netpkt.Addr4(192, 168, byte(n>>8), byte(n))
				h.AddRoute(p, nh, ifc)
				ref = append(ref, Route{Prefix: p, NextHop: nh, If: ifc})
			case 2:
				removeRoutesVia(h, ifc)
				out := ref[:0]
				for _, r := range ref {
					if r.If != ifc {
						out = append(out, r)
					}
				}
				ref = out
			}
			dst := netpkt.Addr4(10+(op>>4)&1, 0, x&3, y)
			got, gok := h.Lookup(dst)
			want, wok := linearLookup(ref, dst)
			if got != want || gok != wok {
				t.Fatalf("op %d: Lookup(%v) = %v %v, linear scan %v %v", n, dst, got, gok, want, wok)
			}
		}
	})
}

// clientTable returns a host holding n routes (n even) laid out like a
// testbed client's, in bring-up order: per device a connected LAN /24
// and the device's server subnet /24 via its gateway. It also returns
// each device's server address.
func clientTable(n int) (*Host, []netip.Addr) {
	h := NewHost(sim.New(1), "client")
	ifc := h.AddIf("vlan", netip.Addr{}, 0)
	var dsts []netip.Addr
	for i := 1; len(h.routes) < n; i++ {
		hi, lo := byte(i>>8), byte(i)
		h.AddRoute(netip.PrefixFrom(netpkt.Addr4(172, 16+hi, lo, 0), 24), netip.Addr{}, ifc)
		h.AddRoute(netip.PrefixFrom(netpkt.Addr4(10, hi, lo, 0), 24), netpkt.Addr4(172, 16+hi, lo, 1), ifc)
		dsts = append(dsts, netpkt.Addr4(10, hi, lo, 1))
	}
	return h, dsts
}

// TestAllocsLookup pins Lookup at zero allocations: it runs twice per
// UDP datagram, so any allocation multiplies into every packet.
func TestAllocsLookup(t *testing.T) {
	h, dsts := clientTable(512)
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range dsts {
			h.Lookup(d)
		}
	}); n != 0 {
		t.Fatalf("Lookup allocates %.1f objects per %d lookups, want 0", n, len(dsts))
	}
}

// BenchmarkHostLookup times one route lookup against tables of growing
// size. The cost should stay roughly flat: it grows with the number of
// distinct prefix lengths, and only logarithmically with routes.
func BenchmarkHostLookup(b *testing.B) {
	for _, n := range []int{4, 64, 512, 8192} {
		b.Run(fmt.Sprintf("routes=%d", n), func(b *testing.B) {
			h, dsts := clientTable(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := h.Lookup(dsts[i%len(dsts)]); !ok {
					b.Fatal("no route")
				}
			}
		})
	}
}

// removeRoutesVia removes every route through ifc, keeping the order of
// the rest.
func removeRoutesVia(h *Host, ifc *NetIf) {
	out := h.routes[:0]
	for _, r := range h.routes {
		if r.If != ifc {
			out = append(out, r)
		}
	}
	h.routes = out
}
