package gateway

import (
	"net/netip"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
)

// received builds a packet the way the host stack hands one to the
// device: a pooled record parsed from a pooled frame buffer it owns,
// both drawn from the device's domain pool.
func received(t *testing.T, d *Device, src, dst netip.Addr, ttl uint8, payload []byte) *netpkt.IPv4 {
	t.Helper()
	pool := d.S.Pool()
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoUDP, Src: src, Dst: dst, TTL: ttl, Payload: payload}
	buf := ip.AppendMarshal(pool.GetBuf(ip.TotalLen()))
	rec, err := pool.ParsePooled(buf)
	if err != nil {
		t.Fatal(err)
	}
	rec.Buf = buf
	//hgwlint:allow poollint the test hands the packet to the device as the host stack would
	return rec
}

// udpTo is a UDP datagram sport -> dport between src and dst.
func udpTo(src, dst netip.Addr, sport, dport uint16) []byte {
	u := netpkt.UDP{SrcPort: sport, DstPort: dport, Payload: []byte("drop-me")}
	return u.AppendMarshal(nil, src, dst)
}

// TestDropPointsRecyclePackets hands the device a received packet at
// each point where it drops one after the host gave it over, and checks
// that the packet's record comes back zeroed from the pool and its
// frame buffer goes back to the pool (one put).
func TestDropPointsRecyclePackets(t *testing.T) {
	client, server := netpkt.Addr4(192, 168, 1, 100), netpkt.Addr4(10, 0, 1, 1)
	var hairpinOff Profile
	for _, p := range Profiles() {
		if !p.NAT.Hairpinning && p.NAT.DecrementTTL {
			hairpinOff = p
			break
		}
	}
	if hairpinOff.Tag == "" {
		t.Fatal("no profile without hairpinning that decrements TTL")
	}
	for _, tc := range []struct {
		name string
		drop func(t *testing.T, d *Device) *netpkt.IPv4
	}{
		{"forwarding queue tail drop", func(t *testing.T, d *Device) *netpkt.IPv4 {
			ip := received(t, d, client, server, 64, udpTo(client, server, 4000, 9000))
			d.up.busy, d.up.queued = true, 1<<30 // a full queue
			d.up.enqueue(ip)
			return ip
		}},
		{"outbound translation refused", func(t *testing.T, d *Device) *netpkt.IPv4 {
			ip := received(t, d, client, server, 64, []byte{0, 1}) // too short for UDP
			d.finishForward(d.up, ip)
			return ip
		}},
		{"TTL expiry while forwarding", func(t *testing.T, d *Device) *netpkt.IPv4 {
			ip := received(t, d, client, server, 1, udpTo(client, server, 4000, 9000))
			d.forward(d.LANIf, ip)
			return ip
		}},
		{"TTL swallow at WAN arrival", func(t *testing.T, d *Device) *netpkt.IPv4 {
			out := received(t, d, client, server, 64, udpTo(client, server, 4000, 9000))
			if !d.Engine.Outbound(out) {
				t.Fatal("outbound translation failed")
			}
			// The translated datagram carries the binding's external port.
			ext, _, ok := netpkt.UDPPorts(out.Payload)
			if !ok {
				t.Fatal("translated datagram too short")
			}
			ip := received(t, d, server, d.WANAddr(), 1, udpTo(server, d.WANAddr(), 9000, ext))
			if !d.rawWAN(d.WANIf, ip) {
				t.Fatal("rawWAN did not consume the packet")
			}
			return ip
		}},
		{"hairpin disabled", func(t *testing.T, d *Device) *netpkt.IPv4 {
			ip := received(t, d, client, d.WANAddr(), 64, udpTo(client, d.WANAddr(), 4000, 9000))
			if !d.rawWAN(d.LANIf, ip) {
				t.Fatal("rawWAN did not consume the packet")
			}
			return ip
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := buildRig(t, hairpinOff)
			pool := r.s.Pool()
			pool.Flush()
			before := obs.Proc.Snapshot()
			ip := tc.drop(t, r.dev)
			pool.Flush()
			after := obs.Proc.Snapshot()
			if ip.Buf != nil || ip.Payload != nil || ip.Src.IsValid() || ip.Protocol != 0 {
				t.Fatal("dropped packet's record not recycled")
			}
			if puts := after.PoolPuts - before.PoolPuts; puts != 1 {
				t.Fatalf("pool puts = %d, want 1 (the dropped packet's buffer)", puts)
			}
		})
	}
}
