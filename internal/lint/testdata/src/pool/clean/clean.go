// Package clean holds poollint-legal idioms: Clone before retention,
// PutBuf after the last aliased use, pooled values drawn and recycled
// inside the same closure, recycling a received packet's record and
// then its buffer on paths where its views are dead, and handing a
// pooled record to the host as the last use.
package clean

import (
	"netpkt"
	"stack"
)

type Queue struct {
	pending []byte
}

func (q *Queue) StashCopy() {
	b := netpkt.GetBuf(64)
	q.pending = netpkt.Clone(b)
	netpkt.PutBuf(b)
}

func Roundtrip() int {
	b := netpkt.GetBuf(64)
	u, _ := netpkt.ParseUDP(b)
	n := len(u.Raw)
	netpkt.PutBuf(b)
	return n
}

func SameClosure(run func(func())) {
	run(func() {
		f := netpkt.GetFrame()
		f.Payload = append(f.Payload, 1)
		netpkt.PutFrame(f)
	})
}

func Handoff(send func(*netpkt.Frame)) {
	f := netpkt.GetFrame()
	send(f) // passing as a call argument is the sanctioned transfer
}

func Deliver(f *netpkt.Frame, handle func(*netpkt.IPv4) bool, forward func(*netpkt.IPv4)) {
	ip, err := netpkt.ParseIPv4(f.Payload)
	if err != nil {
		netpkt.PutBuf(f.Payload)
		return
	}
	if len(ip.Payload) > 0 {
		if !handle(ip) {
			netpkt.PutBuf(f.Payload)
		}
		return
	}
	forward(ip)
}

func Emit(ip *netpkt.IPv4, send func([]byte)) {
	send(netpkt.Clone(ip.Payload))
	netpkt.PutBuf(ip.Buf)
	ip.Buf = nil
}

func DeliverPooled(f *netpkt.Frame, handle func(*netpkt.IPv4) bool) {
	ip, err := netpkt.ParsePooled(f.Payload)
	if err != nil {
		netpkt.PutBuf(f.Payload)
		return
	}
	if !handle(ip) {
		netpkt.PutPacket(ip)
		netpkt.PutBuf(f.Payload)
	}
}

func EmitPooled(ip *netpkt.IPv4, send func([]byte)) {
	send(netpkt.Clone(ip.Payload))
	buf := ip.Buf
	ip.Buf = nil
	netpkt.PutPacket(ip)
	netpkt.PutBuf(buf)
}

func SendPooled(h *stack.Host, ttl uint8) bool {
	ip := netpkt.GetPacket()
	ip.TTL = ttl
	return h.Send(ip)
}

func Forward(h *stack.Host, ifc *stack.NetIf, ip *netpkt.IPv4) {
	ip.TTL--
	h.SendVia(ifc, ip)
}
