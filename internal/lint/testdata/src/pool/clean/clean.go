// Package clean holds poollint-legal idioms: Clone before retention,
// PutBuf after the last aliased use, pooled values drawn and recycled
// inside the same closure, and recycling a received packet's buffer on
// paths where its views are dead.
package clean

import "netpkt"

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
