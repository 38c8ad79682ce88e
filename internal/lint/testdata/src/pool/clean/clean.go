// Package clean holds poollint-legal idioms: Clone before retention,
// PutBuf after the last aliased use, pooled values drawn and recycled
// inside the same closure, recycling a received packet's record and
// then its buffer on paths where its views are dead, handing a pooled
// record to the host as the last use, and values of a non-pool type
// whose methods merely share the pool's names.
package clean

import (
	"netpkt"
	"stack"
)

type Queue struct {
	pending []byte
}

func (q *Queue) StashCopy(p *netpkt.Pool) {
	b := p.GetBuf(64)
	q.pending = netpkt.Clone(b)
	p.PutBuf(b)
}

func Roundtrip(p *netpkt.Pool) int {
	b := p.GetBuf(64)
	u, _ := netpkt.ParseUDP(b)
	n := len(u.Raw)
	p.PutBuf(b)
	return n
}

func SameClosure(p *netpkt.Pool, run func(func())) {
	run(func() {
		f := p.GetFrame()
		f.Payload = append(f.Payload, 1)
		p.PutFrame(f)
	})
}

func Handoff(p *netpkt.Pool, send func(*netpkt.Frame)) {
	f := p.GetFrame()
	send(f) // passing as a call argument is the sanctioned transfer
}

func Deliver(p *netpkt.Pool, f *netpkt.Frame, handle func(*netpkt.IPv4) bool, forward func(*netpkt.IPv4)) {
	ip, err := netpkt.ParseIPv4(f.Payload)
	if err != nil {
		p.PutBuf(f.Payload)
		return
	}
	if len(ip.Payload) > 0 {
		if !handle(ip) {
			p.PutBuf(f.Payload)
		}
		return
	}
	forward(ip)
}

func Emit(p *netpkt.Pool, ip *netpkt.IPv4, send func([]byte)) {
	send(netpkt.Clone(ip.Payload))
	p.PutBuf(ip.Buf)
	ip.Buf = nil
}

func DeliverPooled(p *netpkt.Pool, f *netpkt.Frame, handle func(*netpkt.IPv4) bool) {
	ip, err := p.ParsePooled(f.Payload)
	if err != nil {
		p.PutBuf(f.Payload)
		return
	}
	if !handle(ip) {
		p.PutPacket(ip)
		p.PutBuf(f.Payload)
	}
}

func EmitPooled(p *netpkt.Pool, ip *netpkt.IPv4, send func([]byte)) {
	send(netpkt.Clone(ip.Payload))
	buf := ip.Buf
	ip.Buf = nil
	p.PutPacket(ip)
	p.PutBuf(buf)
}

func SendPooled(p *netpkt.Pool, h *stack.Host, ttl uint8) bool {
	ip := p.GetPacket()
	ip.TTL = ttl
	return h.Send(ip)
}

func Forward(h *stack.Host, ifc *stack.NetIf, ip *netpkt.IPv4) {
	ip.TTL--
	h.SendVia(ifc, ip)
}

func NotPooled(s *netpkt.Scratch, q *Queue) []byte {
	b := s.GetBuf(64)
	q.pending = b
	return b
}
