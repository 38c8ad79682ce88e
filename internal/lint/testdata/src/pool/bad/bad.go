// Package bad holds poollint true positives: values drawn from a
// domain's pool escaping their ownership scope, premature PutBufs and
// PutPackets, and packet records used after the host took them over.
package bad

import (
	"netpkt"
	"stack"
)

type Queue struct {
	pending []byte
	frame   *netpkt.Frame
	pkt     *netpkt.IPv4
}

func (q *Queue) Stash(p *netpkt.Pool) {
	b := p.GetBuf(64)
	q.pending = b // want `escapes its ownership scope`
}

func (q *Queue) StashFrame(p *netpkt.Pool) {
	f := p.GetFrame()
	q.frame = f // want `escapes its ownership scope`
}

func Leak(p *netpkt.Pool) []byte {
	b := p.GetBuf(64)
	return b // want `transfers ownership implicitly`
}

func Capture(p *netpkt.Pool, run func(func())) {
	f := p.GetFrame()
	run(func() {
		f.Payload = nil // want `captured by closure`
	})
	p.PutFrame(f)
}

func Premature(p *netpkt.Pool) int {
	b := p.GetBuf(64)
	u, _ := netpkt.ParseUDP(b)
	p.PutBuf(b) // want `still used at`
	return len(u.Raw)
}

func PrematureField(p *netpkt.Pool, f *netpkt.Frame) int {
	ip, _ := netpkt.ParseIPv4(f.Payload)
	if ip == nil {
		return 0
	}
	p.PutBuf(f.Payload) // want `still used at`
	return len(ip.Payload)
}

func PrematureBranch(p *netpkt.Pool, f *netpkt.Frame, keep bool) int {
	ip, _ := netpkt.ParseIPv4(f.Payload)
	if !keep {
		p.PutBuf(f.Payload) // want `still used at`
	}
	return len(ip.Payload)
}

func PrematureOwned(p *netpkt.Pool, ip *netpkt.IPv4, send func([]byte)) {
	p.PutBuf(ip.Buf) // want `still used at`
	ip.Buf = nil
	send(ip.Payload)
}

func StashRecord(p *netpkt.Pool, q *Queue, f *netpkt.Frame) {
	ip, _ := p.ParsePooled(f.Payload)
	q.pkt = ip // want `escapes its ownership scope`
}

func RecordAfterPut(p *netpkt.Pool, ip *netpkt.IPv4, send func([]byte)) {
	p.PutPacket(ip) // want `PutPacket\(ip\) while the record is still used`
	send(ip.Payload)
}

func BufferBeforeRecord(p *netpkt.Pool, f *netpkt.Frame, handle func(*netpkt.IPv4) bool) {
	ip, _ := p.ParsePooled(f.Payload)
	if !handle(ip) {
		p.PutBuf(f.Payload) // want `still used at`
		p.PutPacket(ip)
	}
}

func HeldBufferBeforeRecord(p *netpkt.Pool, ip *netpkt.IPv4) {
	buf := ip.Buf
	ip.Buf = nil
	p.PutBuf(buf) // want `while packet "ip", whose views alias it, is still used`
	p.PutPacket(ip)
}

func UseAfterSend(p *netpkt.Pool, h *stack.Host, ttl uint8) int {
	ip := p.GetPacket()
	ip.TTL = ttl
	h.Send(ip) // want `packet "ip" is used at .* after h.Send took it over`
	return len(ip.Payload)
}

func ForwardThenCount(h *stack.Host, ifc *stack.NetIf, ip *netpkt.IPv4) int {
	h.SendVia(ifc, ip) // want `after h.SendVia took it over`
	return int(ip.TTL)
}

// DomainPool draws through an accessor, as the simulator layers do
// (h.S.Pool().GetBuf): the value is tracked all the same.
func DomainPool(h *stack.Host, q *Queue) {
	b := h.Pool().GetBuf(28)
	q.pending = b // want `escapes its ownership scope`
}
