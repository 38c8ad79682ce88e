// Package bad holds poollint true positives: pooled values escaping
// their ownership scope, premature PutBufs and PutPackets, and packet
// records used after the host took them over.
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

func (q *Queue) Stash() {
	b := netpkt.GetBuf(64)
	q.pending = b // want `escapes its ownership scope`
}

func (q *Queue) StashFrame() {
	f := netpkt.GetFrame()
	q.frame = f // want `escapes its ownership scope`
}

func Leak() []byte {
	b := netpkt.GetBuf(64)
	return b // want `transfers ownership implicitly`
}

func Capture(run func(func())) {
	f := netpkt.GetFrame()
	run(func() {
		f.Payload = nil // want `captured by closure`
	})
	netpkt.PutFrame(f)
}

func Premature() int {
	b := netpkt.GetBuf(64)
	u, _ := netpkt.ParseUDP(b)
	netpkt.PutBuf(b) // want `still used at`
	return len(u.Raw)
}

func PrematureField(f *netpkt.Frame) int {
	ip, _ := netpkt.ParseIPv4(f.Payload)
	if ip == nil {
		return 0
	}
	netpkt.PutBuf(f.Payload) // want `still used at`
	return len(ip.Payload)
}

func PrematureBranch(f *netpkt.Frame, keep bool) int {
	ip, _ := netpkt.ParseIPv4(f.Payload)
	if !keep {
		netpkt.PutBuf(f.Payload) // want `still used at`
	}
	return len(ip.Payload)
}

func PrematureOwned(ip *netpkt.IPv4, send func([]byte)) {
	netpkt.PutBuf(ip.Buf) // want `still used at`
	ip.Buf = nil
	send(ip.Payload)
}

func StashRecord(q *Queue, f *netpkt.Frame) {
	ip, _ := netpkt.ParsePooled(f.Payload)
	q.pkt = ip // want `escapes its ownership scope`
}

func RecordAfterPut(ip *netpkt.IPv4, send func([]byte)) {
	netpkt.PutPacket(ip) // want `PutPacket\(ip\) while the record is still used`
	send(ip.Payload)
}

func BufferBeforeRecord(f *netpkt.Frame, handle func(*netpkt.IPv4) bool) {
	ip, _ := netpkt.ParsePooled(f.Payload)
	if !handle(ip) {
		netpkt.PutBuf(f.Payload) // want `still used at`
		netpkt.PutPacket(ip)
	}
}

func HeldBufferBeforeRecord(ip *netpkt.IPv4) {
	buf := ip.Buf
	ip.Buf = nil
	netpkt.PutBuf(buf) // want `while packet "ip", whose views alias it, is still used`
	netpkt.PutPacket(ip)
}

func UseAfterSend(h *stack.Host, ttl uint8) int {
	ip := netpkt.GetPacket()
	ip.TTL = ttl
	h.Send(ip) // want `packet "ip" is used at .* after h.Send took it over`
	return len(ip.Payload)
}

func ForwardThenCount(h *stack.Host, ifc *stack.NetIf, ip *netpkt.IPv4) int {
	h.SendVia(ifc, ip) // want `after h.SendVia took it over`
	return int(ip.TTL)
}
