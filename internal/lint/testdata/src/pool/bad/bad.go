// Package bad holds poollint true positives: pooled values escaping
// their ownership scope and premature PutBufs.
package bad

import "netpkt"

type Queue struct {
	pending []byte
	frame   *netpkt.Frame
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
