// Package allowed exercises poollint's annotation path: the return
// below is a documented ownership transfer.
package allowed

import "netpkt"

func NewFrame(p *netpkt.Pool) *netpkt.Frame {
	f := p.GetFrame()
	//hgwlint:allow poollint constructor transfers ownership to the caller by contract
	return f
}
