// Package netpkt is the fixture stand-in for hgw/internal/netpkt:
// poollint resolves the pool API as methods of a type Pool, and the
// codecs by function name, in a package whose path ends in "netpkt",
// so these stubs bind the same way the real codec does.
package netpkt

type Frame struct {
	Payload []byte
}

type UDP struct {
	Raw []byte
}

type IPv4 struct {
	TTL     uint8
	Payload []byte
	Buf     []byte
}

// Pool is a simulator domain's packet pool.
type Pool struct{}

func (p *Pool) GetBuf(n int) []byte { return make([]byte, 0, n) }

func (p *Pool) PutBuf(b []byte) {}

func (p *Pool) GetFrame() *Frame { return &Frame{} }

func (p *Pool) PutFrame(f *Frame) {}

func (p *Pool) GetPacket() *IPv4 { return &IPv4{} }

func (p *Pool) PutPacket(ip *IPv4) {}

func (p *Pool) ParsePooled(b []byte) (*IPv4, error) { return &IPv4{Payload: b}, nil }

// Scratch has methods named like the pool's, but draws nothing from a
// pool: its values are not tracked.
type Scratch struct{}

func (s *Scratch) GetBuf(n int) []byte { return make([]byte, 0, n) }

func (s *Scratch) PutBuf(b []byte) {}

func Clone(b []byte) []byte { return append([]byte(nil), b...) }

func ParseUDP(b []byte) (*UDP, bool) { return &UDP{Raw: b}, true }

func ParseIPv4(b []byte) (*IPv4, error) { return &IPv4{Payload: b}, nil }
