// Package netpkt is the fixture stand-in for hgw/internal/netpkt:
// poollint resolves the pool API by function name and a package path
// ending in "netpkt", so these stubs bind the same way the real codec
// does.
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

func GetBuf(n int) []byte { return make([]byte, 0, n) }

func PutBuf(b []byte) {}

func GetFrame() *Frame { return &Frame{} }

func PutFrame(f *Frame) {}

func Clone(b []byte) []byte { return append([]byte(nil), b...) }

func ParseUDP(b []byte) (*UDP, bool) { return &UDP{Raw: b}, true }

func ParseIPv4(b []byte) (*IPv4, error) { return &IPv4{Payload: b}, nil }

func GetPacket() *IPv4 { return &IPv4{} }

func PutPacket(ip *IPv4) {}

func ParsePooled(b []byte) (*IPv4, error) { return &IPv4{Payload: b}, nil }
