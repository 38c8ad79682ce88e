package netpkt

import (
	"sync"

	"hgw/internal/obs"
)

// Packet-buffer pooling. Marshal runs for every hop of every packet, so
// the simulation's steady-state garbage is dominated by wire buffers.
// GetBuf/PutBuf recycle fixed-capacity buffers through a sync.Pool; the
// marshal paths draw from it via MarshalPooled, and the stack/netem
// layers return buffers at the few points where a frame provably dies
// unparsed (see DESIGN.md §9 for the ownership rules).
//
// Only whole pool-class buffers are ever recycled: PutBuf ignores
// buffers of any other capacity, so handing it an aliased sub-slice
// (e.g. a parsed payload view, whose capacity is clipped by the parse)
// is harmless rather than corrupting.

// Two pool size classes: most testbed traffic (ARP, DHCP, DNS, probe
// datagrams, bare ACKs) fits the small class, so a pool miss — buffers
// retained by parsed views never come back — costs bytes proportional
// to the packet, while full-MSS TCP segments use the large class
// (Ethernet MTU plus headers). Larger requests fall back to the
// ordinary allocator.
const (
	bufCapSmall = 256
	bufCapLarge = 2048
)

// The pools report hit/miss traffic to obs.Proc (process-wide atomics,
// not the deterministic per-shard registries: sync.Pool reuse depends
// on GC timing and scheduling, so these counts are diagnostics, never
// part of a run's canonical output).
var (
	bufPoolSmall = sync.Pool{New: func() any { obs.Proc.PoolMiss(); return new([bufCapSmall]byte) }}
	bufPoolLarge = sync.Pool{New: func() any { obs.Proc.PoolMiss(); return new([bufCapLarge]byte) }}
)

// GetBuf returns an empty buffer with capacity at least n. The contents
// beyond len are unspecified; callers must write every byte they expose.
func GetBuf(n int) []byte {
	switch {
	case n <= bufCapSmall:
		obs.Proc.PoolGet()
		return bufPoolSmall.Get().(*[bufCapSmall]byte)[:0]
	case n <= bufCapLarge:
		obs.Proc.PoolGet()
		return bufPoolLarge.Get().(*[bufCapLarge]byte)[:0]
	default:
		return make([]byte, 0, n)
	}
}

// PutBuf recycles a buffer previously returned by GetBuf. The caller
// must guarantee no other reference to the buffer remains — including
// parsed views aliasing it. Buffers that did not come from the pool
// (wrong capacity, e.g. an aliased sub-slice whose capacity the parse
// clipped) are ignored rather than corrupting the pool.
func PutBuf(b []byte) {
	switch cap(b) {
	case bufCapSmall:
		obs.Proc.PoolPut()
		bufPoolSmall.Put((*[bufCapSmall]byte)(b[:bufCapSmall:bufCapSmall]))
	case bufCapLarge:
		obs.Proc.PoolPut()
		bufPoolLarge.Put((*[bufCapLarge]byte)(b[:bufCapLarge:bufCapLarge]))
	}
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a zeroed Frame from the frame pool. Senders build
// outgoing frames in pooled structs; the receiving host recycles the
// struct (not the payload, which parsed views may alias) once frame
// processing ends.
func GetFrame() *Frame {
	obs.Proc.FrameGet()
	return framePool.Get().(*Frame)
}

// PutFrame recycles a frame struct. The caller must guarantee no other
// reference to the struct remains; the payload buffer is NOT recycled
// (use PutBuf separately when it too is provably dead).
func PutFrame(f *Frame) {
	obs.Proc.FramePut()
	*f = Frame{}
	framePool.Put(f)
}

var packetPool = sync.Pool{New: func() any { return new(IPv4) }}

// GetPacket returns a zeroed packet record from the record pool. A
// record follows its frame buffer (DESIGN.md §9): it goes back with
// PutPacket at exactly the points where the buffer does, and before
// it, since Options and Payload alias the buffer.
func GetPacket() *IPv4 {
	ip := packetPool.Get().(*IPv4)
	ip.pooled = true
	return ip
}

// PutPacket recycles a record drawn by GetPacket or ParsePooled. The
// caller must guarantee no other reference to it remains. Records that
// callers built themselves (&IPv4{...}, Clone) are ignored, so a recycle
// point need not know where the packet it ends came from. The buffer
// the record owns is NOT recycled (use PutBuf separately).
func PutPacket(ip *IPv4) {
	if !ip.pooled {
		return
	}
	*ip = IPv4{}
	packetPool.Put(ip)
}

// growZero extends b by n zeroed bytes, reusing capacity when it can.
// Zeroing matters for pooled buffers: option padding and similar gaps
// must not leak a previous packet's bytes.
func growZero(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l >= n {
		b = b[:l+n]
		clear(b[l:])
		return b
	}
	nb := make([]byte, l+n)
	copy(nb, b)
	return nb
}
