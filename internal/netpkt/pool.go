package netpkt

import (
	"sync"

	"hgw/internal/obs"
)

// Packet-buffer pooling. Marshal runs for every hop of every packet, so
// the simulation's steady-state garbage is dominated by wire buffers,
// frames and packet records. Each simulator domain owns one Pool (the
// sim package embeds it in its Sim): plain per-class free lists that
// its single running coroutine pops and pushes with no atomics and that
// no GC cycle empties. A list that runs dry refills in a batch from
// the process-wide depot below, and a domain hands all of its lists
// back when it shuts down. See DESIGN.md §9 for the ownership rules.
//
// Only whole pool-class buffers are ever recycled: PutBuf ignores
// buffers of any other capacity, so handing it an aliased sub-slice
// (e.g. a parsed payload view, whose capacity is clipped by the parse)
// is harmless rather than corrupting.

// Two pool size classes: most testbed traffic (ARP, DHCP, DNS, probe
// datagrams, bare ACKs) fits the small class, so a buffer that never
// comes back (one retained by a parsed view) costs bytes proportional
// to the packet, while full-MSS TCP segments use the large class
// (Ethernet MTU plus headers). Larger requests fall back to the
// ordinary allocator.
const (
	bufCapSmall = 256
	bufCapLarge = 2048
)

// refillBatch is how many objects a domain takes from the depot when
// one of its lists runs dry.
const refillBatch = 32

// depotMax bounds the objects the depot keeps per class; a domain's
// release beyond it is left to the GC. It must cover the largest
// working sets that release at about the same time, or the next
// domain allocates afresh: a bindrate domain peaks at ~2.6 k small
// buffers and as many records, a 256-device fleet shard at 256 large
// buffers (its DHCP bring-up), with two shards in flight on two cores.
const depotMax = 4096

// depot is one class's process-wide store. Domains reach it only to
// refill an empty list or to release their lists at shutdown, so one
// mutex per class is never on the per-packet path.
type depot[T any] struct {
	mu   sync.Mutex
	free []*T
}

var (
	depotSmall  depot[[bufCapSmall]byte]
	depotLarge  depot[[bufCapLarge]byte]
	depotFrames depot[Frame]
	depotPkts   depot[IPv4]
)

// refill appends refillBatch objects to the empty list l: what the
// depot holds, then fresh zeroed ones.
func (d *depot[T]) refill(l []*T) []*T {
	d.mu.Lock()
	n := len(d.free)
	k := min(n, refillBatch)
	l = append(l, d.free[n-k:]...)
	clear(d.free[n-k:])
	d.free = d.free[:n-k]
	d.mu.Unlock()
	for ; k < refillBatch; k++ {
		l = append(l, new(T))
	}
	return l
}

// release moves l's objects into the depot, up to depotMax.
func (d *depot[T]) release(l []*T) {
	d.mu.Lock()
	d.free = append(d.free, l[:min(len(l), depotMax-len(d.free))]...)
	d.mu.Unlock()
}

// Pool is one simulator domain's packet free lists. Its methods are
// not safe for concurrent use: a domain runs one coroutine at a time,
// and only that coroutine may touch its pool. The zero value is ready
// to use. Frames and packet records come back zeroed; a buffer's
// bytes beyond its length are unspecified.
type Pool struct {
	small  []*[bufCapSmall]byte
	large  []*[bufCapLarge]byte
	frames []*Frame
	pkts   []*IPv4

	// Traffic since the last Flush, for obs.Proc. Plain fields: only
	// the domain writes them.
	gets, misses, puts, frameGets, framePuts uint64
}

// GetBuf returns an empty buffer with capacity at least n. The contents
// beyond len are unspecified; callers must write every byte they expose.
func (p *Pool) GetBuf(n int) []byte {
	switch {
	case n <= bufCapSmall:
		p.gets++
		if len(p.small) == 0 {
			p.misses++
			p.small = depotSmall.refill(p.small)
		}
		b := p.small[len(p.small)-1]
		p.small = p.small[:len(p.small)-1]
		return b[:0]
	case n <= bufCapLarge:
		p.gets++
		if len(p.large) == 0 {
			p.misses++
			p.large = depotLarge.refill(p.large)
		}
		b := p.large[len(p.large)-1]
		p.large = p.large[:len(p.large)-1]
		return b[:0]
	default:
		return make([]byte, 0, n)
	}
}

// PutBuf recycles a buffer previously returned by GetBuf. The caller
// must guarantee no other reference to the buffer remains — including
// parsed views aliasing it. Buffers that did not come from a pool
// (wrong capacity, e.g. an aliased sub-slice whose capacity the parse
// clipped) are ignored rather than corrupting the pool.
func (p *Pool) PutBuf(b []byte) {
	switch cap(b) {
	case bufCapSmall:
		p.puts++
		p.small = append(p.small, (*[bufCapSmall]byte)(b[:bufCapSmall]))
	case bufCapLarge:
		p.puts++
		p.large = append(p.large, (*[bufCapLarge]byte)(b[:bufCapLarge]))
	}
}

// GetFrame returns a zeroed Frame. Senders build outgoing frames in
// pooled structs; the receiving host recycles the struct (not the
// payload, which parsed views may alias) once frame processing ends.
func (p *Pool) GetFrame() *Frame {
	p.frameGets++
	if len(p.frames) == 0 {
		p.frames = depotFrames.refill(p.frames)
	}
	f := p.frames[len(p.frames)-1]
	p.frames = p.frames[:len(p.frames)-1]
	return f
}

// PutFrame recycles a frame struct. The caller must guarantee no other
// reference to the struct remains; the payload buffer is NOT recycled
// (use PutBuf separately when it too is provably dead).
func (p *Pool) PutFrame(f *Frame) {
	p.framePuts++
	*f = Frame{}
	p.frames = append(p.frames, f)
}

// GetPacket returns a zeroed packet record. A record follows its frame
// buffer (DESIGN.md §9): it goes back with PutPacket at exactly the
// points where the buffer does, and before it, since Options and
// Payload alias the buffer.
func (p *Pool) GetPacket() *IPv4 {
	if len(p.pkts) == 0 {
		p.pkts = depotPkts.refill(p.pkts)
	}
	ip := p.pkts[len(p.pkts)-1]
	p.pkts = p.pkts[:len(p.pkts)-1]
	ip.pooled = true
	return ip
}

// PutPacket recycles a record drawn by GetPacket or ParsePooled. The
// caller must guarantee no other reference to it remains. Records that
// callers built themselves (&IPv4{...}, Clone) are ignored, so a recycle
// point need not know where the packet it ends came from. The buffer
// the record owns is NOT recycled (use PutBuf separately).
func (p *Pool) PutPacket(ip *IPv4) {
	if !ip.pooled {
		return
	}
	*ip = IPv4{}
	p.pkts = append(p.pkts, ip)
}

// ParsePooled decodes b like ParseIPv4 into a record drawn by
// GetPacket. Aliasing semantics match ParseIPv4; the record goes back
// with PutPacket where its buffer dies, before the buffer itself.
func (p *Pool) ParsePooled(b []byte) (*IPv4, error) {
	ip := p.GetPacket()
	err := ip.Parse(b)
	if err != nil && err != ErrBadChecksum {
		p.PutPacket(ip)
		return nil, err
	}
	return ip, err
}

// Flush adds the pool's traffic since the last Flush to obs.Proc in one
// call. The simulator flushes when Run returns and at Shutdown, so the
// process-wide totals are current whenever no domain is running.
func (p *Pool) Flush() {
	obs.Proc.AddPool(p.gets, p.misses, p.puts, p.frameGets, p.framePuts)
	p.gets, p.misses, p.puts, p.frameGets, p.framePuts = 0, 0, 0, 0, 0
}

// Release flushes the pool and hands every object on its lists to the
// depot, for the next domain to refill from. The domain must hold no
// pooled object it will still recycle: the simulator releases its pool
// at Shutdown, after every process has unwound.
func (p *Pool) Release() {
	p.Flush()
	depotSmall.release(p.small)
	depotLarge.release(p.large)
	depotFrames.release(p.frames)
	depotPkts.release(p.pkts)
	p.small, p.large, p.frames, p.pkts = nil, nil, nil, nil
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
