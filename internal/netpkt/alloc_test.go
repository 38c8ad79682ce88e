package netpkt

import (
	"bytes"
	"testing"

	"hgw/internal/obs"
)

// TestAllocsMarshalParse pins the allocation counts of the codec hot
// paths: the pooled, struct-reusing path (what stack/netem run per
// packet in steady state) must be allocation-free.
func TestAllocsMarshalParse(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	payload := bytes.Repeat([]byte{0xa5}, 64)

	// Pooled UDP-in-IPv4 round trip, structs reused: zero allocs.
	u := &UDP{SrcPort: 4000, DstPort: 53, Payload: payload}
	var pool Pool
	var ipIn IPv4
	var udpIn UDP
	if n := testing.AllocsPerRun(100, func() {
		seg := u.AppendMarshal(pool.GetBuf(8+len(payload)), src, dst)
		ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: seg}
		wire := ip.MarshalPooled(&pool)
		pool.PutBuf(seg)
		if err := ipIn.Parse(wire); err != nil {
			t.Fatal(err)
		}
		if err := udpIn.Parse(ipIn.Payload, ipIn.Src, ipIn.Dst, true); err != nil {
			t.Fatal(err)
		}
		pool.PutBuf(wire)
	}); n != 0 {
		t.Fatalf("pooled UDP/IPv4 round trip allocates %.1f objects per run, want 0", n)
	}

	// Pooled TCP round trip, structs reused: zero allocs.
	seg := &TCP{SrcPort: 4000, DstPort: 80, Seq: 9, Ack: 7, Flags: TCPAck, Window: 65535, Payload: payload}
	var tcpIn TCP
	if n := testing.AllocsPerRun(100, func() {
		wire := seg.AppendMarshal(pool.GetBuf(20+len(payload)), src, dst)
		if err := tcpIn.Parse(wire, src, dst, true); err != nil {
			t.Fatal(err)
		}
		pool.PutBuf(wire)
	}); n != 0 {
		t.Fatalf("pooled TCP round trip allocates %.1f objects per run, want 0", n)
	}

	// TransportChecksum folds the pseudo-header arithmetically: no
	// staging buffer.
	if n := testing.AllocsPerRun(100, func() {
		TransportChecksum(src, dst, ProtoTCP, payload)
	}); n != 0 {
		t.Fatalf("TransportChecksum allocates %.1f objects per run, want 0", n)
	}
}

// TestParseAliasesInput checks the zero-copy contract: parsed views
// alias the wire buffer (mutations show through) and Clone severs the
// aliasing.
func TestParseAliasesInput(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	u := &UDP{SrcPort: 7, DstPort: 9, Payload: []byte("aliased-payload")}
	ip := &IPv4{TTL: 3, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: u.AppendMarshal(nil, src, dst)}
	wire := ip.Marshal()

	view, err := ParseIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	cloned := view.Clone()

	// Mutate the wire buffer under the parsed view.
	wire[len(wire)-1] ^= 0xff
	if view.Payload[len(view.Payload)-1] != wire[len(wire)-1] {
		t.Fatal("parsed view does not alias the wire buffer")
	}
	if cloned.Payload[len(cloned.Payload)-1] == wire[len(wire)-1] {
		t.Fatal("Clone still aliases the wire buffer")
	}
}

// TestBufPoolRoundTrip checks that the pool recycles its own buffers
// and safely ignores foreign or clipped slices.
func TestBufPoolRoundTrip(t *testing.T) {
	var pool Pool
	b := pool.GetBuf(64)
	if len(b) != 0 || cap(b) < 64 {
		t.Fatalf("GetBuf(64) = len %d cap %d", len(b), cap(b))
	}
	b = append(b, bytes.Repeat([]byte{1}, 64)...)
	pool.PutBuf(b) // must not panic
	if c := pool.GetBuf(10); &c[:1][0] != &b[0] {
		t.Fatal("the pool did not hand back the buffer put last")
	}

	// Clipped sub-slices (parsed views) and foreign buffers are ignored.
	n := len(pool.small)
	pool.PutBuf(b[8:32:32])
	pool.PutBuf(make([]byte, 100))
	if len(pool.small) != n {
		t.Fatal("the pool took a clipped or foreign buffer")
	}

	big := pool.GetBuf(1 << 20)
	if cap(big) < 1<<20 {
		t.Fatalf("oversize GetBuf cap = %d", cap(big))
	}
	pool.PutBuf(big) // oversize: ignored, must not panic

	f := pool.GetFrame()
	f.Type = 42
	pool.PutFrame(f)
	if g := pool.GetFrame(); g != f || g.Type != 0 {
		t.Fatal("PutFrame leaked fields into the pool")
	}
}

// TestPoolReleaseRefill checks the depot hand-off: a pool refills an
// empty list from what an earlier domain released, and the depot keeps
// at most depotMax objects of a class.
func TestPoolReleaseRefill(t *testing.T) {
	var a, b Pool
	buf := a.GetBuf(64)
	f := a.GetFrame()
	ip := a.GetPacket()
	a.PutBuf(buf)
	a.PutFrame(f)
	//hgwlint:allow poollint the test compares the recycled record's identity, never its contents
	a.PutPacket(ip)
	a.Release()
	if len(a.small) != 0 || len(a.frames) != 0 || len(a.pkts) != 0 {
		t.Fatal("Release left objects on the domain's lists")
	}
	if got := b.GetBuf(64); &got[:1][0] != &buf[:1][0] {
		t.Fatal("refill did not take the released buffer")
	}
	if b.GetFrame() != f || b.GetPacket() != ip {
		t.Fatal("refill did not take the released frame and record")
	}

	var big Pool
	for range depotMax + refillBatch {
		big.PutBuf(make([]byte, 0, bufCapSmall))
	}
	big.Release()
	depotSmall.mu.Lock()
	n := len(depotSmall.free)
	depotSmall.mu.Unlock()
	if n != depotMax {
		t.Fatalf("depot keeps %d small buffers, want its bound %d", n, depotMax)
	}
}

// TestMarshalPooledBytesIdentical checks that the pooled marshal path
// emits byte-identical wire format to the plain allocator path, even
// when the pooled buffer previously held other traffic (stale-byte
// leakage through padding would break equal-seed determinism).
func TestMarshalPooledBytesIdentical(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	// Dirty a pool buffer, then return it.
	var pool Pool
	dirty := pool.GetBuf(512)
	dirty = append(dirty, bytes.Repeat([]byte{0xff}, 512)...)
	pool.PutBuf(dirty)

	ip := &IPv4{
		TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst,
		Options: []byte{IPOptNop, IPOptNop, IPOptEnd}, // forces checksum-covered padding
		Payload: []byte("pooled-vs-plain"),
	}
	plain := ip.Marshal()
	pooled := ip.MarshalPooled(&pool)
	if !bytes.Equal(plain, pooled) {
		t.Fatalf("pooled marshal differs from plain:\nplain  %x\npooled %x", plain, pooled)
	}
	pool.PutBuf(pooled)
}

// TestReserveMarshalsInPlace checks the Reserve path: the header is
// written in front of the payload the sender appended, over whatever
// stale bytes the buffer held, and the wire image is the reserved
// buffer itself, byte-identical to a plain marshal (option padding
// included). A payload moved out of the reserved buffer falls back to
// a copying marshal.
func TestReserveMarshalsInPlace(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	var pool Pool
	ip := &IPv4{
		ID: 7, TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst,
		Options: []byte{IPOptNop, IPOptNop, IPOptEnd},
	}
	p := ip.Reserve(&pool, 16)
	full := ip.Buf[:cap(ip.Buf)]
	for i := range full {
		full[i] = 0xff
	}
	ip.Payload = append(p, "in-place-payload"...)
	plain := ip.Marshal()
	buf := ip.Buf[:1]
	wire := ip.MarshalPooled(&pool)
	if !bytes.Equal(plain, wire) {
		t.Fatalf("in-place marshal differs:\nplain %x\nwire  %x", plain, wire)
	}
	if &wire[0] != &buf[0] || ip.Buf != nil {
		t.Fatal("wire image is not the reserved buffer handed over")
	}
	pool.PutBuf(wire)

	ip = &IPv4{TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst}
	ip.Reserve(&pool, 8)
	ip.Payload = []byte("elsewhere")
	buf = ip.Buf[:1]
	if wire := ip.MarshalPooled(&pool); &wire[0] == &buf[0] || !bytes.Equal(wire, ip.Marshal()) || ip.Buf == nil {
		t.Fatalf("moved payload: wire %x, Buf kept %v", wire, ip.Buf != nil)
	}
}

// TestPoolCountersTrackTraffic checks that a pool counts its gets,
// puts, frame traffic and refills in plain fields and adds them to
// obs.Proc only when flushed. A fresh pool's first draw of a class
// finds its list empty: one miss.
func TestPoolCountersTrackTraffic(t *testing.T) {
	var pool Pool
	before := obs.Proc.Snapshot()
	b := pool.GetBuf(64)
	pool.PutBuf(b)
	b = pool.GetBuf(64)
	pool.PutBuf(b)
	f := pool.GetFrame()
	pool.PutFrame(f)
	pool.GetBuf(1 << 20) // oversize: allocator path, not counted
	if mid := obs.Proc.Snapshot(); mid != before {
		t.Fatalf("obs.Proc moved before the flush: %+v -> %+v", before, mid)
	}
	pool.Flush()
	after := obs.Proc.Snapshot()
	if got := after.PoolGets - before.PoolGets; got != 2 {
		t.Errorf("pool gets moved by %d, want 2 (oversize must not count)", got)
	}
	if got := after.PoolPuts - before.PoolPuts; got != 2 {
		t.Errorf("pool puts moved by %d, want 2", got)
	}
	if got := after.FrameGets - before.FrameGets; got != 1 {
		t.Errorf("frame gets moved by %d, want 1", got)
	}
	if got := after.FramePuts - before.FramePuts; got != 1 {
		t.Errorf("frame puts moved by %d, want 1", got)
	}
	if got := after.PoolMisses - before.PoolMisses; got != 1 {
		t.Errorf("pool misses moved by %d, want 1 (the first draw's refill)", got)
	}
	pool.Flush()
	if again := obs.Proc.Snapshot(); again != after {
		t.Errorf("a second flush moved obs.Proc: %+v -> %+v", after, again)
	}
}
