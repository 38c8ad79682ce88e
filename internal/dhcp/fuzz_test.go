package dhcp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"unsafe"

	"hgw/internal/netpkt"
)

// refMessage is the map-based message the codec replaced, kept here
// only as the reference its byte output is checked against.
type refMessage struct {
	Op                             uint8
	XID                            uint32
	CIAddr, YIAddr, SIAddr, GIAddr netip.Addr
	CHAddr                         netpkt.MAC
	Options                        map[uint8][]byte
}

// refParse is the replaced decoder: a repeated option overwrites the
// earlier value in the map.
func refParse(b []byte) (*refMessage, bool) {
	if len(b) < 240 || [4]byte(b[236:240]) != magicCookie {
		return nil, false
	}
	m := &refMessage{
		Op: b[0], XID: binary.BigEndian.Uint32(b[4:8]),
		CIAddr: addr4OrZero(b[12:16]), YIAddr: addr4OrZero(b[16:20]),
		SIAddr: addr4OrZero(b[20:24]), GIAddr: addr4OrZero(b[24:28]),
		Options: make(map[uint8][]byte),
	}
	copy(m.CHAddr[:], b[28:34])
	opts := b[240:]
	for i := 0; i < len(opts); {
		code := opts[i]
		if code == OptEnd {
			break
		}
		if code == 0 {
			i++
			continue
		}
		if i+1 >= len(opts) {
			return nil, false
		}
		l := int(opts[i+1])
		if i+2+l > len(opts) {
			return nil, false
		}
		m.Options[code] = append([]byte(nil), opts[i+2:i+2+l]...)
		i += 2 + l
	}
	return m, true
}

// refMarshal is the replaced encoder: one map lookup per option code,
// message type first, then ascending.
func refMarshal(m *refMessage) []byte {
	b := make([]byte, 240)
	b[0] = m.Op
	b[1] = 1
	b[2] = 6
	binary.BigEndian.PutUint32(b[4:8], m.XID)
	put4(b[12:16], m.CIAddr)
	put4(b[16:20], m.YIAddr)
	put4(b[20:24], m.SIAddr)
	put4(b[24:28], m.GIAddr)
	copy(b[28:34], m.CHAddr[:])
	copy(b[236:240], magicCookie[:])
	emit := func(code uint8) {
		if v, ok := m.Options[code]; ok {
			b = append(b, code, uint8(len(v)))
			b = append(b, v...)
		}
	}
	emit(OptMsgType)
	for code := uint8(1); code < OptEnd; code++ {
		if code != OptMsgType {
			emit(code)
		}
	}
	return append(b, OptEnd)
}

// FuzzDHCPParse checks the list-based codec against the map-based one
// it replaced: Parse never panics and agrees with the old decoder on
// every field and option, every option value is a capacity-clipped view
// inside the input, a reused Message decodes like a fresh one, and
// marshaling a parsed message gives the old encoder's bytes. Its seed
// corpus (testdata/fuzz) holds the testbed's three message shapes and
// the framing corner cases: pads, a repeated option, options out of
// order, an empty value, bytes after the end option, a missing end
// option and truncations.
func FuzzDHCPParse(f *testing.F) {
	reused := new(Message)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Give the input spare capacity that a view must not reach.
		in := append(make([]byte, 0, len(data)+16), data...)
		var m Message
		err := m.Parse(in)
		ref, ok := refParse(data)
		if (err == nil) != ok {
			t.Fatalf("Parse error %v, reference ok %v", err, ok)
		}
		if err != nil {
			return
		}
		if m.Op != ref.Op || m.XID != ref.XID || m.CHAddr != ref.CHAddr ||
			m.CIAddr != ref.CIAddr || m.YIAddr != ref.YIAddr || m.SIAddr != ref.SIAddr || m.GIAddr != ref.GIAddr {
			t.Fatalf("header %+v, reference %+v", m, ref)
		}
		if len(m.opts) != len(ref.Options) {
			t.Fatalf("%d options, reference %d", len(m.opts), len(ref.Options))
		}
		base := uintptr(unsafe.Pointer(unsafe.SliceData(in)))
		for _, o := range m.opts {
			if want := ref.Options[o.code]; !bytes.Equal(o.val, want) {
				t.Fatalf("option %d = %x, reference %x", o.code, o.val, want)
			}
			if len(o.val) != cap(o.val) {
				t.Fatalf("option %d: view has spare capacity %d", o.code, cap(o.val)-len(o.val))
			}
			if len(o.val) > 0 {
				off := uintptr(unsafe.Pointer(unsafe.SliceData(o.val))) - base
				if off < 240 || off+uintptr(len(o.val)) > uintptr(len(data)) {
					t.Fatalf("option %d: view at %d+%d outside the %d-byte input", o.code, off, len(o.val), len(data))
				}
			}
		}
		if got, want := m.AppendMarshal(nil), refMarshal(ref); !bytes.Equal(got, want) {
			t.Fatalf("Marshal\n got %x\nwant %x", got, want)
		}
		if err := reused.Parse(in); err != nil || !bytes.Equal(reused.AppendMarshal(nil), m.AppendMarshal(nil)) {
			t.Fatalf("reused message decodes differently (err %v)", err)
		}
	})
}

// ack builds the reply a server sends: every option the testbed uses.
func ack(m *Message, xid uint32) {
	m.reset()
	m.Op, m.XID, m.YIAddr = 2, xid, netpkt.Addr4(10, 0, 1, 100)
	m.setCopy(OptMsgType, Ack)
	m.SetAddrOption(OptSubnetMask, netpkt.Addr4(255, 255, 255, 0))
	m.SetAddrOption(OptRouter, netpkt.Addr4(10, 0, 1, 1))
	m.SetAddrOption(OptDNS, netpkt.Addr4(10, 0, 1, 1))
	m.SetAddrOption(OptServerID, netpkt.Addr4(10, 0, 1, 1))
	m.setCopy(OptLeaseTime, 0, 0, 14, 16)
}

// TestAllocsParse pins parsing into a caller-owned Message at zero
// allocations once its option list has grown.
func TestAllocsParse(t *testing.T) {
	var m Message
	ack(&m, 1)
	b := m.AppendMarshal(nil)
	if err := m.Parse(b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = m.Parse(b) }); n != 0 {
		t.Fatalf("Parse allocates %.1f objects per message, want 0", n)
	}
}

// BenchmarkDHCPMarshalParse builds a server's ACK, marshals it into a
// reused buffer and parses it back into a reused Message.
func BenchmarkDHCPMarshalParse(b *testing.B) {
	var m, got Message
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ack(&m, uint32(i))
		buf = m.AppendMarshal(buf[:0])
		if err := got.Parse(buf); err != nil || got.Type() != Ack {
			b.Fatal(err)
		}
	}
}
