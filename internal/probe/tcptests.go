package probe

import (
	"encoding/binary"
	"fmt"
	"time"

	"hgw/internal/sim"
	"hgw/internal/stats"
	"hgw/internal/tcp"
	"hgw/internal/testbed"
)

// tcpProbeBasePort is the base server port for TCP probes; each device
// uses its own port to keep parallel measurements apart.
const tcpProbeBasePort = 8000

// TCPTimeouts measures idle TCP binding timeouts (TCP-1) for all nodes
// in parallel. Samples are in minutes; devices whose bindings survive
// the 24-hour cut-off (maxTCPTimeout) report it.
func TCPTimeouts(tb *testbed.Testbed, s *sim.Sim, opts Options) []DeviceResult {
	opts = opts.withDefaults()
	return RunPerDevice(tb, s, "tcp-timeout", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		port := uint16(tcpProbeBasePort + n.Index)
		lis, err := tb.Server.TCP.Listen(port)
		if err != nil {
			panic(fmt.Sprintf("probe: tcp listen %d: %v", port, err))
		}
		defer lis.Close()

		res := DeviceResult{Tag: n.Tag}
		for it := 0; it < opts.Iterations; it++ {
			p.Sleep(time.Duration(s.Rand().Int63n(int64(5 * time.Second))))
			sample, _ := binarySearch(func(t time.Duration) bool {
				return tcpAlive(p, tb, n, lis, port, t, opts)
			}, 2*time.Minute, maxTCPTimeout, opts.Resolution)
			res.Samples = append(res.Samples, sample.Minutes())
		}
		return res
	})
}

// tcpAlive opens a fresh connection, idles it for t with no keepalives,
// then passes a message server-to-client to see whether the NAT binding
// survived.
func tcpAlive(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node,
	lis *tcp.Listener, port uint16, t time.Duration, opts Options) bool {

	c, err := tb.Client.TCP.Connect(p, n.ServerAddr, port, 0, 15*time.Second)
	if err != nil {
		// Table pressure from a previous probe; give it a beat and fail
		// this probe conservatively as alive=false only if retry fails.
		p.Sleep(10 * time.Second)
		c, err = tb.Client.TCP.Connect(p, n.ServerAddr, port, 0, 15*time.Second)
		if err != nil {
			return false
		}
	}
	sc, err := lis.Accept(p, 5*time.Second)
	if err != nil {
		c.Abort()
		return false
	}
	p.Sleep(t)
	alive := false
	if err := sc.Write(p, []byte("binding-check")); err == nil {
		var buf [64]byte
		n, err := c.Read(p, buf[:], verdictGrace+3*time.Second)
		alive = err == nil && n > 0
	}
	c.Abort()
	sc.Abort()
	// Let the NAT's close-linger expire before the next probe.
	p.Sleep(30 * time.Second)
	return alive
}

// Throughput is the per-device TCP-2/TCP-3 result: bulk goodput in both
// directions, unidirectional and bidirectional, plus the embedded-
// timestamp queuing delays of TCP-3 (median of minimum-normalized
// deltas, in milliseconds).
type Throughput struct {
	Tag string

	UpMbps, DownMbps     float64 // unidirectional goodput
	BiUpMbps, BiDownMbps float64 // simultaneous up+down

	DelayUpMs, DelayDownMs     float64 // unidirectional
	BiDelayUpMs, BiDelayDownMs float64 // during bidirectional load
}

// blockSize is the timestamp spacing of TCP-3 (every 2 KB).
const blockSize = 2048

// MeasureThroughput runs the TCP-2/TCP-3 workload against a single
// device, each of its ThroughputRuns on a fresh testbed of its own (the
// paper measures throughput one gateway at a time to avoid overloading
// the test network). A run that fails panics.
func MeasureThroughput(tag string, opts Options, seed int64) Throughput {
	res := Throughput{Tag: tag}
	for k := 0; k < ThroughputRuns; k++ {
		tb, s := testbed.Run(testbed.Config{Tags: []string{tag}, Seed: seed})
		err := ThroughputRun(k, tb, s, opts, &res)
		s.Shutdown()
		if err != nil {
			panic(err)
		}
	}
	return res
}

// ThroughputRuns is how many testbeds one device's TCP-2/TCP-3
// measurement takes: an upload, a download, and both at once.
const ThroughputRuns = 3

// ThroughputRun makes run k on tb, a fresh testbed of the one device,
// filling only that run's fields of res (the runs of a device may share
// it concurrently). A transfer that falls short of its bytes is an error.
func ThroughputRun(k int, tb *testbed.Testbed, s *sim.Sim, opts Options, res *Throughput) error {
	xs := [ThroughputRuns][]transfer{
		{{"upload", &res.UpMbps, &res.DelayUpMs}},
		{{"download", &res.DownMbps, &res.DelayDownMs}},
		{{"upload", &res.BiUpMbps, &res.BiDelayUpMs}, {"download", &res.BiDownMbps, &res.BiDelayDownMs}},
	}[k]
	opts = opts.withDefaults()
	n := tb.Nodes[0]
	procs := make([]*sim.Proc, len(xs))
	moved := make([]int, len(xs))
	for i, x := range xs {
		procs[i] = s.Spawn(x.dir, func(p *sim.Proc) {
			*x.mbps, *x.delay, moved[i] = oneTransfer(p, tb, n, x.dir == "upload", opts.TransferBytes)
		})
	}
	s.Run(0)
	if s.Interrupted() {
		return nil
	}
	for i, x := range xs {
		if !procs[i].Exited() {
			return fmt.Errorf("probe: %s through %s stalled", x.dir, n.Tag)
		}
		if moved[i] < opts.TransferBytes {
			return fmt.Errorf("probe: %s through %s moved %d of %d bytes", x.dir, n.Tag, moved[i], opts.TransferBytes)
		}
	}
	return nil
}

// transfer is one bulk transfer of a throughput run, "upload" or
// "download", and where its goodput and delay go.
type transfer struct {
	dir         string
	mbps, delay *float64
}

// oneTransfer moves opts.TransferBytes through the device in the given
// direction, returning goodput (Mb/s), the TCP-3 delay (ms) and the
// bytes the receiver got.
// The sender embeds an 8-byte virtual-clock timestamp at the start of
// every 2 KB block; the receiver reports the median of the normalized
// (minimum-subtracted) deltas, which discards the constant propagation
// component and is robust to retransmissions, as in the paper.
func oneTransfer(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node, up bool, total int) (mbps, delayMs float64, moved int) {
	port := uint16(tcpProbeBasePort + 500)
	if !up {
		port++
	}
	lis, err := tb.Server.TCP.Listen(port)
	if err != nil {
		panic(err)
	}
	defer lis.Close()

	type rxResult struct {
		bytes   int
		start   sim.Time
		end     sim.Time
		delays  []float64
		started bool
	}
	var rx rxResult

	recvLoop := func(rp *sim.Proc, c *tcp.Conn) {
		// Blocks are parsed as the bytes stream through buf: off is the
		// position in the current block, whose leading timestamp
		// collects in ts, even when it straddles two reads.
		buf := make([]byte, 1<<16)
		var ts [8]byte
		off := 0
		for rx.bytes < total {
			n, err := c.Read(rp, buf, 2*time.Minute)
			if err != nil {
				break
			}
			if !rx.started {
				rx.started = true
				rx.start = rp.Now()
			}
			rx.bytes += n
			rx.end = rp.Now()
			for data := buf[:n]; len(data) > 0; {
				k := min(blockSize-off, len(data))
				if off < len(ts) {
					copy(ts[off:], data[:k])
				}
				off += k
				data = data[k:]
				if off == blockSize {
					d := float64(rp.Now()-sim.Time(binary.BigEndian.Uint64(ts[:]))) / float64(time.Millisecond)
					rx.delays = append(rx.delays, d)
					off = 0
				}
			}
		}
	}

	sendLoop := func(sp *sim.Proc, c *tcp.Conn) {
		block := make([]byte, blockSize)
		// Effective send-socket buffer: one receive window's worth, as
		// on the paper's Linux senders. Timestamps are stamped when the
		// block enters the buffer, so the measured delay includes
		// sender-side queueing — exactly like the paper's 100 MB writes
		// through a kernel socket buffer.
		const sndBuf = 60 * 1024
		for sent := 0; sent < total; sent += blockSize {
			for c.Buffered() > sndBuf {
				if c.Err() != nil {
					return // the connection died with data unsent
				}
				sp.Sleep(200 * time.Microsecond)
			}
			binary.BigEndian.PutUint64(block[:8], uint64(sp.Now()))
			if err := c.Write(sp, block); err != nil {
				return
			}
		}
		c.Close()
	}

	// Establish the connection through the NAT (always client-initiated).
	cli, err := tb.Client.TCP.Connect(p, n.ServerAddr, port, 0, 15*time.Second)
	if err != nil {
		return 0, 0, 0
	}
	srv, err := lis.Accept(p, 5*time.Second)
	if err != nil {
		cli.Abort()
		return 0, 0, 0
	}

	var sender, receiver *tcp.Conn
	if up {
		sender, receiver = cli, srv
	} else {
		sender, receiver = srv, cli
	}
	rcv := tb.S.Spawn("rx", func(rp *sim.Proc) { recvLoop(rp, receiver) })
	snd := tb.S.Spawn("tx", func(sp *sim.Proc) { sendLoop(sp, sender) })
	p.Join(snd)
	p.Join(rcv)
	cli.Abort()
	srv.Abort()

	if rx.bytes == 0 || rx.end <= rx.start {
		return 0, 0, rx.bytes
	}
	if d := rx.end - rx.start; d > 0 {
		mbps = float64(rx.bytes) * 8 / d.Seconds() / 1e6
	}
	if len(rx.delays) > 0 {
		minD := stats.Min(rx.delays)
		delayMs = stats.Median(rx.delays) - minD
	}
	return mbps, delayMs, rx.bytes
}

// MaxBindings measures the maximum number of concurrent TCP bindings to
// a single server port (TCP-4): connections are opened until creation
// fails or messages can no longer be passed.
func MaxBindings(tb *testbed.Testbed, s *sim.Sim, opts Options) []DeviceResult {
	opts = opts.withDefaults()
	const hardLimit = 1400 // above the largest device cap (ca. 1024)
	return RunPerDevice(tb, s, "tcp-maxbind", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		port := uint16(tcpProbeBasePort + 200 + n.Index)
		lis, err := tb.Server.TCP.Listen(port)
		if err != nil {
			panic(err)
		}
		defer lis.Close()

		var conns []*tcp.Conn
		var srvConns []*tcp.Conn
		count := 0
		for count < hardLimit {
			c, err := tb.Client.TCP.Connect(p, n.ServerAddr, port, 0, 12*time.Second)
			if err != nil {
				break
			}
			sc, err := lis.Accept(p, 5*time.Second)
			if err != nil {
				c.Abort()
				break
			}
			// Pass a message over the new connection (and keep all
			// bindings fresh enough — their idle timeouts are minutes).
			if err := c.Write(p, []byte("m")); err != nil {
				c.Abort()
				sc.Abort()
				break
			}
			var buf [16]byte
			if _, err := sc.Read(p, buf[:], verdictGrace); err != nil {
				c.Abort()
				sc.Abort()
				break
			}
			conns = append(conns, c)
			srvConns = append(srvConns, sc)
			count++
		}
		for _, c := range conns {
			c.Abort()
		}
		for _, c := range srvConns {
			c.Abort()
		}
		return DeviceResult{Tag: n.Tag, Samples: []float64{float64(count)}}
	})
}
