package sim

import "testing"

// TestChanDrainLeavesNoValues: Drain clears only the head segment's
// live slots before keeping it as the spare, so the spare must still
// hold no values (nothing stays reachable through it), at every fill
// and read position around a segment boundary, and the channel must
// stay FIFO afterwards.
func TestChanDrainLeavesNoValues(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		for _, read := range []int{0, 1, 63} {
			s := New(1)
			c := NewChan[*int](s)
			for i := 0; i < read+n; i++ {
				v := i
				c.Send(&v)
			}
			for i := 0; i < read; i++ {
				if v, ok := c.TryRecv(); !ok || *v != i {
					t.Fatalf("n=%d read=%d: read %d got %v, %v", n, read, i, v, ok)
				}
			}
			if got := c.Drain(); got != n {
				t.Fatalf("n=%d read=%d: Drain dropped %d values", n, read, got)
			}
			sp := c.buf.spare
			if sp == nil {
				t.Fatalf("n=%d read=%d: no spare segment kept", n, read)
			}
			for j, v := range sp.vals {
				if v != nil {
					t.Errorf("n=%d read=%d: spare slot %d still holds %d", n, read, j, *v)
				}
			}
			if sp.next != nil {
				t.Errorf("n=%d read=%d: spare segment still links onward", n, read)
			}
			for i := 0; i < 150; i++ {
				v := i
				c.Send(&v)
			}
			for i := 0; i < 150; i++ {
				if v, ok := c.TryRecv(); !ok || *v != i {
					t.Fatalf("n=%d read=%d: after Drain, read %d got %v, %v", n, read, i, v, ok)
				}
			}
			if c.Len() != 0 {
				t.Errorf("n=%d read=%d: %d values left", n, read, c.Len())
			}
		}
	}
}
