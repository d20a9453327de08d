package simmpi

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"acclaim/internal/cluster"
	"acclaim/internal/netmodel"
)

func testModel(t testing.TB, nodes, ppn int) *netmodel.Model {
	t.Helper()
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBufBasics(t *testing.T) {
	b := BytesBuf([]byte{1, 2, 3, 4})
	if !b.HasData() || b.N != 4 {
		t.Fatal("BytesBuf wrong")
	}
	s := b.Slice(1, 3)
	if s.N != 2 || s.Data[0] != 2 || s.Data[1] != 3 {
		t.Errorf("Slice = %+v", s)
	}
	tb := MakeBuf(10)
	if tb.HasData() || tb.N != 10 {
		t.Fatal("MakeBuf wrong")
	}
	if ts := tb.Slice(2, 7); ts.N != 5 || ts.HasData() {
		t.Errorf("timing Slice = %+v", ts)
	}
}

func TestBufClone(t *testing.T) {
	b := BytesBuf([]byte{1, 2})
	c := b.Clone()
	c.Data[0] = 99
	if b.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
	if tc := MakeBuf(5).Clone(); tc.HasData() || tc.N != 5 {
		t.Error("timing Clone wrong")
	}
}

func TestBufConcat(t *testing.T) {
	a := BytesBuf([]byte{1, 2})
	b := BytesBuf([]byte{3})
	c := a.Concat(b)
	if c.N != 3 || c.Data[2] != 3 {
		t.Errorf("Concat = %+v", c)
	}
	// Mixed data/timing concat degrades to timing-only.
	m := a.Concat(MakeBuf(4))
	if m.N != 6 || m.HasData() {
		t.Errorf("mixed Concat = %+v", m)
	}
}

func TestBufCopyInto(t *testing.T) {
	dst := BytesBuf(make([]byte, 4))
	dst.CopyInto(1, BytesBuf([]byte{7, 8}))
	if dst.Data[1] != 7 || dst.Data[2] != 8 {
		t.Errorf("CopyInto = %v", dst.Data)
	}
	// Bounds are validated even in timing mode.
	defer func() {
		if recover() == nil {
			t.Error("out-of-range CopyInto should panic")
		}
	}()
	MakeBuf(2).CopyInto(1, MakeBuf(5))
}

func TestBufSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad Slice should panic")
		}
	}()
	MakeBuf(3).Slice(2, 5)
}

func TestOpCombine(t *testing.T) {
	sum := BytesBuf([]byte{250, 1})
	OpSum.Combine(sum, BytesBuf([]byte{10, 2}))
	if sum.Data[0] != 4 || sum.Data[1] != 3 { // 250+10 mod 256 = 4
		t.Errorf("OpSum = %v", sum.Data)
	}
	max := BytesBuf([]byte{5, 9})
	OpMax.Combine(max, BytesBuf([]byte{7, 3}))
	if max.Data[0] != 7 || max.Data[1] != 9 {
		t.Errorf("OpMax = %v", max.Data)
	}
	xor := BytesBuf([]byte{0xFF})
	OpXor.Combine(xor, BytesBuf([]byte{0x0F}))
	if xor.Data[0] != 0xF0 {
		t.Errorf("OpXor = %v", xor.Data)
	}
}

// Property: all ops are commutative and associative on random buffers.
func TestOpProperties(t *testing.T) {
	for _, op := range []Op{OpSum, OpMax, OpXor} {
		op := op
		f := func(a, b, c []byte) bool {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			if len(c) < n {
				n = len(c)
			}
			a, b, c = a[:n], b[:n], c[:n]
			// (a op b) op c == a op (b op c), and a op b == b op a.
			ab := BytesBuf(append([]byte(nil), a...))
			op.Combine(ab, BytesBuf(b))
			ba := BytesBuf(append([]byte(nil), b...))
			op.Combine(ba, BytesBuf(a))
			for i := 0; i < n; i++ {
				if ab.Data[i] != ba.Data[i] {
					return false
				}
			}
			abc1 := BytesBuf(append([]byte(nil), ab.Data...))
			op.Combine(abc1, BytesBuf(c))
			bc := BytesBuf(append([]byte(nil), b...))
			op.Combine(bc, BytesBuf(c))
			abc2 := BytesBuf(append([]byte(nil), a...))
			op.Combine(abc2, bc)
			for i := 0; i < n; i++ {
				if abc1.Data[i] != abc2.Data[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("op %v: %v", op, err)
		}
	}
}

func TestPingPongTiming(t *testing.T) {
	model := testModel(t, 2, 1) // ranks 0 and 1 on different nodes, same rack
	const bytes = 1024
	res, err := Run(model, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, MakeBuf(bytes))
			c.Recv(1)
		case 1:
			b := c.Recv(0)
			if b.N != bytes {
				panic("wrong size")
			}
			c.Send(0, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected round trip: 2 * (overhead + alpha + bytes/bw).
	p := netmodel.DefaultParams()
	oneWay := p.SendOverhead + p.Latency[netmodel.IntraRack] + bytes/p.Bandwidth[netmodel.IntraRack]
	want := 2 * oneWay
	if math.Abs(res.MaxClock-want) > 1e-9 {
		t.Errorf("round trip = %v, want %v", res.MaxClock, want)
	}
	if res.Sent != 2 {
		t.Errorf("Sent = %d, want 2", res.Sent)
	}
}

func TestRecvWaitsForArrival(t *testing.T) {
	model := testModel(t, 2, 1)
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(1000) // sender is busy first
			c.Send(1, MakeBuf(8))
		} else {
			b := c.Recv(0)
			_ = b
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver must not finish before 1000us + transfer.
	if res.Clocks[1] < 1000 {
		t.Errorf("receiver clock %v ignores sender compute", res.Clocks[1])
	}
}

func TestRecvDoesNotWaitIfAlreadyLater(t *testing.T) {
	model := testModel(t, 2, 1)
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, MakeBuf(8))
		} else {
			c.Compute(5000)
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver clock should be exactly 5000: message already arrived.
	if res.Clocks[1] != 5000 {
		t.Errorf("receiver clock = %v, want 5000", res.Clocks[1])
	}
}

func TestFIFOPerSource(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, BytesBuf([]byte{1}))
			c.Send(1, BytesBuf([]byte{2}))
			c.Send(1, BytesBuf([]byte{3}))
		} else {
			for want := byte(1); want <= 3; want++ {
				b := c.Recv(0)
				if b.Data[0] != want {
					panic("out of order delivery")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataIsolation(t *testing.T) {
	// Sender mutating its buffer after Send must not corrupt delivery.
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			buf := BytesBuf([]byte{42})
			c.Send(1, buf)
			buf.Data[0] = 0
		} else {
			if b := c.Recv(0); b.Data[0] != 42 {
				panic("send did not isolate data")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	model := testModel(t, 2, 1)
	res, err := Run(model, func(c *Comm) {
		peer := 1 - c.Rank()
		got := c.Sendrecv(peer, BytesBuf([]byte{byte(c.Rank())}), peer)
		if got.Data[0] != byte(peer) {
			panic("wrong exchange payload")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full duplex: both ranks finish at overhead + transfer, not 2x.
	p := netmodel.DefaultParams()
	want := p.SendOverhead + p.Latency[netmodel.IntraRack] + 1/p.Bandwidth[netmodel.IntraRack]
	if math.Abs(res.MaxClock-want) > 1e-9 {
		t.Errorf("sendrecv time = %v, want %v", res.MaxClock, want)
	}
}

func TestIntraNodeFasterThanNetwork(t *testing.T) {
	model := testModel(t, 2, 2) // ranks 0,1 node 0; ranks 2,3 node 1
	timeBetween := func(a, b int) float64 {
		res, err := Run(model, func(c *Comm) {
			if c.Rank() == a {
				c.Send(b, MakeBuf(4096))
			} else if c.Rank() == b {
				c.Recv(a)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxClock
	}
	if ti, tn := timeBetween(0, 1), timeBetween(0, 2); ti >= tn {
		t.Errorf("intra-node %v not faster than network %v", ti, tn)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 must not deadlock: it does no communication.
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestSelfSendPanics(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(0, MakeBuf(1))
		}
	})
	if err == nil {
		t.Fatal("self-send should be reported as an error")
	}
}

func TestComputeNegativePanics(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(-1)
		}
	})
	if err == nil {
		t.Fatal("negative compute should be reported as an error")
	}
}

func TestStats(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, MakeBuf(1))
			c.Send(1, MakeBuf(1))
			s, r := c.Stats()
			if s != 2 || r != 0 {
				panic("sender stats wrong")
			}
		} else {
			c.Recv(0)
			c.Recv(0)
			s, r := c.Stats()
			if s != 0 || r != 2 {
				panic("receiver stats wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksFanIn(t *testing.T) {
	// 8 nodes x 4 ppn = 32 ranks all send to rank 0.
	model := testModel(t, 8, 4)
	n := model.Ranks()
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			total := byte(0)
			for src := 1; src < n; src++ {
				b := c.Recv(src)
				total += b.Data[0]
			}
			if total != byte(n*(n-1)/2) {
				panic("fan-in sum wrong")
			}
		} else {
			c.Send(0, BytesBuf([]byte{byte(c.Rank())}))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n-1 {
		t.Errorf("Sent = %d, want %d", res.Sent, n-1)
	}
}

// runWithin runs fn on the model and fails the test if Run has not
// returned after d: the bugs these tests pin are hangs.
func runWithin(t *testing.T, d time.Duration, model *netmodel.Model, fn func(*Comm)) (Result, error) {
	t.Helper()
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(model, fn)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("Run did not return within %v", d)
		return Result{}, nil
	}
}

// TestRunPanicWhileWaited: a rank blocked in Recv on a rank that
// panics must be unwound, and Run must report the panicking rank, not
// the unwound waiter.
func TestRunPanicWhileWaited(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := runWithin(t, 10*time.Second, model, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Recv(1)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked: boom") {
		t.Fatalf("err = %v, want rank 1's panic", err)
	}
}

// TestRunPanicWhileWaitedAfterPartialSend: the panicking rank has
// already sent some of its messages. They are still delivered; the
// receive that can never be matched unwinds. Every other rank waits on
// its left neighbour, so the abort has to reach a chain of blocked
// receivers.
func TestRunPanicWhileWaitedAfterPartialSend(t *testing.T) {
	model := testModel(t, 4, 2)
	n := model.Ranks()
	const culprit = 5
	delivered := make([]int, n)
	_, err := runWithin(t, 10*time.Second, model, func(c *Comm) {
		r := c.Rank()
		if r == culprit {
			c.Send(0, BytesBuf([]byte{1}))
			c.Send(0, BytesBuf([]byte{2}))
			panic("mid-send")
		}
		if r == 0 {
			for i := 0; i < 3; i++ { // the third never comes
				c.Recv(culprit)
				delivered[r]++
			}
			return
		}
		c.Recv((r + n - 1) % n) // nobody ever sends these
		delivered[r]++
	})
	if err == nil || !strings.Contains(err.Error(), "rank 5 panicked: mid-send") {
		t.Fatalf("err = %v, want rank 5's panic", err)
	}
	if delivered[0] != 2 {
		t.Errorf("rank 0 received %d messages before the abort, want 2", delivered[0])
	}
	for r := 1; r < n; r++ {
		if delivered[r] != 0 {
			t.Errorf("rank %d received %d messages, want 0", r, delivered[r])
		}
	}
}

// TestRunGoexitWhileWaited: a rank that leaves through runtime.Goexit
// (t.FailNow inside a rank) fails the run like a panic does.
func TestRunGoexitWhileWaited(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := runWithin(t, 10*time.Second, model, func(c *Comm) {
		if c.Rank() == 0 {
			runtime.Goexit()
		}
		c.Recv(0)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 exited without returning") {
		t.Fatalf("err = %v, want rank 0's exit", err)
	}
}

// TestReleaseDropsUndeliveredPayloads: the spare world a failed run
// leaves behind holds no payload, and its mailboxes are empty.
func TestReleaseDropsUndeliveredPayloads(t *testing.T) {
	model := testModel(t, 3, 1)
	_, err := Run(model, func(c *Comm) {
		for dst := 0; dst < c.Size(); dst++ {
			if dst != c.Rank() {
				c.Send(dst, BytesBuf(make([]byte, 64)))
			}
		}
		if c.Rank() == 2 {
			panic("leave them undelivered")
		}
		c.Recv(2)
		c.Recv(2)
	})
	if err == nil {
		t.Fatal("expected the panic to fail the run")
	}
	spare.mu.Lock()
	w := spare.w
	spare.mu.Unlock()
	if w == nil {
		t.Fatal("no spare world after Run")
	}
	if w.model != nil {
		t.Error("spare world still references the model")
	}
	for r := range w.mail {
		mb := &w.mail[r]
		mb.mu.Lock()
		if mb.live != 0 || mb.aborted || mb.waiting != -1 {
			t.Errorf("mailbox %d: live=%d aborted=%v waiting=%d", r, mb.live, mb.aborted, mb.waiting)
		}
		for i, d := range mb.data {
			if d != nil {
				t.Errorf("mailbox %d slot %d still holds a payload", r, i)
			}
		}
		for i, f := range mb.fifo {
			if f != -1 {
				t.Errorf("mailbox %d fifo[%d] = %d, want -1", r, i, f)
			}
		}
		mb.mu.Unlock()
	}
	// The next run on the recycled world is unaffected.
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, MakeBuf(8))
		} else if c.Rank() == 1 {
			c.Recv(0)
		}
	})
	if err != nil || res.Sent != 1 {
		t.Fatalf("run after release: %+v, %v", res, err)
	}
}

// TestMailboxSteadyStateZeroAlloc is the runtime gate behind put's and
// take's zeroalloc annotations: once the slab has grown, a send and a
// receive allocate nothing.
func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	var mb mailbox
	mb.init(4)
	for i := 0; i < 8; i++ {
		mb.put(i%3, MakeBuf(8), float64(i))
	}
	for i := 0; i < 8; i++ {
		mb.take(i % 3)
	}
	allocs := testing.AllocsPerRun(100, func() {
		mb.put(1, MakeBuf(8), 1)
		mb.put(3, MakeBuf(8), 2)
		mb.take(3)
		mb.take(1)
	})
	if allocs != 0 {
		t.Errorf("steady-state put/take allocates %v times", allocs)
	}
}

// TestMailboxFIFOInterleaved: per-source order survives interleaved
// sources and slot reuse through the free list.
func TestMailboxFIFOInterleaved(t *testing.T) {
	var mb mailbox
	mb.init(3)
	rng := rand.New(rand.NewSource(1))
	var sent, recvd [3]float64
	for step := 0; step < 2000; step++ {
		src := rng.Intn(3)
		if rng.Intn(2) == 0 || recvd[src] == sent[src] {
			mb.put(src, MakeBuf(0), sent[src])
			sent[src]++
			continue
		}
		_, got, ok := mb.take(src)
		if !ok || got != recvd[src] {
			t.Fatalf("step %d: take(%d) = %v, %v; want %v", step, src, got, ok, recvd[src])
		}
		recvd[src]++
	}
}
