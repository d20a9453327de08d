// Package simmpi is a virtual-time message-passing runtime: the MPI
// substrate the collective algorithms in internal/coll execute on.
//
// Each MPI rank is a goroutine with a private virtual clock in
// microseconds. Sends are eager: the sender is charged a small injection
// overhead and the message is stamped with its arrival time
// (sendClock + alpha + bytes/beta from the netmodel). A receive blocks
// until a matching message exists and advances the receiver's clock to
// max(ownClock, arrivalTime). This reproduces the latency/bandwidth
// timing of the classic Hockney model over arbitrary communication DAGs
// while still moving real bytes, so every collective algorithm is
// simultaneously timed and checked for correctness.
//
// Buffers may omit their backing bytes (timing-only mode) so large
// exhaustive benchmark sweeps do not pay for megabyte memcpy traffic;
// the virtual-time accounting is identical either way.
package simmpi

import (
	"fmt"
	"sync"

	"acclaim/internal/netmodel"
)

// Buf is a message buffer of logical length N bytes. Data is either nil
// (timing-only mode) or a slice of exactly N bytes. All collective
// algorithms are written against Buf so a single implementation serves
// both correctness tests (with data) and fast timing sweeps (without).
type Buf struct {
	N    int
	Data []byte
}

// MakeBuf returns a timing-only buffer of n bytes.
func MakeBuf(n int) Buf { return Buf{N: n} }

// BytesBuf wraps a concrete byte slice.
func BytesBuf(b []byte) Buf { return Buf{N: len(b), Data: b} }

// HasData reports whether the buffer carries real bytes.
func (b Buf) HasData() bool { return b.Data != nil }

// Slice returns the sub-buffer [lo, hi). It panics on out-of-range
// bounds, mirroring Go slice semantics.
func (b Buf) Slice(lo, hi int) Buf {
	if lo < 0 || hi < lo || hi > b.N {
		panic(fmt.Sprintf("simmpi: Slice[%d:%d] of %d-byte buffer", lo, hi, b.N))
	}
	if b.Data == nil {
		return Buf{N: hi - lo}
	}
	return Buf{N: hi - lo, Data: b.Data[lo:hi]}
}

// Clone returns a deep copy of the buffer.
func (b Buf) Clone() Buf {
	if b.Data == nil {
		return Buf{N: b.N}
	}
	d := make([]byte, b.N)
	copy(d, b.Data)
	return Buf{N: b.N, Data: d}
}

// Concat returns a new buffer holding b followed by c. The result
// carries data only if both operands do.
func (b Buf) Concat(c Buf) Buf {
	if b.Data == nil || c.Data == nil {
		return Buf{N: b.N + c.N}
	}
	d := make([]byte, 0, b.N+c.N)
	d = append(d, b.Data...)
	d = append(d, c.Data...)
	return Buf{N: b.N + c.N, Data: d}
}

// CopyInto writes src into b starting at offset off. Lengths must fit.
// Buffers without data ignore the byte copy but still validate bounds.
func (b Buf) CopyInto(off int, src Buf) {
	if off < 0 || off+src.N > b.N {
		panic(fmt.Sprintf("simmpi: CopyInto offset %d length %d into %d-byte buffer", off, src.N, b.N))
	}
	if b.Data != nil && src.Data != nil {
		copy(b.Data[off:off+src.N], src.Data)
	}
}

// Op is a reduction operator over bytes. All ops are associative and
// commutative, which is what MPI requires for reductions and what lets
// every reduction algorithm produce bit-identical results regardless of
// combining order.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota // bytewise sum modulo 256
	OpMax           // bytewise maximum
	OpXor           // bytewise exclusive or
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpXor:
		return "xor"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Combine folds src into dst elementwise: dst = dst (op) src. Both
// buffers must have equal length. Timing-only buffers skip the byte
// work.
func (op Op) Combine(dst, src Buf) {
	if dst.N != src.N {
		panic(fmt.Sprintf("simmpi: Combine of %d-byte and %d-byte buffers", dst.N, src.N))
	}
	if dst.Data == nil || src.Data == nil {
		return
	}
	switch op {
	case OpSum:
		for i := range dst.Data {
			dst.Data[i] += src.Data[i]
		}
	case OpMax:
		for i := range dst.Data {
			if src.Data[i] > dst.Data[i] {
				dst.Data[i] = src.Data[i]
			}
		}
	case OpXor:
		for i := range dst.Data {
			dst.Data[i] ^= src.Data[i]
		}
	default:
		panic(fmt.Sprintf("simmpi: unknown op %d", int(op)))
	}
}

// message is an in-flight transfer: one slot of its destination
// mailbox's slab, linked into the FIFO of its source. The payload
// bytes, when a run moves any, sit in the mailbox's parallel data
// slice, so a timing-only slab holds no pointers and spends 24 bytes
// per message.
type message struct {
	n       int     // logical length in bytes
	arrival float64 // virtual time at which the bytes are available
	next    int32   // slab index of the source's next message, or -1
}

// mailbox holds the pending messages of one rank. Each source rank has
// its own FIFO (MPI's non-overtaking guarantee), threaded through one
// slab of message slots: fifo[2*src] and fifo[2*src+1] are the slab
// indices of the source's oldest and newest message, -1 when it has
// none, and the slots no message occupies form a free list. A slot's
// payload reference is dropped the moment it is received, and the slab
// only grows, so once it has grown to a schedule's peak backlog, sends
// and receives allocate nothing. The backlog is all the slab holds: a
// scattered alltoall on 256 ranks peaks at 255 messages per mailbox,
// 6 KB of slots.
//
// Only the owning rank receives, so at most one goroutine ever waits
// here, and it waits for one particular source: a put wakes it only
// when the message comes from that source.
type mailbox struct {
	mu      sync.Mutex
	wake    sync.Cond // L is &mu; signalled only for the awaited source
	fifo    []int32   // guarded by mu
	slab    []message // guarded by mu
	data    [][]byte  // guarded by mu: payload of slab slot i, or nil; empty until a payload arrives
	free    int32     // guarded by mu: first free slab slot, or -1
	live    int       // guarded by mu: messages not yet received
	waiting int       // guarded by mu: source the owner is blocked on, or -1
	aborted bool      // guarded by mu: a rank of the run panicked
}

// init prepares an empty mailbox for worlds of up to n ranks.
func (mb *mailbox) init(n int) {
	mb.wake.L = &mb.mu
	mb.mu.Lock()
	mb.fifo = make([]int32, 2*n)
	for i := range mb.fifo {
		mb.fifo[i] = -1
	}
	mb.free = -1
	mb.waiting = -1
	mb.mu.Unlock()
}

// put appends a message to src's FIFO and wakes the owner if it is
// blocked on src.
//
//acclaim:zeroalloc
func (mb *mailbox) put(src int, buf Buf, arrival float64) {
	mb.mu.Lock()
	if mb.free < 0 {
		mb.grow()
	}
	i := mb.free
	m := &mb.slab[i]
	mb.free = m.next
	m.n, m.arrival, m.next = buf.N, arrival, -1
	if buf.Data != nil {
		if len(mb.data) < len(mb.slab) {
			mb.holdData()
		}
		mb.data[i] = buf.Data
	}
	if tail := mb.fifo[2*src+1]; tail >= 0 {
		mb.slab[tail].next = i
	} else {
		mb.fifo[2*src] = i
	}
	mb.fifo[2*src+1] = i
	mb.live++
	wake := mb.waiting == src
	if wake {
		mb.waiting = -1
	}
	mb.mu.Unlock()
	if wake {
		mb.wake.Signal()
	}
}

// grow extends the slab to its capacity after appending one slot, and
// threads the new slots onto the free list.
//
//acclaim:allow lockcheck only put calls it, with mu held
func (mb *mailbox) grow() {
	old := len(mb.slab)
	mb.slab = append(mb.slab, message{})
	mb.slab = mb.slab[:cap(mb.slab)]
	for i := len(mb.slab) - 1; i >= old; i-- {
		mb.slab[i].next = mb.free
		mb.free = int32(i)
	}
}

// holdData extends the payload slice to cover every slab slot.
//
//acclaim:allow lockcheck only put calls it, with mu held
func (mb *mailbox) holdData() {
	mb.data = append(mb.data, make([][]byte, len(mb.slab)-len(mb.data))...)
}

// take removes and returns the oldest message from src, blocking until
// one arrives. It reports false, without a message, once the run has
// aborted and src's FIFO is empty: the message may never come.
//
//acclaim:zeroalloc
func (mb *mailbox) take(src int) (buf Buf, arrival float64, ok bool) {
	mb.mu.Lock()
	for mb.fifo[2*src] < 0 {
		if mb.aborted {
			mb.mu.Unlock()
			return buf, 0, false
		}
		mb.waiting = src
		mb.wake.Wait()
	}
	i := mb.fifo[2*src]
	m := &mb.slab[i]
	buf.N, arrival = m.n, m.arrival
	if int(i) < len(mb.data) {
		buf.Data, mb.data[i] = mb.data[i], nil
	}
	mb.fifo[2*src] = m.next
	if m.next < 0 {
		mb.fifo[2*src+1] = -1
	}
	m.next = mb.free
	mb.free = i
	mb.live--
	mb.mu.Unlock()
	return buf, arrival, true
}

// abort marks the run failed and wakes the owner if it is blocked.
func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.aborted = true
	wake := mb.waiting >= 0
	mb.waiting = -1
	mb.mu.Unlock()
	if wake {
		mb.wake.Signal()
	}
}

// reset empties the mailbox for the next run, dropping the payloads of
// messages a failed (or receive-less) run left undelivered.
func (mb *mailbox) reset() {
	mb.mu.Lock()
	if mb.live > 0 {
		for i := range mb.fifo {
			mb.fifo[i] = -1
		}
		mb.free = -1
		for i := len(mb.slab) - 1; i >= 0; i-- {
			mb.slab[i].next = mb.free
			mb.free = int32(i)
		}
		clear(mb.data)
		mb.live = 0
	}
	mb.aborted = false
	mb.waiting = -1
	mb.mu.Unlock()
}

// abortRun is the panic value that unwinds a rank blocked on a peer
// after another rank of the run panicked.
type abortRun struct{}

// world is one job's communication universe: the network model plus a
// mailbox and a Comm per rank. Worlds are recycled across Runs (see
// spare); the mailbox and Comm slices keep the capacity of the largest
// run a world has hosted, and len is the current run's rank count.
type world struct {
	model *netmodel.Model
	mail  []mailbox
	comms []Comm

	mu  sync.Mutex
	err error // guarded by mu: the first rank panic of the run
}

// spare is the one world kept between Runs: the largest released one.
// Concurrent Runs (benchmark waves) that find it taken or too small
// build their own, so at most one idle world is ever retained.
var spare struct {
	mu sync.Mutex
	w  *world // guarded by mu
}

// acquireWorld returns an empty world for the model's ranks, reusing
// the spare when it is large enough.
func acquireWorld(model *netmodel.Model) *world {
	n := model.Ranks()
	spare.mu.Lock()
	w := spare.w
	if w != nil && cap(w.mail) >= n {
		spare.w = nil
	} else {
		w = nil
	}
	spare.mu.Unlock()
	if w == nil {
		w = &world{mail: make([]mailbox, n), comms: make([]Comm, n)}
		for i := range w.mail {
			w.mail[i].init(n)
		}
	}
	w.model = model
	w.mail = w.mail[:n]
	w.comms = w.comms[:n]
	for r := range w.comms {
		w.comms[r] = Comm{w: w, rank: r}
	}
	return w
}

// releaseWorld empties a finished world, dropping every payload and
// model reference, and keeps it as the spare if it is the largest.
func releaseWorld(w *world) {
	for i := range w.mail {
		w.mail[i].reset()
	}
	w.model = nil
	w.mu.Lock()
	w.err = nil
	w.mu.Unlock()
	spare.mu.Lock()
	if spare.w == nil || cap(spare.w.mail) < cap(w.mail) {
		spare.w = w
	}
	spare.mu.Unlock()
}

// runRank executes fn on one rank, turning a panic (or a Goexit) into
// the run's failure.
func (w *world) runRank(c *Comm, fn func(*Comm)) {
	returned := false
	defer func() {
		if !returned {
			w.fail(c.rank, recover())
		}
	}()
	fn(c)
	returned = true
}

// fail records the first failure of the run and aborts every mailbox,
// so ranks blocked on the failed one unwind instead of waiting forever.
// Ranks unwound that way are not failures of their own.
func (w *world) fail(rank int, p any) {
	if _, ok := p.(abortRun); ok {
		return
	}
	err := fmt.Errorf("simmpi: rank %d panicked: %v", rank, p)
	if p == nil {
		err = fmt.Errorf("simmpi: rank %d exited without returning", rank)
	}
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	w.mu.Unlock()
	if first {
		for i := range w.mail {
			w.mail[i].abort()
		}
	}
}

// Comm is one rank's handle on the world; the analogue of an MPI
// communicator bound to a rank. A Comm is confined to its rank's
// goroutine and must not be shared or kept after its Run returns.
type Comm struct {
	w     *world
	rank  int
	clock float64
	sent  int // messages sent, for diagnostics
	recvd int // messages received, for diagnostics
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return len(c.w.mail) }

// Clock returns the rank's current virtual time in microseconds.
func (c *Comm) Clock() float64 { return c.clock }

// Model exposes the underlying network model (read-only).
func (c *Comm) Model() *netmodel.Model { return c.w.model }

// Stats returns the number of messages this rank sent and received.
func (c *Comm) Stats() (sent, received int) { return c.sent, c.recvd }

// Compute advances the rank's clock by us microseconds of local work
// (reduction arithmetic, packing). Negative durations panic.
func (c *Comm) Compute(us float64) {
	if us < 0 {
		panic("simmpi: negative compute time")
	}
	c.clock += us
}

// Send transmits buf to rank dst. It is eager: the sender pays only the
// injection overhead and continues; the message arrives at
// clock + transfer(from, to, bytes). Sending to oneself panics — the
// collective algorithms never do it, so it always indicates a bug.
func (c *Comm) Send(dst int, buf Buf) {
	if dst == c.rank {
		panic(fmt.Sprintf("simmpi: rank %d sending to itself", c.rank))
	}
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("simmpi: send to rank %d of %d", dst, c.Size()))
	}
	c.clock += c.w.model.SendOverhead()
	arrival := c.clock + c.w.model.Transfer(c.rank, dst, buf.N)
	// Clone data so sender reuse of the buffer cannot race the receiver.
	c.w.mail[dst].put(c.rank, buf.Clone(), arrival)
	c.sent++
}

// Recv blocks until a message from src is available, advances the clock
// to the message's arrival time, and returns the payload. If another
// rank of the run panics while src's message is outstanding, Recv
// unwinds the calling rank instead of waiting forever.
func (c *Comm) Recv(src int) Buf {
	if src == c.rank {
		panic(fmt.Sprintf("simmpi: rank %d receiving from itself", c.rank))
	}
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("simmpi: recv from rank %d of %d", src, c.Size()))
	}
	buf, arrival, ok := c.w.mail[c.rank].take(src)
	if !ok {
		panic(abortRun{})
	}
	if arrival > c.clock {
		c.clock = arrival
	}
	c.recvd++
	return buf
}

// Sendrecv sends sbuf to dst and receives from src, modelling a
// full-duplex exchange (both directions overlap, as in MPI_Sendrecv on a
// bidirectional link).
func (c *Comm) Sendrecv(dst int, sbuf Buf, src int) Buf {
	c.Send(dst, sbuf)
	return c.Recv(src)
}

// Result summarises one collective execution across all ranks.
type Result struct {
	MaxClock float64   // completion time: the slowest rank's final clock
	Clocks   []float64 // per-rank final clocks
	Sent     int       // total messages sent
}

// Run executes fn once per rank, each on its own goroutine with a fresh
// Comm starting at clock 0, and waits for all to finish. A panic in any
// rank is recovered and returned as an error naming the first rank
// that panicked; ranks blocked in Recv at that point are unwound, so
// the run still terminates.
//
// No rank ever receives from "any source", so the ranks form a
// deterministic process network: each final clock depends only on the
// per-(source, destination) FIFO order, never on how the host schedules
// the goroutines, and the result is bit-identical from run to run.
func Run(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	w := acquireWorld(model)
	defer releaseWorld(w)
	var wg sync.WaitGroup
	wg.Add(len(w.comms))
	for r := range w.comms {
		c := &w.comms[r]
		go func() { // with Result.Clocks, the only allocations of a steady-state run
			defer wg.Done()
			w.runRank(c, fn)
		}()
	}
	wg.Wait()
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	res := Result{Clocks: make([]float64, len(w.comms))}
	for r, c := range w.comms {
		res.Clocks[r] = c.clock
		res.Sent += c.sent
		if c.clock > res.MaxClock {
			res.MaxClock = c.clock
		}
	}
	return res, nil
}
