// Package sim provides the discrete-event simulation engine used by every
// component of the host-network simulator.
//
// Time is an integer count of picoseconds, which keeps all timing algebra
// exact: DRAM burst durations, PCIe serialization delays, and mode-switch
// penalties compose without floating-point drift. Events fire in (time, seq)
// order, so two events scheduled for the same instant run in scheduling
// order, making whole-simulation runs fully deterministic for a given seed.
//
// The engine is allocation-free in steady state. Almost every delay in the
// host network is a small fixed constant (link and line periods, tCL, the
// CHA and memory-controller hops, all under 150 ns), so pending events
// cluster in the next few hundred nanoseconds, and the scheduling structure
// is a near-future calendar queue backed by a heap for the rest:
//
//   - a same-instant FIFO ring for events scheduled at exactly the current
//     time (a large fraction of all pushes: completions that immediately
//     kick a scheduler). Within one instant, seq order is insertion order,
//     so these need no ordering work at all;
//   - a timing wheel of 256 buckets, 1024 ps each, covering the ~262 ns
//     after the current bucket. A bucket is an intrusive doubly-linked list
//     of slot ids kept sorted by (at, seq), and a 256-bit occupancy bitmap
//     finds the first non-empty bucket in a few word scans;
//   - a flat, pointer-free 4-ary min-heap of (at, seq, slot) nodes for
//     events beyond the wheel's horizon when scheduled: samplers, hostcc
//     ticks, fault windows. An event never migrates from the heap to the
//     wheel; the next event is the earliest of the FIFO head, the wheel's
//     first bucket and the heap root;
//   - a side slot table carrying each event's (fn, arg) pair, indexed by
//     slot id, with a LIFO free list.
//
// The slot indirection also gives the engine true decrease-key: a Waker that
// wants an earlier callback reschedules its existing event in place instead
// of pushing a superseding duplicate and letting the stale one fire as a
// no-op. The AtFunc/AfterFunc path carries callbacks as a (func(arg any),
// arg) pair so hot components schedule with a long-lived handler plus a
// pooled or already-allocated argument instead of a fresh closure. At/After
// remain as thin wrappers for cold call sites.
//
// # Snapshots
//
// Engine.Snapshot captures the full scheduling state — clock, sequence
// counter, heap and wheel events, FIFO, slot table — plus the state of every
// registered Stateful component, and Engine.Restore writes it back in place
// so the same object graph resumes from the captured instant. Because
// restore is in-place, event callbacks (bound methods, closures) stay valid:
// they point at the same components, whose state has been rewound. Event
// arguments that themselves carry mutable state (an in-flight request, a
// pooled completion record) implement Stateful and are captured by walking
// the live slots.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with a unit chosen by magnitude.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	}
}

// EventFunc is an event callback. The argument is whatever was passed to
// AtFunc/AfterFunc, letting a single long-lived function value serve every
// scheduling of a component's handler (bound method values, package-level
// dispatchers) with the per-event state carried in arg.
type EventFunc func(arg any)

// Stateful is the save/load contract every stateful component implements to
// participate in engine snapshots. SaveState returns an opaque deep copy of
// the component's mutable state; LoadState writes that copy back into the
// same component. Components register at construction via Engine.Register;
// event arguments (requests, pooled completion records) implement Stateful
// without registering — the engine captures them by walking live events.
type Stateful interface {
	SaveState() any
	LoadState(state any)
}

// node is one heap entry: pointer-free so sifts never incur GC write
// barriers. slot indexes the engine's side table holding (fn, arg).
type node struct {
	at   Time
	seq  uint64
	slot int32
}

// eslot carries an event's callback and argument, referenced by slot id.
type eslot struct {
	fn  EventFunc
	arg any
}

// fent is one same-instant FIFO entry; its timestamp is the engine's clock.
type fent struct {
	seq  uint64
	slot int32
}

// wnode is a wheel resident's key and its neighbours in the bucket's
// (at, seq)-sorted list (-1 at either end), indexed by slot id.
type wnode struct {
	at         Time
	seq        uint64
	prev, next int32
}

// Wheel geometry: wheelBuckets buckets of 2^wheelShift ps. An event goes to
// the wheel when its bucket number (at >> wheelShift) is less than
// wheelBuckets past the current one, now >> wheelShift. Every resident is
// at or after now, so the residents' bucket numbers span fewer than
// wheelBuckets consecutive values and the ring scan from now's bucket meets
// them in time order.
const (
	wheelShift   = 10
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
)

// pos sentinels for slots not resident in the heap.
const (
	posFIFO  int32 = -1 // slot queued in the same-instant FIFO
	posFree  int32 = -2 // slot on the free list
	posWheel int32 = -3 // slot linked into a wheel bucket
)

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. Engines are not safe for concurrent use;
// the simulator is deliberately single-threaded so that runs are reproducible.
type Engine struct {
	now  Time
	seq  uint64
	nRun uint64

	nodes  []node  // flat 4-ary min-heap ordered by (at, seq): beyond the wheel
	slots  []eslot // slot id -> (fn, arg)
	free   []int32 // LIFO free list of slot ids
	pos    []int32 // slot id -> heap index, posFIFO, posWheel, or posFree
	wnodes []wnode // slot id -> wheel key and links, valid while posWheel

	// Timing wheel. whead/wtail of bucket b are meaningful only while bit b
	// of wbits is set; wlen counts the residents.
	whead, wtail [wheelBuckets]int32
	wbits        [wheelWords]uint64
	wlen         int

	// Same-instant FIFO: events scheduled at exactly the current time, in
	// insertion (= seq) order. The FIFO always drains before the clock
	// advances, so every entry's timestamp is now.
	fifo     []fent // power-of-two ring
	fifoHead int
	fifoLen  int

	// Event-cadence hook (see SetEventHook). hook == nil is the common case
	// and costs runOne a single untaken branch.
	hook      func()
	hookEvery uint64
	hookLeft  uint64

	// regs holds every registered Stateful in registration order; snapshots
	// save and restore them positionally, so construction order (which is
	// deterministic) defines the layout.
	regs []Stateful
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pending reports the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.nodes) + e.wlen + e.fifoLen }

// Register adds a Stateful component to the engine's snapshot set.
// Registration order must be deterministic (it is, when components are
// constructed in program order) because snapshots restore positionally.
func (e *Engine) Register(s Stateful) { e.regs = append(e.regs, s) }

// The heap is 4-ary: children of node i are 4i+1..4i+4, parent (i-1)/4.
// Compared to a binary heap this halves tree depth (fewer cache lines per
// sift) at the cost of up to three extra comparisons per level. Since (at,
// seq) is a strict total order (seq is unique), every valid min-heap pops
// in the same sequence, so the layout cannot perturb simulation results.

// nodeLess orders nodes by (at, seq).
func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves the node at index i toward the root until its parent is not
// after it, keeping pos in sync.
func (e *Engine) siftUp(i int) {
	h, pos := e.nodes, e.pos
	nd := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if nodeLess(&h[p], &nd) {
			break
		}
		h[i] = h[p]
		pos[h[i].slot] = int32(i)
		i = p
	}
	h[i] = nd
	pos[nd.slot] = int32(i)
}

// siftDown moves the node at index i toward the leaves until no child is
// before it, keeping pos in sync.
func (e *Engine) siftDown(i int) {
	h, pos := e.nodes, e.pos
	n := len(h)
	nd := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for cc := c + 1; cc < n && cc < c+4; cc++ {
			if nodeLess(&h[cc], &h[m]) {
				m = cc
			}
		}
		if nodeLess(&nd, &h[m]) {
			break
		}
		h[i] = h[m]
		pos[h[i].slot] = int32(i)
		i = m
	}
	h[i] = nd
	pos[nd.slot] = int32(i)
}

// heapRemove deletes the node at index i, preserving the heap invariant.
func (e *Engine) heapRemove(i int) {
	h := e.nodes
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		e.pos[h[i].slot] = int32(i)
	}
	e.nodes = h[:n]
	if i < n {
		e.siftUp(i)
		e.siftDown(int(e.pos[h[i].slot]))
	}
}

// wless orders wheel residents by (at, seq).
func wless(a, b *wnode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheelInsert links slot s into its bucket at its (at, seq) position.
func (e *Engine) wheelInsert(s int32, at Time, seq uint64) {
	b := int(at>>wheelShift) & wheelMask
	e.pos[s] = posWheel
	e.wlen++
	w := e.wnodes
	n := &w[s]
	n.at, n.seq = at, seq
	if e.wbits[b>>6]&(1<<(b&63)) == 0 {
		e.wbits[b>>6] |= 1 << (b & 63)
		n.prev, n.next = -1, -1
		e.whead[b], e.wtail[b] = s, s
		return
	}
	// Walk back from the tail: a new event carries the newest seq, so it
	// sorts last unless an earlier timestamp in the same bucket follows it.
	p := e.wtail[b]
	for p >= 0 && wless(n, &w[p]) {
		p = w[p].prev
	}
	n.prev = p
	if p < 0 {
		n.next = e.whead[b]
		e.whead[b] = s
	} else {
		n.next = w[p].next
		w[p].next = s
	}
	if n.next < 0 {
		e.wtail[b] = s
	} else {
		w[n.next].prev = s
	}
}

// wheelUnlink removes slot s from its bucket. The caller resets pos[s].
func (e *Engine) wheelUnlink(s int32) {
	w := e.wnodes
	n := &w[s]
	b := int(n.at>>wheelShift) & wheelMask
	if n.prev < 0 {
		e.whead[b] = n.next
	} else {
		w[n.prev].next = n.next
	}
	if n.next < 0 {
		e.wtail[b] = n.prev
	} else {
		w[n.next].prev = n.prev
	}
	if n.prev < 0 && n.next < 0 {
		e.wbits[b>>6] &^= 1 << (b & 63)
	}
	e.wlen--
}

// wheelFirst returns the first non-empty bucket at or after now's, in ring
// order; the wheel must be non-empty. The last probe revisits now's own
// word in full, reaching the buckets that wrapped around the ring.
func (e *Engine) wheelFirst() int {
	c := int(e.now>>wheelShift) & wheelMask
	w := c >> 6
	if m := e.wbits[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	for i := 1; i <= wheelWords; i++ {
		wi := (w + i) & (wheelWords - 1)
		if m := e.wbits[wi]; m != 0 {
			return wi<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: wheel count and bitmap disagree")
}

// wheelPopHead unlinks and returns the first resident of bucket b: the
// once-per-event case of wheelUnlink, without its neighbour checks.
func (e *Engine) wheelPopHead(b int) int32 {
	s := e.whead[b]
	if nx := e.wnodes[s].next; nx < 0 {
		e.wbits[b>>6] &^= 1 << (b & 63)
	} else {
		e.whead[b] = nx
		e.wnodes[nx].prev = -1
	}
	e.wlen--
	return s
}

// alloc claims a slot for (fn, arg), reusing the free list.
func (e *Engine) alloc(fn EventFunc, arg any) int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[s] = eslot{fn: fn, arg: arg}
		return s
	}
	e.slots = append(e.slots, eslot{fn: fn, arg: arg})
	e.pos = append(e.pos, posFree)
	e.wnodes = append(e.wnodes, wnode{})
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list, dropping fn/arg for the GC.
func (e *Engine) release(s int32) {
	e.slots[s] = eslot{}
	e.pos[s] = posFree
	e.free = append(e.free, s)
}

// fifoPush appends a slot to the same-instant ring.
func (e *Engine) fifoPush(seq uint64, slot int32) {
	if e.fifoLen == len(e.fifo) {
		e.fifoGrow()
	}
	e.fifo[(e.fifoHead+e.fifoLen)&(len(e.fifo)-1)] = fent{seq: seq, slot: slot}
	e.fifoLen++
	e.pos[slot] = posFIFO
}

// fifoGrow doubles the ring, unwrapping it into the new backing array.
func (e *Engine) fifoGrow() {
	n := len(e.fifo) * 2
	if n == 0 {
		n = 64
	}
	nf := make([]fent, n)
	for i := 0; i < e.fifoLen; i++ {
		nf[i] = e.fifo[(e.fifoHead+i)&(len(e.fifo)-1)]
	}
	e.fifo = nf
	e.fifoHead = 0
}

// place files slot s under the key (t, seq). The FIFO takes it when t is
// now and seq the newest number (an adopted, older seq would break the
// FIFO's insertion-order invariant); the wheel takes it when t is inside
// the horizon; the heap takes the rest.
func (e *Engine) place(s int32, t Time, seq uint64) {
	switch {
	case t == e.now && seq == e.seq:
		e.fifoPush(seq, s)
	case t>>wheelShift-e.now>>wheelShift < wheelBuckets:
		e.wheelInsert(s, t, seq)
	default:
		e.nodes = append(e.nodes, node{at: t, seq: seq, slot: s})
		e.siftUp(len(e.nodes) - 1)
	}
}

// schedule places (fn, arg) at absolute time t and returns its slot id. A
// fresh sequence number is consumed either way; seq is the number the event
// is ordered by: that fresh one, e.seq+1, or an older number the Waker
// adopts from a stale record (see waker.go).
func (e *Engine) schedule(t Time, seq uint64, fn EventFunc, arg any) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	s := e.alloc(fn, arg)
	e.place(s, t, seq)
	return s
}

// reschedule moves a live wheel or heap slot to an earlier-or-equal time t
// under sequence number seq, chosen and consuming a fresh number as in
// schedule — the decrease-key behind Waker coalescing. Same-instant FIFO
// entries are never rescheduled: nothing can be earlier than now.
func (e *Engine) reschedule(s int32, t Time, seq uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, e.now))
	}
	switch i := e.pos[s]; {
	case i == posWheel:
		e.wheelUnlink(s)
	case i >= 0:
		e.heapRemove(int(i))
	default:
		panic("sim: reschedule of an event in neither the wheel nor the heap")
	}
	e.seq++
	e.place(s, t, seq)
}

// runOne executes the earliest pending event if its timestamp is at most
// limit, and reports whether it did. The FIFO, wheel and heap are merged by
// (at, seq). FIFO entries sit at now, so while the FIFO is non-empty only
// an event at now with an older seq (scheduled before the clock reached
// now, or adopted) can precede its head, and in the wheel such an event
// heads now's own bucket.
func (e *Engine) runOne(limit Time) bool {
	const (
		srcNone = iota
		srcFIFO
		srcWheel
		srcHeap
	)
	src := srcNone
	var at Time
	var seq uint64
	var b int
	if e.fifoLen > 0 {
		src, at, seq = srcFIFO, e.now, e.fifo[e.fifoHead].seq
		b = int(e.now>>wheelShift) & wheelMask
		if e.wbits[b>>6]&(1<<(b&63)) != 0 {
			if n := &e.wnodes[e.whead[b]]; n.at == at && n.seq < seq {
				src, seq = srcWheel, n.seq
			}
		}
	} else if e.wlen > 0 {
		b = e.wheelFirst()
		n := &e.wnodes[e.whead[b]]
		src, at, seq = srcWheel, n.at, n.seq
	}
	if len(e.nodes) > 0 {
		if r := &e.nodes[0]; src == srcNone || r.at < at || (r.at == at && r.seq < seq) {
			src, at = srcHeap, r.at
		}
	}
	if src == srcNone || at > limit {
		return false
	}
	var s int32
	switch src {
	case srcFIFO:
		s = e.fifo[e.fifoHead].slot
		e.fifoHead = (e.fifoHead + 1) & (len(e.fifo) - 1)
		e.fifoLen--
	case srcWheel:
		s = e.wheelPopHead(b)
	case srcHeap:
		s = e.nodes[0].slot
		e.heapRemove(0)
	}
	e.now = at
	e.nRun++
	fn, arg := e.slots[s].fn, e.slots[s].arg
	e.release(s)
	fn(arg)
	if e.hook != nil {
		e.hookLeft--
		if e.hookLeft == 0 {
			e.hookLeft = e.hookEvery
			e.hook()
		}
	}
	return true
}

// AtFunc schedules fn(arg) at absolute time t. This is the allocation-free
// scheduling path: fn is typically a long-lived handler (a bound method
// value created once at component construction, or a package-level
// dispatcher) and arg a pointer the caller already owns, so steady-state
// scheduling performs no heap allocation. Scheduling in the past panics: it
// always indicates a component bug, and silently clamping would hide it.
func (e *Engine) AtFunc(t Time, fn EventFunc, arg any) { e.schedule(t, e.seq+1, fn, arg) }

// AfterFunc schedules fn(arg) d picoseconds from now. Negative d panics.
func (e *Engine) AfterFunc(d Time, fn EventFunc, arg any) {
	e.schedule(e.now+d, e.seq+1, fn, arg)
}

// callThunk dispatches the compatibility path: arg is the caller's func().
func callThunk(arg any) { arg.(func())() }

// At schedules fn to run at absolute time t. It is a thin wrapper over
// AtFunc for cold call sites (experiment setup, tests); hot paths should
// use AtFunc with a reusable handler instead of allocating a closure per
// event.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, e.seq+1, callThunk, fn) }

// After schedules fn to run d picoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, e.seq+1, callThunk, fn) }

// SetEventHook installs fn to run after every `every`-th executed event,
// between events (never inside one). The invariant auditor uses this as its
// checking cadence. Passing fn == nil or every == 0 removes the hook. The
// hook must not schedule events; it observes state between them.
func (e *Engine) SetEventHook(every uint64, fn func()) {
	if fn == nil || every == 0 {
		e.hook, e.hookEvery, e.hookLeft = nil, 0, 0
		return
	}
	e.hook, e.hookEvery, e.hookLeft = fn, every, every
}

// maxTime is the latest representable instant: runOne(maxTime) never
// refuses an event.
const maxTime = Time(1<<63 - 1)

// Step executes the earliest pending event. It reports false if no events
// remain.
func (e *Engine) Step() bool { return e.runOne(maxTime) }

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.runOne(maxTime) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for e.runOne(t) {
	}
	if t > e.now {
		e.now = t
	}
}

// Snapshot is an opaque capture of an engine's full state at one instant:
// scheduler internals, every registered component's state, and the state of
// Stateful event arguments in flight. Restore writes it back in place.
type Snapshot struct {
	now  Time
	seq  uint64
	nRun uint64

	// nodes holds the heap, in heap order, in its first nheap entries and
	// then every wheel resident in bucket order.
	nodes []node
	nheap int
	slots []eslot
	free  []int32
	pos   []int32

	fifo     []fent // unwrapped: head at index 0
	hookLeft uint64

	regStates []any

	// argSlots/argStates capture Stateful event arguments by slot id. A
	// pointer appearing in several live slots (or also inside a component
	// queue) is saved more than once; the copies are taken at the same
	// instant, so restoring them is idempotent.
	argSlots  []int32
	argStates []any
}

// Snapshot captures the engine and every registered component. The capture
// is a deep copy: continuing to run the engine does not disturb it.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		now:      e.now,
		seq:      e.seq,
		nRun:     e.nRun,
		nheap:    len(e.nodes),
		slots:    append([]eslot(nil), e.slots...),
		free:     append([]int32(nil), e.free...),
		pos:      append([]int32(nil), e.pos...),
		hookLeft: e.hookLeft,
	}
	s.nodes = make([]node, len(e.nodes), len(e.nodes)+e.wlen)
	copy(s.nodes, e.nodes)
	for b := 0; b < wheelBuckets; b++ {
		if e.wbits[b>>6]&(1<<(b&63)) == 0 {
			continue
		}
		for x := e.whead[b]; x >= 0; x = e.wnodes[x].next {
			s.nodes = append(s.nodes, node{at: e.wnodes[x].at, seq: e.wnodes[x].seq, slot: x})
		}
	}
	s.fifo = make([]fent, e.fifoLen)
	for i := 0; i < e.fifoLen; i++ {
		s.fifo[i] = e.fifo[(e.fifoHead+i)&(len(e.fifo)-1)]
	}
	s.regStates = make([]any, len(e.regs))
	for i, r := range e.regs {
		s.regStates[i] = r.SaveState()
	}
	// Capture Stateful arguments of live events (heap, wheel, FIFO):
	// in-flight requests and pooled completion records whose contents the
	// continued run will overwrite.
	saveArg := func(slot int32) {
		if st, ok := e.slots[slot].arg.(Stateful); ok {
			s.argSlots = append(s.argSlots, slot)
			s.argStates = append(s.argStates, st.SaveState())
		}
	}
	for _, nd := range s.nodes {
		saveArg(nd.slot)
	}
	for _, f := range s.fifo {
		saveArg(f.slot)
	}
	return s
}

// Restore rewinds the engine and every registered component to the captured
// instant. It must be called on the engine that produced the snapshot (the
// capture holds positional component state). The snapshot survives the
// restore and can be restored again.
func (e *Engine) Restore(s *Snapshot) {
	if len(s.regStates) != len(e.regs) {
		panic(fmt.Sprintf("sim: restore with %d component states onto %d registered components",
			len(s.regStates), len(e.regs)))
	}
	e.now = s.now
	e.seq = s.seq
	e.nRun = s.nRun
	e.nodes = append(e.nodes[:0], s.nodes[:s.nheap]...)
	e.slots = append(e.slots[:0], s.slots...)
	e.free = append(e.free[:0], s.free...)
	e.pos = append(e.pos[:0], s.pos...)
	// The wheel is rebuilt from its captured residents; wnodes only needs
	// one entry per slot, whatever it held.
	if cap(e.wnodes) < len(s.slots) {
		e.wnodes = make([]wnode, len(s.slots))
	}
	e.wnodes = e.wnodes[:len(s.slots)]
	e.wbits = [wheelWords]uint64{}
	e.wlen = 0
	for _, nd := range s.nodes[s.nheap:] {
		e.wheelInsert(nd.slot, nd.at, nd.seq)
	}
	e.fifo = append(e.fifo[:0], s.fifo...)
	// The ring must stay power-of-two sized for the mask arithmetic; restore
	// re-rounds it with head at 0.
	n := 64
	for n < len(s.fifo) {
		n *= 2
	}
	if cap(e.fifo) >= n {
		e.fifo = e.fifo[:n]
	} else {
		e.fifo = make([]fent, n)
		copy(e.fifo, s.fifo)
	}
	e.fifoHead = 0
	e.fifoLen = len(s.fifo)
	e.hookLeft = s.hookLeft
	for i, r := range e.regs {
		r.LoadState(s.regStates[i])
	}
	for i, slot := range s.argSlots {
		e.slots[slot].arg.(Stateful).LoadState(s.argStates[i])
	}
}
