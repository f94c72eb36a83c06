package sim

import "math/rand/v2"

// Waker coalesces wake-up events for a component that wants to be "kicked"
// whenever its inputs change. Multiple Wake calls for the same instant (or
// while a wake is already pending at an earlier-or-equal time) collapse into
// a single callback invocation, which keeps hot components (the memory
// controller scheduler, the CHA admission stage) from flooding the engine.
//
// A waker owns at most one live event. An earlier request reschedules that
// event in place (the engine's decrease-key) instead of pushing a
// superseding duplicate, so no stale no-op events ever reach dispatch.
//
// # Stale-slot adoption
//
// The previous implementation left the superseded event in the heap as a
// no-op, and that accident was output-visible: if the waker was later
// re-armed for exactly the stale event's timestamp, the stale event popped
// first within that instant (its sequence number was older) and fired the
// callback at the *older* position — earlier, relative to other events at
// the same instant, than the re-arm's own event. Simulation outputs are
// pinned byte-identical across engine rewrites, so the rework must keep
// that ordering without keeping the dead events. The stale list records the
// (at, seq) of every event the old implementation would still be holding;
// arming at a recorded timestamp adopts the oldest sequence number recorded
// there (and the fresh number takes the record's place, mirroring which
// event would have been the no-op). The list is kept sorted by (at, seq),
// so a lookup is a binary search, and records die once the clock passes
// their timestamp: they are pruned from the front whenever the list is
// touched. One difference from the old implementation remains and is
// pinned by the golden outputs: a record at exactly now stays adoptable
// even after dispatch has passed its (at, seq) position, where the old
// implementation had already popped the no-op, so a re-arm for the current
// instant can fire ahead of same-instant events queued before it.
type Waker struct {
	eng       *Engine
	fn        func()
	pendingAt Time
	pending   bool
	slot      int32
	seq       uint64     // sequence number of the live event
	stale     []staleRec // sorted by (at, seq)
}

// staleRec is one event the pre-decrease-key implementation would still
// hold in its heap: superseded, not yet popped.
type staleRec struct {
	at  Time
	seq uint64
}

// NewWaker returns a waker that invokes fn on the engine's event loop. The
// waker registers with the engine's snapshot set.
func NewWaker(eng *Engine, fn func()) *Waker {
	w := &Waker{eng: eng, fn: fn}
	eng.Register(w)
	return w
}

// Wake requests a callback now (i.e., as a fresh event at the current time).
func (w *Waker) Wake() { w.WakeAt(w.eng.Now()) }

// wakerFire dispatches a waker's scheduled event. Sharing one package-level
// handler keeps WakeAt allocation-free.
func wakerFire(arg any) {
	w := arg.(*Waker)
	w.pending = false
	w.fn()
}

// prune drops the records the clock has passed: t >= now on every lookup,
// so they can never be adopted.
func (w *Waker) prune() {
	now := w.eng.now
	k := 0
	for k < len(w.stale) && w.stale[k].at < now {
		k++
	}
	if k > 0 {
		w.stale = w.stale[:copy(w.stale, w.stale[k:])]
	}
}

// search returns the index of the first record not before (at, seq).
func (w *Waker) search(at Time, seq uint64) int {
	lo, hi := 0, len(w.stale)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := w.stale[m]; r.at < at || (r.at == at && r.seq < seq) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// record remembers a superseded event's (at, seq).
func (w *Waker) record(at Time, seq uint64) {
	w.prune()
	i := w.search(at, seq)
	w.stale = append(w.stale, staleRec{})
	copy(w.stale[i+1:], w.stale[i:])
	w.stale[i] = staleRec{at: at, seq: seq}
}

// adopt looks for the oldest stale record at exactly t. If there is one, it
// returns that record's number for the arming event to take, and the fresh
// number the arming consumes takes the record's place: fresh is the newest
// number, so it sorts last among the records at t.
func (w *Waker) adopt(t Time, fresh uint64) (uint64, bool) {
	w.prune()
	i := w.search(t, 0)
	if i == len(w.stale) || w.stale[i].at != t {
		return 0, false
	}
	old := w.stale[i].seq
	j := i + 1
	for j < len(w.stale) && w.stale[j].at == t {
		j++
	}
	copy(w.stale[i:j-1], w.stale[i+1:j])
	w.stale[j-1].seq = fresh
	return old, true
}

// WakeAt requests a callback at absolute time t. If a wake-up is already
// pending at or before t, the request is absorbed; if one is pending later,
// it is moved earlier in place.
func (w *Waker) WakeAt(t Time) {
	if now := w.eng.now; t < now {
		t = now
	}
	if w.pending && w.pendingAt <= t {
		return
	}
	// schedule and reschedule each consume exactly one fresh number. The
	// common miss, an arm beyond every record, skips the lookup.
	seq := w.eng.seq + 1
	if n := len(w.stale); n > 0 && t <= w.stale[n-1].at {
		if old, ok := w.adopt(t, seq); ok {
			seq = old
		}
	}
	if w.pending {
		// pendingAt > t >= now implies the live event sits in the wheel or
		// the heap (the same-instant FIFO only ever holds events at now), so
		// decrease-key applies. The superseded position becomes a stale
		// record.
		w.record(w.pendingAt, w.seq)
		w.eng.reschedule(w.slot, t, seq)
	} else {
		w.pending = true
		w.slot = w.eng.schedule(t, seq, wakerFire, w)
	}
	w.pendingAt, w.seq = t, seq
}

// wakerState is the snapshot of a Waker.
type wakerState struct {
	pendingAt Time
	pending   bool
	slot      int32
	seq       uint64
	stale     []staleRec
}

// SaveState implements Stateful.
func (w *Waker) SaveState() any {
	return wakerState{
		pendingAt: w.pendingAt,
		pending:   w.pending,
		slot:      w.slot,
		seq:       w.seq,
		stale:     append([]staleRec(nil), w.stale...),
	}
}

// LoadState implements Stateful.
func (w *Waker) LoadState(state any) {
	st := state.(wakerState)
	w.pendingAt, w.pending, w.slot, w.seq = st.pendingAt, st.pending, st.slot, st.seq
	w.stale = append(w.stale[:0], st.stale...)
}

// Rand is a deterministic random stream that can save and load its
// generator state, so snapshots capture it exactly. It embeds *rand.Rand;
// use it wherever a *rand.Rand works.
type Rand struct {
	*rand.Rand
	pcg *rand.PCG
}

// RNG returns a deterministic PCG-based random source for the given stream
// seed. Each component takes its own stream so that adding randomness to one
// component never perturbs another's sequence.
func RNG(seed uint64) *Rand {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Rand{Rand: rand.New(pcg), pcg: pcg}
}

// SaveState implements Stateful: it captures the PCG stream position.
// (rand.Rand holds no buffered state of its own over a PCG source.)
func (r *Rand) SaveState() any {
	b, err := r.pcg.MarshalBinary()
	if err != nil {
		panic("sim: PCG MarshalBinary failed: " + err.Error())
	}
	return b
}

// LoadState implements Stateful.
func (r *Rand) LoadState(state any) {
	if err := r.pcg.UnmarshalBinary(state.([]byte)); err != nil {
		panic("sim: PCG UnmarshalBinary failed: " + err.Error())
	}
}
