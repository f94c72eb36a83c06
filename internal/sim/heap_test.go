package sim

import (
	"maps"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestHeapMatchesReferenceModel drives the engine with random interleavings
// of At, After, and Step and checks every dispatch against a reference model
// (the same events ordered by sort.Slice on (time, seq)). This pins the
// 4-ary heap's pop order to the exact (time, seq) contract the rest of the
// simulator's determinism rests on.
func TestHeapMatchesReferenceModel(t *testing.T) {
	type ref struct {
		at  Time
		seq int // scheduling order
	}
	f := func(ops []uint32) bool {
		e := New()
		var model []ref
		var got []ref
		seq := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // At: absolute time in a small range for collisions
				at := Time(op % 509)
				if at < e.Now() {
					at = e.Now()
				}
				r := ref{at: at, seq: seq}
				seq++
				model = append(model, r)
				e.At(at, func() { got = append(got, ref{e.Now(), r.seq}) })
			case 2: // After: relative delay
				at := e.Now() + Time(op%97)
				r := ref{at: at, seq: seq}
				seq++
				model = append(model, r)
				e.After(at-e.Now(), func() { got = append(got, ref{e.Now(), r.seq}) })
			case 3: // Step: interleave dispatch with scheduling
				e.Step()
			}
		}
		e.Run()
		if len(got) != len(model) {
			return false
		}
		// The reference: stable sort by time keeps scheduling order within
		// an instant, which is exactly the (time, seq) contract.
		sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
		for i := range model {
			if got[i].at != model[i].at || got[i].seq != model[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAtFuncPassesArg pins the closure-free path's contract: the scheduled
// function receives exactly the argument it was scheduled with.
func TestAtFuncPassesArg(t *testing.T) {
	e := New()
	type payload struct{ n int }
	var got []int
	record := func(arg any) { got = append(got, arg.(*payload).n) }
	e.AtFunc(20, record, &payload{n: 2})
	e.AtFunc(10, record, &payload{n: 1})
	e.AfterFunc(30, record, &payload{n: 3})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

// TestSteadyStateSchedulingZeroAlloc is the allocation gate behind the CI
// bench smoke step, enforced on every plain `go test` run: steady-state
// scheduling through AtFunc, the At/After compatibility wrappers (with a
// reused callback), and Waker arming must not allocate. Slice growth (a
// one-time, amortized cost) is excluded by warm-up passes.
//
// The second measurement counts every allocation over one pass of more than
// 1e5 events, so the limit of 0 is exact rather than a per-run average.
// Its delays span one bucket, several buckets, the ring's wrap and the
// overflow heap beyond the horizon, and its wakers move wheel→FIFO,
// wheel→wheel and heap→wheel and adopt stale slots.
func TestSteadyStateSchedulingZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	w := NewWaker(e, fn)
	handler := func(any) {}
	for i := 0; i < 64; i++ { // pre-grow the heap's backing array
		e.At(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		e.AtFunc(now+5, handler, w)
		e.After(10, fn)
		w.WakeAt(now + 7)
		w.WakeAt(now + 2) // supersede
		e.RunUntil(now + 20)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %v per run, want 0", allocs)
	}

	delays := []Time{
		3, 700, 1023, // inside the current bucket
		1024, 5 * Nanosecond, 148 * Nanosecond, // later buckets
		wheelBuckets<<wheelShift - 1,      // the last bucket before the wrap
		300 * Nanosecond, 2 * Microsecond, // beyond the horizon: the heap
	}
	wa, wb := NewWaker(e, fn), NewWaker(e, fn)
	const iters = 25000
	// moves counts, per pass, the scheduling moves the pass exists to
	// cover, so the gate cannot silently stop exercising one of them.
	var moves [4]int
	pass := func() {
		moves = [4]int{}
		for k := 0; k < iters; k++ {
			now := e.Now()
			e.AtFunc(now+delays[k%len(delays)], handler, w)
			e.After(delays[(k*7)%len(delays)], fn)
			wa.WakeAt(now + 400*Nanosecond) // heap
			inHeap := e.pos[wa.slot] >= 0
			wa.WakeAt(now + 100*Nanosecond) // heap -> wheel
			if inHeap && e.pos[wa.slot] == posWheel {
				moves[0]++
			}
			wa.WakeAt(now + 3*Nanosecond) // wheel -> wheel
			if e.pos[wa.slot] == posWheel {
				moves[1]++
			}
			wa.Wake() // wheel -> FIFO
			if e.pos[wa.slot] == posFIFO {
				moves[2]++
			}
			wb.WakeAt(now + 5*Nanosecond)
			wb.WakeAt(now + 2*Nanosecond) // leaves a stale record at now+5ns
			e.RunUntil(now + 2*Nanosecond)
			wb.WakeAt(now + 5*Nanosecond) // adopts it: an older seq than the newest
			if wb.seq != e.seq {
				moves[3]++
			}
			e.RunUntil(now + 6*Nanosecond)
		}
	}
	pass() // grow every slice to the pass's peak
	pass()
	before := e.Processed()
	allocs = testing.AllocsPerRun(1, pass)
	if n := (e.Processed() - before) / 2; n < 1e5 { // AllocsPerRun runs pass twice
		t.Fatalf("measured pass ran %d events, want >= 1e5", n)
	}
	if allocs != 0 {
		t.Fatalf("wheel/heap/waker scheduling allocated %v times over one pass, want 0", allocs)
	}
	if moves != [4]int{iters, iters, iters, iters} {
		t.Fatalf("heap->wheel, wheel->wheel, wheel->FIFO, adoption moves = %v, want %d each", moves, iters)
	}
}

// TestHeapDeepOrdering exercises sift-down through several 4-ary levels
// (hundreds of pending events) against a full reference ordering.
func TestHeapDeepOrdering(t *testing.T) {
	e := New()
	rng := RNG(99)
	const n = 2000
	var want []Time
	var got []Time
	for i := 0; i < n; i++ {
		at := Time(rng.Uint64N(1000)) // heavy collisions: seq must break ties
		want = append(want, at)
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != n {
		t.Fatalf("dispatched %d of %d events", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSchedulerMatchesReferenceModel drives plain events and wakers with
// random operations over delays from 0 to several wheel horizons, and checks
// every dispatch against a reference: the live events' (at, seq) keys, the
// next one found by a linear minimum. A waker's key is whatever the engine
// gave its live event, so decrease-key moves (wheel→FIFO, wheel→wheel,
// heap→wheel) and stale-slot adoption are all checked. Each case also takes
// a Snapshot at a random operation and finishes the run; the remaining
// operations, replayed after a Restore, must dispatch the same sequence
// again.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	horizon := Time(wheelBuckets << wheelShift)
	// A coarse grid of delays makes exact-timestamp re-arms, and so
	// adoptions, common.
	grid := []Time{0, 1, 500, 1024, 3 * Nanosecond, 100 * Nanosecond, horizon - 1, horizon, horizon + 1024, 3 * horizon}
	var covered [4]int // heap->wheel, wheel->wheel, wheel->FIFO, adoption
	f := func(ops []uint32, snapOp uint16) bool {
		e := New()
		live := map[int]key{} // event id -> key; wakers are ids 0..3
		var wakers [4]*Waker
		var trace []int
		ok := true
		fired := func(id int) {
			best, found := 0, false
			for id2, k := range live {
				if b := live[best]; !found || k.at < b.at || (k.at == b.at && k.seq < b.seq) {
					best, found = id2, true
				}
			}
			if !found || best != id || live[id].at != e.Now() {
				ok = false
			}
			delete(live, id)
			trace = append(trace, id)
		}
		for k := range wakers {
			k := k
			wakers[k] = NewWaker(e, func() { fired(k) })
		}
		nextID := len(wakers)
		apply := func(op uint32) {
			d := grid[(op>>4)%uint32(len(grid))] * Time(1+(op>>8)%3)
			switch op % 4 {
			case 0: // plain event
				id := nextID
				nextID++
				e.After(d, func() { fired(id) })
				live[id] = key{e.Now() + d, e.seq}
			case 1, 2: // waker arm, absorb or supersede
				w := wakers[(op>>12)%4]
				wasPos, wasPending := int32(posFree), w.pending
				if w.pending {
					wasPos = e.pos[w.slot]
				}
				w.WakeAt(e.Now() + d)
				id := int((op >> 12) % 4)
				if (live[id] != key{w.pendingAt, w.seq}) {
					switch {
					case w.seq != e.seq:
						covered[3]++
					case !wasPending:
					case wasPos >= 0 && e.pos[w.slot] == posWheel:
						covered[0]++
					case wasPos == posWheel && e.pos[w.slot] == posWheel:
						covered[1]++
					case wasPos == posWheel && e.pos[w.slot] == posFIFO:
						covered[2]++
					}
				}
				live[id] = key{w.pendingAt, w.seq}
			case 3: // advance
				if op&(1<<20) != 0 {
					e.Step()
				} else {
					e.RunUntil(e.Now() + d)
				}
			}
		}
		cut := int(snapOp) % (len(ops) + 1)
		for _, op := range ops[:cut] {
			apply(op)
		}
		snap := e.Snapshot()
		snapLive := maps.Clone(live)
		snapID, snapTrace := nextID, len(trace)
		for _, op := range ops[cut:] {
			apply(op)
		}
		e.Run()
		first := append([]int(nil), trace[snapTrace:]...)
		// Replay twice: the first replay stops with events still pending,
		// so the second restore must rebuild a wheel and heap that differ
		// from the captured ones, not an empty engine.
		for _, drain := range []bool{false, true} {
			e.Restore(snap)
			live, nextID, trace = maps.Clone(snapLive), snapID, trace[:snapTrace]
			for _, op := range ops[cut:] {
				apply(op)
			}
			if drain {
				e.Run()
			}
		}
		return ok && len(live) == 0 && slices.Equal(first, trace[snapTrace:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for i, n := range covered {
		if n == 0 {
			t.Errorf("move %d (heap->wheel, wheel->wheel, wheel->FIFO, adoption) never exercised", i)
		}
	}
}
