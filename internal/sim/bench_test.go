package sim

import "testing"

// The micro-benchmarks below pin the engine's steady-state cost and, with
// -benchmem, its per-event allocation count. CI runs them once
// (-benchtime=1x) and fails if the scheduling benchmarks report nonzero
// allocs/op; BENCH_engine.json at the repo root records the before/after
// trajectory of the engine rewrites.

// BenchmarkScheduleRun measures one schedule+dispatch round trip: the cost
// every simulated event pays. The callback is hoisted so the benchmark sees
// only the engine's own work (push, pop, dispatch), not closure creation.
func BenchmarkScheduleRun(b *testing.B) {
	e := New()
	n := 0
	fn := func() { n++ }
	e.At(0, fn) // pre-grow the heap so -benchtime=1x is already steady state
	e.Step()
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), fn)
		e.Step()
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineThroughput measures the raw event loop under a pending
// window of 256 events — the cache-resident push/pop regime every component
// of the simulator drives. ns/op here is the engine's per-event floor.
func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	n := 0
	fn := func() { n++ }
	const window = 256
	for i := 0; i < window; i++ {
		e.At(Time(i), fn)
	}
	e.Step() // grow the free list so -benchtime=1x is already steady state
	e.At(e.Now()+window, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.At(e.Now()+window, fn)
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkWakerChurn measures the supersede/absorb path of a hot Waker:
// one arm, one absorbed duplicate, one dispatch — the pattern the DRAM
// channel scheduler and CHA admission stage generate per request.
func BenchmarkWakerChurn(b *testing.B) {
	e := New()
	n := 0
	w := NewWaker(e, func() { n++ })
	w.WakeAt(0) // pre-grow the heap so -benchtime=1x is already steady state
	e.Step()
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WakeAt(Time(i))
		w.WakeAt(Time(i + 1)) // absorbed: a wake is already pending earlier
		e.Step()
	}
	if n != b.N {
		b.Fatalf("ran %d wakes, want %d", n, b.N)
	}
}

// benchHeapPattern keeps a fixed number of events pending and replaces the
// popped event each step, so b.N operations all run at the given depth with
// the given arrival pattern. delay(i) is relative to the clock, so the
// pattern holds however far the run has advanced.
func benchHeapPattern(b *testing.B, depth int, delay func(i int) Time) {
	e := New()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.After(delay(i), fn)
	}
	// One full turnover grows the free list, so -benchtime=1x is already
	// steady state.
	for i := 0; i < depth; i++ {
		e.Step()
		e.After(delay(depth+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.After(delay(2*depth+i), fn)
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkHeapPushPopAscending: FIFO-ish arrivals (paced links) — every
// push lands after every pending event.
func BenchmarkHeapPushPopAscending(b *testing.B) {
	benchHeapPattern(b, 512, func(i int) Time { return 512 })
}

// BenchmarkHeapPushPopSameInstant: bursts at one timestamp (a drained
// backlog re-waking its clients) — ordering falls to the seq tiebreak.
func BenchmarkHeapPushPopSameInstant(b *testing.B) {
	benchHeapPattern(b, 512, func(i int) Time { return 0 })
}

// BenchmarkHeapPushPopRandom: uncorrelated delays up to ~1 µs (colliding
// components with unrelated latencies). About a quarter land inside the
// wheel's horizon; the rest go to the overflow heap, the sift-heavy case.
func BenchmarkHeapPushPopRandom(b *testing.B) {
	rng := RNG(0xbeac4)
	delays := make([]Time, 1<<16)
	for i := range delays {
		delays[i] = Time(rng.Uint64N(1 << 20))
	}
	benchHeapPattern(b, 512, func(i int) Time { return delays[i&(1<<16-1)] })
}

// hostMixDelays are the twelve delays that cover 89% of fig3's future
// pushes: link and line periods, tCL, and the CHA and memory-controller
// hops.
var hostMixDelays = [...]Time{
	2000, 5000, 8000, 18000, 20000, 2730, 4570, 17730, 102730, 120000, 144570, 148000,
}

// BenchmarkEngineHostMix replays fig3's measured scheduling mix at its
// median depth of ~146 pending events: each plain event reschedules itself
// after one of hostMixDelays, and every other event touches one of eight
// wakers, alternately arming it in the future (a fresh arm, or a supersede
// that records a stale slot) and superseding it to now (decrease-key from
// the wheel into the same-instant FIFO). Fired wakers re-arm themselves.
func BenchmarkEngineHostMix(b *testing.B) {
	const depth = 146
	e := New()
	rng := RNG(0x515)
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = hostMixDelays[rng.IntN(len(hostMixDelays))]
	}
	var wakers [8]*Waker
	n := 0
	for k := range wakers {
		k := k
		wakers[k] = NewWaker(e, func() { wakers[k].WakeAt(e.Now() + delays[(n+k)&4095]) })
	}
	var fire EventFunc
	fire = func(arg any) {
		n++
		e.AfterFunc(delays[n&4095], fire, arg)
		if n&1 == 0 {
			w := wakers[(n>>1)&7]
			if n&2 == 0 {
				w.WakeAt(e.Now() + delays[(n*7)&4095])
			} else {
				w.Wake()
			}
		}
	}
	for k := 0; k < depth-len(wakers); k++ {
		e.AfterFunc(delays[k], fire, nil)
	}
	for k := 0; k < 1<<16; k++ { // reach the steady-state mix and capacities
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchReg is a registered component for the snapshot benchmarks: SaveState
// boxes a value copy (one allocation per capture), LoadState copies it back
// in place (none).
type benchReg struct{ v [8]uint64 }

func (s *benchReg) SaveState() any      { return s.v }
func (s *benchReg) LoadState(state any) { s.v = state.([8]uint64) }

// benchSnapshotEngine builds a warm engine with one registered component
// and 511 pending events 1 ns apart: the 162 scheduled within the wheel's
// ~262 ns horizon sit in the wheel, the rest in the overflow heap. This is
// the shape both snapshot benchmarks measure.
func benchSnapshotEngine() (*Engine, *benchReg) {
	e := New()
	r := &benchReg{}
	e.Register(r)
	fn := func() {}
	for i := 0; i < 612; i++ {
		e.At(Time(i)*Nanosecond, fn)
	}
	e.RunUntil(100 * Nanosecond)
	return e, r
}

// BenchmarkSnapshotCapture measures Engine.Snapshot on a warm engine. A
// capture is a deep copy, so it allocates — but a fixed, deterministic
// number of times (the snapshot struct, one copy per scheduler slice, the
// component-state table, and each registered SaveState). CI runs this with
// -benchmem and fails if allocs/op grows past the BENCH_checkpoint.json
// baseline: an accidental per-event or per-slot allocation in the capture
// path would multiply, not add.
func BenchmarkSnapshotCapture(b *testing.B) {
	e, _ := benchSnapshotEngine()
	snap := e.Snapshot() // warm-up so -benchtime=1x sees the steady-state count
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = e.Snapshot()
	}
	b.StopTimer()
	e.Restore(snap)
}

// BenchmarkSnapshotRestore measures Engine.Restore — the hot half of
// checkpoint forking, paid once per forked continuation. Restore writes into
// the engine's retained slice capacities in place, so after the first call
// it must not allocate at all; CI gates it at 0 allocs/op.
func BenchmarkSnapshotRestore(b *testing.B) {
	e, _ := benchSnapshotEngine()
	snap := e.Snapshot()
	e.Restore(snap) // warm the append capacities
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Restore(snap)
	}
}
