package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/audit"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The layer ledger measures the sim, host, fabric, store, analytic and
// spec layers by calling their public functions directly. The sim and host
// figures come from replica hosts built the way exp builds the fig3
// colocated runs at 6 cores (one per quadrant); the fabric figures from a
// replica of the 7-sender incast8 point. Each replica must reproduce the
// experiment's own measurement exactly, so the ledger measures the same
// simulation the workloads run.

const (
	replicaCores  = 6   // the fig3 sweep's largest core count
	incastSenders = 7   // the incast8 sweep's deepest point
	incastCores   = 4   // the incast experiment's receiver C2M cores
	timedReps     = 3   // timed replica runs per quadrant (median)
	pendingEvery  = 7   // sample the pending-event count every this many events
	microEvents   = 2e6 // events in one engine micro-benchmark pass
	microReps     = 5   // passes (median)
	callReps      = 5   // repeats of each store/analytic/spec call (median)
)

// measureProbe is the subset of exp.Measure the replicas recompute through
// the host's public probes, in a fixed order.
func measureProbe(m exp.Measure) []float64 {
	return []float64{m.C2MBW, m.P2MBW, m.MemC2M, m.MemP2M, m.C2MLat, m.P2MWriteLat, m.P2MReadLat,
		m.RPQOcc, m.WPQOcc, m.WPQFullFrac, float64(m.Switches)}
}

// hostProbe reads the same values from a finished replica.
func hostProbe(h *host.Host) []float64 {
	var lfb float64
	for _, c := range h.Cores {
		lfb += c.Stats().LFBLat.AvgNanos()
	}
	memC2M, memP2M := h.MemBW()
	is, mc := h.IIO.Stats(), h.MC.Stats()
	return []float64{h.C2MBW(), h.P2MBW(), memC2M, memP2M, lfb / float64(len(h.Cores)),
		is.WriteLat.AvgNanos(), is.ReadLat.AvgNanos(),
		mc.RPQOcc.Avg(), mc.WPQOcc.Avg(), mc.WPQFull.Frac(), float64(mc.Switches.Count())}
}

// sameBits compares two probes bit for bit (NaN equals NaN).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// replica is one engine run the ledger measures: run advances it through
// the warmup and the window, probe reads back what the experiment reports.
type replica struct {
	eng   *sim.Engine
	run   func()
	probe func() []float64
}

// hostReplica builds the fig3 colocated host for quadrant q at 6 cores with
// the generators and configuration exp uses (Cascade Lake, DDIO off,
// auditor off, no faults).
func hostReplica(q exp.Quadrant, opt exp.Options) replica {
	cfg := host.CascadeLake()
	cfg.DDIO.Enabled, cfg.DDIO.ScrambleEvictions = false, false
	cfg.Audit = audit.Config{FailFast: true}
	h := host.New(cfg)
	for i := 0; i < replicaCores; i++ {
		base := h.Region(1 << 30)
		var gen cpu.Generator = workload.NewSeqRead(base, 1<<30)
		if q.C2MWrites() {
			gen = workload.NewSeqReadWrite(base, 1<<30)
		}
		h.AddCore(gen)
	}
	dir := periph.DMARead
	if q.P2MWrites() {
		dir = periph.DMAWrite
	}
	h.AddStorage(periph.BulkConfig(dir, h.Region(1<<30)))
	return replica{h.Eng, func() { h.Run(opt.Warmup, opt.Window) }, func() []float64 { return hostProbe(h) }}
}

// fabricReplica builds the incast8 rack at the given degree the way the
// incast experiment does.
func fabricReplica(senders int, opt exp.Options) replica {
	cfg := fabric.DefaultConfig(8)
	cfg.Host.DDIO.Enabled, cfg.Host.DDIO.ScrambleEvictions = false, false
	cfg.Audit = audit.Config{FailFast: true}
	f := fabric.New(cfg)
	f.AddIncast(0, senders)
	for i := 0; i < incastCores; i++ {
		base := f.Hosts[0].Region(1 << 30)
		f.Hosts[0].AddCore(workload.NewSeqReadWrite(base, 1<<30))
	}
	return replica{f.Eng, func() { f.Run(opt.Warmup, opt.Window) }, func() []float64 { return fabricProbe(f) }}
}

func fabricProbe(f *fabric.Fabric) []float64 {
	var out []float64
	for _, n := range f.NICs {
		out = append(out, n.TxBytesPerSec(), n.TxPauseFrac.Frac(), n.RxBytesPerSec(), n.RxPauseFrac.Frac())
	}
	return append(out, f.NICs[0].RxQueueOcc.Avg(), f.Switch.PortOutOccAvg(0))
}

func incastProbe(p exp.IncastPoint) []float64 {
	var out []float64
	for i := range p.TxBW {
		out = append(out, p.TxBW[i], p.TxPause[i], p.RxBW[i], p.RxPause[i])
	}
	return append(out, p.RxQueueOcc, p.SwEgressOcc)
}

// runStats is one timed engine run's cost.
type runStats struct {
	wallNs, events, mallocs, bytes float64
}

// timedRun runs r once and measures its wall clock, events and heap
// allocations.
func timedRun(r replica) runStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := r.eng.Processed()
	t := time.Now()
	r.run()
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	return runStats{wallNs: float64(wall.Nanoseconds()), events: float64(r.eng.Processed() - e0),
		mallocs: float64(m1.Mallocs - m0.Mallocs), bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
}

// measureReplica times timedReps fresh builds of a replica (the first
// run's events and allocations, the median wall clock), samples
// eng.Pending() every pendingEvery events through SetEventHook on one more
// build, and reports whether every run reproduced want bit for bit.
func measureReplica(name string, build func() replica, want []float64, tr *tracer) (cost runStats, pending []float64, same bool) {
	same = true
	var walls []float64
	for rep := 0; rep < timedReps; rep++ {
		sp := tr.begin(name+".New", -1, -1)
		r := build()
		tr.end(sp)
		sp = tr.begin(name+".Run", -1, -1)
		rs := timedRun(r)
		tr.end(sp)
		if rep == 0 {
			cost = rs
		}
		walls = append(walls, rs.wallNs)
		same = same && sameBits(r.probe(), want)
	}
	cost.wallNs = median(walls)
	r := build()
	sp := tr.begin(name+".Run.hooked", -1, -1)
	r.eng.SetEventHook(pendingEvery, func() { pending = append(pending, float64(r.eng.Pending())) })
	r.run()
	r.eng.SetEventHook(0, nil)
	tr.end(sp)
	return cost, pending, same && sameBits(r.probe(), want)
}

// runLedger measures every layer the workloads' end-to-end figures are
// made of.
func runLedger(seed uint64, refsPath, root string, tr *tracer) (*iterResult, error) {
	r := &iterResult{Workload: "ledger", Layer: map[string]float64{}}
	start := time.Now()
	defer func() { r.WallS = time.Since(start).Seconds() }()
	opt := simOptions()
	L := r.Layer

	// sim and host: one replica per fig3 quadrant at 6 cores.
	var tot runStats
	var pending []float64
	for q := exp.Q1; q <= exp.Q4; q++ {
		sp := tr.begin("exp.RunQuadrantPoint", -1, -1)
		want := measureProbe(exp.RunQuadrantPoint(q, replicaCores, opt).Co)
		tr.end(sp)
		r.Attempted++
		cost, p, same := measureReplica("host", func() replica { return hostReplica(q, opt) }, want, tr)
		if !same {
			r.fail("replica Q%d at %d cores does not reproduce exp.RunQuadrantPoint(...).Co", q, replicaCores)
		}
		L[fmt.Sprintf("host.q%d_ns_per_event", q)] = cost.wallNs / cost.events
		pending = append(pending, p...)
		tot.wallNs += cost.wallNs
		tot.events += cost.events
		tot.mallocs += cost.mallocs
		tot.bytes += cost.bytes
	}
	simUs := float64(opt.Warmup+opt.Window) / float64(sim.Microsecond)
	L["sim.events"] = tot.events
	L["sim.events_per_sim_us"] = tot.events / (4 * simUs)
	L["sim.ns_per_event"] = tot.wallNs / tot.events
	L["sim.allocs_per_event"] = tot.mallocs / tot.events
	L["sim.bytes_per_event"] = tot.bytes / tot.events
	L["sim.pending_p50"] = median(pending)
	sp := tr.begin("sim.engine_micro", -1, -1)
	L["sim.engine_ns_per_event"] = engineNsPerEvent(int(L["sim.pending_p50"]), seed)
	tr.end(sp)
	L["sim.handler_ns_per_event"] = L["sim.ns_per_event"] - L["sim.engine_ns_per_event"]

	// fabric: the deepest incast8 point.
	sp = tr.begin("exp.RunSpec.incast8", -1, -1)
	v, err := exp.RunSpec(exp.Spec{Experiment: "incast", Fabric: &exp.FabricSpec{Hosts: 8}}, opt)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.Attempted++
	want := incastProbe(v.(*exp.IncastSweep).Healthy[incastSenders-1])
	cost, fpending, same := measureReplica("fabric", func() replica { return fabricReplica(incastSenders, opt) }, want, tr)
	if !same {
		r.fail("fabric replica at %d senders does not reproduce the incast8 point", incastSenders)
	}
	L["fabric.ns_per_event"] = cost.wallNs / cost.events
	L["fabric.events_per_sim_us"] = cost.events / simUs
	L["fabric.pending_p50"] = median(fpending)
	L["fabric.bytes_per_event"] = cost.bytes / cost.events
	L["replica.mismatch"] = float64(r.Failed)

	// store, analytic and spec hashing, on the serve-mix inputs.
	m, err := readMix(refsPath)
	if err != nil {
		return nil, err
	}
	if err := storeLedger(m, root, tr, L); err != nil {
		return nil, err
	}
	if err := specLedger(m, tr, L); err != nil {
		return nil, err
	}
	return r, nil
}

// engineNsPerEvent measures the engine alone: AtFunc/Step with depth
// events pending, each event rescheduling itself after a delay drawn from
// a fixed table, like the replica's mix of component latencies.
func engineNsPerEvent(depth int, seed uint64) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0xe4e))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1+rng.IntN(100)) * sim.Nanosecond
	}
	var passes []float64
	for rep := 0; rep < microReps; rep++ {
		e := sim.New()
		i := 0
		var fire sim.EventFunc
		fire = func(arg any) {
			i++
			e.AfterFunc(delays[i&4095], fire, arg)
		}
		for k := 0; k < depth; k++ {
			e.AtFunc(delays[k&4095], fire, nil)
		}
		for k := 0; k < depth*4; k++ { // reach the steady depth and heap shape
			e.Step()
		}
		t := time.Now()
		for k := 0; k < microEvents; k++ {
			e.Step()
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/microEvents)
	}
	return median(passes)
}

// storeLedger times direct store.Put and store.Get calls on every payload
// of the mix, in a store of its own.
func storeLedger(m *mix, root string, tr *tracer, L map[string]float64) error {
	dir := filepath.Join(root, ".bench_build", fmt.Sprintf("ledger-store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		return err
	}
	keys := make([]string, len(m.Refs))
	var puts, gets []float64
	for i, b := range m.Refs {
		keys[i] = fmt.Sprintf("%064x", i+1)
		sp := tr.begin("store.Put", -1, -1)
		t := time.Now()
		err := st.Put(keys[i], b)
		puts = append(puts, time.Since(t).Seconds()*1e6)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < callReps; rep++ {
		for i := range keys {
			sp := tr.begin("store.Get", -1, -1)
			t := time.Now()
			_, ok := st.Get(keys[i])
			gets = append(gets, time.Since(t).Seconds()*1e6)
			tr.end(sp)
			if !ok {
				return fmt.Errorf("store ledger: entry %d missing", i)
			}
		}
	}
	L["store.put_us"] = median(puts)
	L["store.get_us"] = median(gets)
	return nil
}

// specLedger times analytic.Predict on the mix's analytic points and the
// spec path (Normalized, Validate, Canonical, Hash) on all of its specs.
func specLedger(m *mix, tr *tracer, L map[string]float64) error {
	hw := analytic.CascadeLakeHW()
	var predicts, hashes []float64
	for _, raw := range m.Specs {
		var s exp.Spec
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		for rep := 0; rep < callReps; rep++ {
			sp := tr.begin("exp.spec_hash", -1, -1)
			t := time.Now()
			n := s.Normalized()
			err := n.Validate()
			if err == nil {
				_, err = n.Canonical()
			}
			if err == nil {
				_, err = n.Hash()
			}
			hashes = append(hashes, time.Since(t).Seconds()*1e6)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		if s.Fidelity != exp.FidelityAnalytic {
			continue
		}
		q := exp.Quadrant(s.Quadrant)
		for _, c := range s.Cores {
			// The colocated workload of exp's analytic quadrant point.
			w := analytic.Workload{C2MCores: c, C2MWrites: q.C2MWrites()}
			if q.P2MWrites() {
				w.P2MWriteBytesPerSec = hw.PCIeBytesPerSec
			} else {
				w.P2MReadBytesPerSec = hw.PCIeBytesPerSec
			}
			for rep := 0; rep < callReps; rep++ {
				sp := tr.begin("analytic.Predict", -1, -1)
				t := time.Now()
				_, err := analytic.Predict(hw, w)
				predicts = append(predicts, time.Since(t).Seconds()*1e6)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
		}
	}
	L["analytic.predict_us"] = median(predicts)
	L["exp.spec_hash_us"] = median(hashes)
	return nil
}
