// Package exp is the experiment harness: one entry point per table and
// figure in the paper's evaluation, each returning the same rows/series the
// paper reports (throughput degradation factors, memory-bandwidth breakdown,
// per-domain latency, formula error, component breakdowns).
package exp

import (
	"context"
	"os"

	"repro/internal/analytic"
	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options configure an experiment run.
type Options struct {
	// Preset builds the base host config (host.CascadeLake or host.IceLake).
	Preset func() host.Config
	// DDIO overrides the preset's DDIO enable.
	DDIO bool
	// Warmup and Window set the simulated measurement interval.
	Warmup, Window sim.Time
	// P2MCores is informational parity with the paper's core partitioning
	// (the device model needs no host cores).
	P2MCores int
	// Parallelism bounds the worker pool every multi-point sweep runs on:
	// N >= 1 uses N workers (1 = serial), and 0 (the default) uses one
	// worker per available CPU (GOMAXPROCS). Each sweep point builds its
	// own host and engine, so results are bit-identical at any setting —
	// pinned by TestParallelDeterminism*.
	Parallelism int
	// FabricWorkers is unread; perfbench sets it, so drop it after that setter.
	FabricWorkers int
	// Audit enables the invariant auditor on every host the experiment
	// builds, in fail-fast mode: any conservation violation panics with the
	// domain, counter, and simulated timestamp. Auditing is observational —
	// it never schedules events — so results are identical with it on or
	// off. Defaults() also turns it on when HOSTNET_AUDIT is set, which is
	// how CI audits every figure smoke test.
	Audit bool
	// Faults schedules deterministic degradation windows on every host the
	// experiment builds (each sweep point re-runs the same schedule on its
	// own engine, so results stay bit-identical at any parallelism). Faults
	// change results, so specs carry them; empty means healthy.
	Faults fault.Schedule
	// BaseCtx, when non-nil, bounds every multi-point sweep: once the
	// context is done no further points start, and the sweep surfaces the
	// cancellation (hostnetd uses this for per-job timeout and shutdown).
	// Cancellation takes effect between sweep points — an individual
	// simulation is never interrupted mid-run, so partial results are never
	// observed. Nil means run to completion.
	BaseCtx context.Context
	// Progress, if non-nil, is invoked once after each completed sweep task
	// (one isolated+colocated point, or one baseline run). It is called
	// concurrently from pool workers and must be safe for concurrent use.
	// Purely observational: it cannot change results.
	Progress func()
}

// Defaults returns the options used throughout §2.2/§5/§6: Cascade Lake,
// DDIO and prefetching off, 20 us warmup and 100 us measured window.
func Defaults() Options {
	return Options{
		Preset:   host.CascadeLake,
		DDIO:     false,
		Warmup:   20 * sim.Microsecond,
		Window:   100 * sim.Microsecond,
		P2MCores: 2,
		Audit:    os.Getenv("HOSTNET_AUDIT") != "",
	}
}

// auditConfig is the experiment-harness audit policy: fail fast, so a
// violation surfaces as a panic (and a test failure) at the offending event.
func (o Options) auditConfig() audit.Config {
	return audit.Config{Enabled: o.Audit, FailFast: true}
}

func (o Options) newHost() *host.Host {
	cfg := o.Preset()
	cfg.DDIO.Enabled = o.DDIO
	cfg.DDIO.ScrambleEvictions = o.DDIO
	cfg.Audit = o.auditConfig()
	cfg.Faults = o.Faults
	return host.New(cfg)
}

// hostFromConfig builds a host from an explicit (already adjusted) config.
func hostFromConfig(cfg host.Config) *host.Host { return host.New(cfg) }

// iceLakePreset adapts the Ice Lake config for quadrant experiments (DDIO
// is overridden by Options as usual).
func iceLakePreset() host.Config { return host.IceLake() }

// Measure is a full probe snapshot of one run's measurement window.
type Measure struct {
	// Application-level throughput (bytes/s).
	C2MBW, P2MBW float64
	// Memory bandwidth at the DRAM, split by source (bytes/s).
	MemC2M, MemP2M float64

	// Domain latencies (ns).
	C2MLat      float64 // LFB latency (reads+writes)
	C2MReadLat  float64
	C2MWriteLat float64
	P2MWriteLat float64 // IIO write-credit latency
	P2MReadLat  float64 // IIO read-credit latency

	// CHA-level latencies (ns): the Fig 6 evidence series.
	CHAReadLatC2M  float64 // CHA->DRAM read latency, C2M requests
	CHAReadLatP2M  float64
	CHAWriteLatC2M float64 // CHA->MC write latency, C2M requests
	CHAWriteLatP2M float64
	CHAAdmitLat    float64 // admission delay
	RPQBlockLat    float64 // CHA->RPQ blocking (reads), avg over all reads

	// Queue/buffer occupancies.
	RPQOcc, WPQOcc      float64
	WPQFullFrac         float64
	IIOWriteOcc         float64
	IIOWriteOccMax      int
	IIOReadOcc          float64
	IIOReadOccMax       int
	WBacklog            float64
	P2MReadsInflight    float64
	P2MReadsInflightMax int
	LFBOccMax           int
	Switches            uint64
	RowMissC2MRead      float64
	RowMissC2MWrite     float64
	RowMissP2MRead      float64
	RowMissP2MWrite     float64
	BankDevMedian       float64
	BankDevFracGE15     float64 // fraction of samples with deviation >= 1.5x
	BankDevFracGE2      float64
	DDIOWritebacks      uint64
	Inputs              analytic.Inputs
}

// snapshot captures every probe from a finished run window.
func snapshot(h *host.Host) Measure {
	// Anchor the end-of-window audit here too: the RDMA/DCTCP experiments
	// drive Eng.RunUntil directly and never pass through host.Run. Running
	// CheckEnd twice is harmless (invariant checks are idempotent and
	// latency cross-checks see the same window).
	h.Auditor.CheckEnd()
	var m Measure
	mc := h.MC.Stats()
	cs := h.CHA.Stats()
	is := h.IIO.Stats()
	m.C2MBW = h.C2MBW()
	m.P2MBW = h.P2MBW()
	m.MemC2M, m.MemP2M = h.MemBW()
	if len(h.Cores) > 0 {
		var lfb, rd, wr float64
		for _, c := range h.Cores {
			st := c.Stats()
			lfb += st.LFBLat.AvgNanos()
			rd += st.ReadLat.AvgNanos()
			wr += st.WriteLat.AvgNanos()
			if st.LFBOcc.Max() > m.LFBOccMax {
				m.LFBOccMax = st.LFBOcc.Max()
			}
		}
		n := float64(len(h.Cores))
		m.C2MLat, m.C2MReadLat, m.C2MWriteLat = lfb/n, rd/n, wr/n
	}
	m.P2MWriteLat = is.WriteLat.AvgNanos()
	m.P2MReadLat = is.ReadLat.AvgNanos()
	m.CHAReadLatC2M = cs.ReadMCLat[0].AvgNanos()
	m.CHAReadLatP2M = cs.ReadMCLat[1].AvgNanos()
	m.CHAWriteLatC2M = cs.WriteMCLat[0].AvgNanos()
	m.CHAWriteLatP2M = cs.WriteMCLat[1].AvgNanos()
	m.CHAAdmitLat = cs.AdmitLat.AvgNanos()
	m.RPQBlockLat = cs.RPQBlockLat.AvgNanos()
	m.RPQOcc = mc.RPQOcc.Avg()
	m.WPQOcc = mc.WPQOcc.Avg()
	m.WPQFullFrac = mc.WPQFull.Frac()
	m.IIOWriteOcc = is.WriteOcc.Avg()
	m.IIOWriteOccMax = is.WriteOcc.Max()
	m.IIOReadOcc = is.ReadOcc.Avg()
	m.IIOReadOccMax = is.ReadOcc.Max()
	m.WBacklog = cs.WBacklog.Avg()
	m.P2MReadsInflight = cs.P2MReadsInflight.Avg()
	m.P2MReadsInflightMax = cs.P2MReadsInflight.Max()
	m.Switches = mc.Switches.Count()
	m.RowMissC2MRead = mc.C2MRead.RowMissRatio()
	m.RowMissC2MWrite = mc.C2MWrite.RowMissRatio()
	m.RowMissP2MRead = mc.P2MRead.RowMissRatio()
	m.RowMissP2MWrite = mc.P2MWrite.RowMissRatio()
	m.BankDevMedian = mc.BankDeviation.Quantile(0.5)
	m.BankDevFracGE15 = mc.BankDeviation.FracAtLeast(1.5)
	m.BankDevFracGE2 = mc.BankDeviation.FracAtLeast(2.0)
	m.DDIOWritebacks = cs.DDIOWritebacks.Count()
	m.Inputs = analytic.FromStats(mc, cs, h.MC.Timing(), h.MC.Channels())
	return m
}

// degradation reports iso/colocated (>= 1 means degradation), guarding
// against empty denominators.
func degradation(iso, co float64) float64 {
	if co <= 0 {
		return 0
	}
	return iso / co
}

var _ = telemetry.Samples{} // telemetry types appear via host probes
