// Package hostnet is the public API of the host-network simulator — a
// reproduction of "Understanding the Host Network" (SIGCOMM 2024).
//
// The library decomposes a server host into the components of the paper's
// §3 — cores with Line Fill Buffers, the CHA/LLC, a DDR4 memory controller
// with per-channel read/write pending queues, DRAM banks, the IIO and PCIe
// link, and peripheral devices — and simulates data movement at cacheline
// granularity under domain-by-domain credit-based flow control (§4).
//
// # Quick start
//
//	h := hostnet.New(hostnet.CascadeLake())
//	h.AddCore(hostnet.SeqRead(h.Region(1<<30), 1<<30)) // a C2M-Read app
//	h.AddStorage(hostnet.BulkStorage(hostnet.DMAWrite, h.Region(1<<30)))
//	h.Run(20*hostnet.Microsecond, 100*hostnet.Microsecond)
//	fmt.Println(h.C2MBW(), h.P2MBW()) // colocated throughputs
//
// Experiments reproducing every figure and table of the paper live behind
// the Run* functions (RunFig3, RunFig6, RunFig11, ...); cmd/hostnetsim
// exposes them on the command line.
package hostnet

import (
	"io"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cxl"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/hostcc"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Re-exported fundamental types.
type (
	// Time is simulated time in picoseconds.
	Time = sim.Time
	// Addr is a physical byte address.
	Addr = mem.Addr
	// Config describes a host (use CascadeLake/IceLake for the paper's
	// testbeds).
	Config = host.Config
	// Host is an assembled host network.
	Host = host.Host
	// Generator supplies a core's access stream.
	Generator = cpu.Generator
	// StorageConfig describes a FIO-style device workload.
	StorageConfig = periph.Config
	// Domain is the paper's credit-based flow-control domain abstraction.
	Domain = core.Domain
	// DomainKind names one of the four domains.
	DomainKind = core.DomainKind
	// Measurement is a domain's observed behaviour over a window.
	Measurement = core.Measurement
	// Regime classifies a colocation outcome (blue/red).
	Regime = core.Regime
	// Options configure an experiment run.
	Options = exp.Options
	// Quadrant identifies a §2.2 colocation scenario.
	Quadrant = exp.Quadrant
	// Prefetcher is the per-core hardware stream prefetcher template.
	Prefetcher = cpu.Prefetcher
	// HostCC is the in-host congestion controller (the paper's §7 future-
	// work direction, in the spirit of hostCC/SIGCOMM'23).
	HostCC = hostcc.Controller
	// HostCCConfig tunes the controller.
	HostCCConfig = hostcc.Config
	// DualHost is a two-socket host joined by a UPI-style interconnect (the
	// paper's §7 "multiple sockets" extension).
	DualHost = host.DualHost
	// UPIConfig models the socket interconnect.
	UPIConfig = numa.Config
	// CXLConfig models a CXL.mem expander and its link (§7 "new
	// interconnects").
	CXLConfig = cxl.Config
	// AuditConfig tunes the invariant auditor (Config.Audit). The zero
	// value disables auditing at zero overhead; set Enabled to have every
	// credit domain check conservation between events and cross-check its
	// latency probes against direct per-request timestamps at end of window.
	AuditConfig = audit.Config
	// AuditViolation is one detected invariant breach, attributed to the
	// owning domain and counter at a simulated timestamp.
	AuditViolation = audit.Violation
	// Auditor collects violations (or panics, under FailFast); reach it via
	// Host.Auditor / DualHost.Auditor.
	Auditor = audit.Auditor
	// FaultKind names a fault-injection mechanism (see the Fault* consts).
	FaultKind = fault.Kind
	// FaultWindow is one transient fault: a (start, duration, magnitude)
	// interval over one credit domain, in absolute simulated nanoseconds
	// from engine start.
	FaultWindow = fault.Window
	// FaultSchedule is a set of fault windows (Config.Faults /
	// Options.Faults); empty means a healthy run at zero overhead.
	FaultSchedule = fault.Schedule
	// FaultInjector schedules a FaultSchedule's windows through a host's
	// engine; reach it via Host.Faults / DualHost.Faults.
	FaultInjector = fault.Injector
	// Snapshot is an opaque capture of one engine's full simulation state
	// (clock, event heap, every credit domain, telemetry windows, RNG
	// streams, fault injector). Host.Snapshot and Fabric.Snapshot return
	// one; restoring it on the same host/fabric rewinds the run, and a
	// restored-then-continued run is byte-identical to a straight one.
	Snapshot = sim.Snapshot
	// Fabric is a rack: N hosts and their NICs connected through a ToR
	// switch, all on one shared event engine (so fabric runs keep the
	// single-host determinism guarantees).
	Fabric = fabric.Fabric
	// FabricConfig describes a rack (hosts, per-host config, NIC, ToR).
	FabricConfig = fabric.Config
	// FabricNICConfig models a host's fabric attachment (line rate, RX
	// buffer, PFC thresholds).
	FabricNICConfig = fabric.NICConfig
	// SwitchConfig models the ToR (port speed, queue caps, forwarding
	// latency, PFC thresholds).
	SwitchConfig = fabric.SwitchConfig
	// NodeID addresses a host Al-Fares style (10.pod.edge.host), leaving
	// room for a fat-tree above the single ToR.
	NodeID = fabric.NodeID
	// FabricSpec is the JobSpec's fabric section: rack shape and traffic
	// pattern, normalized so fabric scenarios stay content-addressable.
	FabricSpec = exp.FabricSpec
	// FlowSpec is one entry of a FabricSpec flow matrix.
	FlowSpec = exp.FlowSpec
	// IncastPoint is one rack-scale incast measurement.
	IncastPoint = exp.IncastPoint
	// IncastSweep is the incast experiment result (healthy points plus
	// faulted twins when a schedule is given).
	IncastSweep = exp.IncastSweep
)

// Fault kinds.
const (
	FaultLinkFlap     = fault.LinkFlap
	FaultPauseStorm   = fault.PauseStorm
	FaultDRAMThrottle = fault.DRAMThrottle
	FaultBankOffline  = fault.BankOffline
	FaultIIOStarve    = fault.IIOStarve
	FaultLaneDegrade  = fault.LaneDegrade
)

// Time units.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Domains.
const (
	C2MRead  = core.C2MRead
	C2MWrite = core.C2MWrite
	P2MRead  = core.P2MRead
	P2MWrite = core.P2MWrite
)

// Regimes.
const (
	NoContention = core.NoContention
	Blue         = core.Blue
	Red          = core.Red
)

// Quadrants.
const (
	Q1 = exp.Q1
	Q2 = exp.Q2
	Q3 = exp.Q3
	Q4 = exp.Q4
)

// DMA directions for storage workloads.
const (
	// DMAWrite models storage reads: the device writes host memory.
	DMAWrite = periph.DMAWrite
	// DMARead models storage writes: the device reads host memory.
	DMARead = periph.DMARead
)

// CascadeLake returns the Table 1 Cascade Lake preset.
func CascadeLake() Config { return host.CascadeLake() }

// IceLake returns the Table 1 Ice Lake preset.
func IceLake() Config { return host.IceLake() }

// New assembles a host.
func New(cfg Config) *Host { return host.New(cfg) }

// NewDual assembles a two-socket host with the given per-socket config.
func NewDual(cfg Config, upi UPIConfig) *DualHost { return host.NewDual(cfg, upi) }

// DefaultUPIConfig returns a ~40 ns, ~20 GB/s-per-direction socket link.
func DefaultUPIConfig() UPIConfig { return numa.DefaultConfig() }

// NewWithCXL assembles a host with a CXL.mem expander; allocate expander-
// homed buffers with the host's CXLRegion.
func NewWithCXL(cfg Config, cxlCfg CXLConfig) *Host { return host.NewWithCXL(cfg, cxlCfg) }

// DefaultCXLConfig returns a single-channel expander behind a ~32 GB/s,
// ~85 ns-one-way link (unloaded reads ~210-250 ns).
func DefaultCXLConfig() CXLConfig { return cxl.DefaultConfig() }

// SeqRead returns the paper's C2M-Read workload (sequential AVX512-style
// loads over a private buffer).
func SeqRead(base Addr, bytes int64) Generator { return workload.NewSeqRead(base, bytes) }

// SeqReadWrite returns the paper's C2M-ReadWrite workload (sequential
// stores: RFO reads plus eviction writebacks, 50/50 memory traffic).
func SeqReadWrite(base Addr, bytes int64) Generator { return workload.NewSeqReadWrite(base, bytes) }

// RandRead returns a GAPBS-PageRank-style uniform-random read stream.
func RandRead(base Addr, bytes int64, seed uint64) Generator {
	return workload.NewRandRead(base, bytes, seed)
}

// MixedRandom returns a random stream with the given write fraction and
// per-access compute gap.
func MixedRandom(base Addr, bytes int64, writeFrac float64, gap Time, seed uint64) Generator {
	return workload.NewMix(base, bytes, writeFrac, gap, seed)
}

// SeqMix returns a sequential stream where each line is stored (RFO read +
// writeback) with the given probability — the knob behind read/write-ratio
// sweeps.
func SeqMix(base Addr, bytes int64, writeFrac float64, seed uint64) Generator {
	return workload.NewSeqMix(base, bytes, writeFrac, seed)
}

// Trace is a replayable access sequence; Record and Replay make workloads
// portable across host configurations.
type Trace = workload.Trace

// Record wraps a generator, capturing up to limit accesses; retrieve the
// capture with the returned recorder's Trace method.
func Record(inner Generator, limit int) *workload.Recorder {
	return workload.NewRecorder(inner, limit)
}

// ReplayTrace replays a recorded trace, honoring its request spacing.
func ReplayTrace(t Trace, loop bool) Generator { return workload.NewReplay(t, loop) }

// BulkStorage returns the paper's bulk FIO workload (8 MB sequential
// requests, deep queue).
func BulkStorage(dir periph.Direction, base Addr) StorageConfig {
	return periph.BulkConfig(dir, base)
}

// ProbeStorage returns the low-load probe (4 KB requests at queue depth 1).
func ProbeStorage(dir periph.Direction, base Addr) StorageConfig {
	return periph.ProbeConfig(dir, base)
}

// CascadeLakeDomains returns the §4.2 characterization of the four domains.
func CascadeLakeDomains() [4]Domain { return core.CascadeLakeDomains() }

// Classify maps (C2M, P2M) degradation factors to a contention regime.
func Classify(c2mDegr, p2mDegr float64) Regime { return core.Classify(c2mDegr, p2mDegr) }

// Explain produces the causal narrative for a domain measurement pair.
func Explain(d Domain, loaded, unloaded Measurement) string {
	return core.Explain(d, loaded, unloaded)
}

// DefaultOptions returns the experiment defaults (Cascade Lake, DDIO off,
// 20 us warmup, 100 us window). Multi-point sweeps run on a worker pool
// sized by Options.Parallelism (default 0 = one worker per CPU); every
// sweep point builds its own Host and engine, so results are bit-identical
// at any parallelism — see WithParallelism.
func DefaultOptions() Options { return exp.Defaults() }

// WithParallelism returns opt with the sweep worker pool bounded to n
// workers: 1 forces serial execution, 0 restores the one-per-CPU default.
// Parallel and serial runs of the same experiment produce byte-identical
// output (the determinism tests in internal/exp pin this).
func WithParallelism(opt Options, n int) Options {
	opt.Parallelism = n
	return opt
}

// WithAudit returns opt with invariant auditing switched on or off for every
// host the experiment builds. Audited runs fail fast: any conservation
// violation panics with the domain, counter, and simulated timestamp.
// Auditing never schedules events or perturbs state, so results are
// identical either way; it only costs wall-clock time.
func WithAudit(opt Options, on bool) Options {
	opt.Audit = on
	return opt
}

// WithFaults returns opt with the fault schedule applied to every host the
// experiment builds. Fault windows run through the event engine, so faulted
// runs keep the determinism guarantees: bit-identical at any parallelism,
// identical with auditing on or off. An empty schedule restores healthy
// hosts at zero overhead.
func WithFaults(opt Options, s FaultSchedule) Options {
	opt.Faults = s
	return opt
}

// Experiment entry points, one per paper artifact. Each returns structured
// results; the matching Render* helper prints the same rows the paper
// reports.
var (
	RunFig3  = exp.RunFig3
	RunFig6  = exp.RunFig6
	RunFig11 = exp.RunFig11
	RunFig18 = exp.RunFig18
	RunFig19 = exp.RunFig19
	RunFig27 = exp.RunFig27
	RunFig29 = exp.RunFig29
	RunFig1  = exp.RunFig1
	RunFig2  = exp.RunFig2
	RunFig15 = exp.RunFig15
	RunFig16 = exp.RunFig16
	RunFig17 = exp.RunFig17

	RunQuadrant         = exp.RunQuadrant
	RunRDMAQuadrant     = exp.RunRDMAQuadrant
	RunFaultSweep       = exp.RunFaultSweep
	RunIncast           = exp.RunIncast
	RunDCTCP            = exp.RunDCTCP
	RunPrefetchStudy    = exp.RunPrefetchStudy
	RunHostCCStudy      = exp.RunHostCCStudy
	RunMCIsolationStudy = exp.RunMCIsolationStudy
)

// DefaultPrefetcher returns the L2-stream-prefetcher template; assign it to
// Config.Core.Prefetch to enable prefetching.
func DefaultPrefetcher() *Prefetcher { return cpu.DefaultPrefetcher() }

// NewHostCC builds a host congestion controller over a host's C2M cores;
// call Start before Run.
func NewHostCC(h *Host, cfg HostCCConfig) *HostCC {
	return hostcc.New(h.Eng, cfg, h.IIO, h.CHA, h.Cores)
}

// DefaultHostCCConfig returns the Cascade-Lake-tuned controller parameters.
func DefaultHostCCConfig() HostCCConfig { return hostcc.DefaultConfig() }

// Rendering helpers.
func RenderTable1(w io.Writer) { exp.RenderTable1(w) }
func RenderQuadrants(w io.Writer, res map[Quadrant][]exp.QuadrantPoint) {
	exp.RenderQuadrants(w, res)
}
func RenderDomainEvidence(w io.Writer, ev exp.DomainEvidence) { exp.RenderDomainEvidence(w, ev) }
func RenderFormula(w io.Writer, res map[Quadrant][]exp.FormulaPoint) {
	exp.RenderFormula(w, res)
}
func RenderRDMA(w io.Writer, res map[Quadrant][]exp.RDMAQuadrantPoint) { exp.RenderRDMA(w, res) }
func RenderDCTCP(w io.Writer, read, rw []exp.DCTCPPoint)               { exp.RenderDCTCP(w, read, rw) }
func RenderIncast(w io.Writer, s *IncastSweep)                         { exp.RenderIncast(w, s) }

// NewFabric assembles a rack of hosts behind a ToR switch on one engine.
func NewFabric(cfg FabricConfig) *Fabric { return fabric.New(cfg) }

// DefaultFabricConfig returns a Cascade Lake rack of `hosts` hosts on a
// 100 Gbps ToR.
func DefaultFabricConfig(hosts int) FabricConfig { return fabric.DefaultConfig(hosts) }
