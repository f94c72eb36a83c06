package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/workload"
)

// FlowSpec is one entry of a fabric flow matrix: a unidirectional stream
// from host Src to host Dst at Rate (fraction of NIC line rate in (0, 1];
// 0 means full rate).
type FlowSpec struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Rate float64 `json:"rate,omitempty"`
}

// FabricSpec is the Spec's fabric section: rack shape and traffic pattern
// for multi-host experiments. Like every other spec knob it normalizes to a
// canonical form so fabric scenarios stay content-addressable.
type FabricSpec struct {
	// Hosts is the number of hosts on the ToR (default 4).
	Hosts int `json:"hosts,omitempty"`
	// Incast is the maximum incast degree: the experiment sweeps 1..Incast
	// senders converging on host 0. Default (and cap) is Hosts-1. Ignored —
	// and cleared — when Flows is set.
	Incast int `json:"incast,omitempty"`
	// Degree, when nonzero, restricts the run to the single given incast
	// degree instead of sweeping 1..Incast. This is the sub-spec form
	// Spec.Points emits so a fleet coordinator can shard an incast sweep
	// point-by-point; each degree is an independent simulation, so the
	// single-degree run is bit-identical to the matching point of the full
	// sweep. Mutually exclusive with Flows; clears Incast when set.
	Degree int `json:"degree,omitempty"`
	// FaultHost selects which host the spec's fault schedule targets.
	FaultHost int `json:"fault_host,omitempty"`
	// Flows, when non-empty, replaces the incast pattern with an explicit
	// flow matrix, run as a single point.
	Flows []FlowSpec `json:"flows,omitempty"`
}

// MaxFabricHosts bounds rack size; a ToR has finitely many ports.
const MaxFabricHosts = 64

// Normalized returns the canonical fabric section: defaults filled, the
// incast degree clamped to the host count, flows sorted with explicit
// rates. Ignored knobs are cleared so equivalent specs hash equal.
func (fs FabricSpec) Normalized() FabricSpec {
	n := FabricSpec{Hosts: fs.Hosts, FaultHost: fs.FaultHost}
	if n.Hosts == 0 {
		n.Hosts = 4
	}
	if len(fs.Flows) > 0 {
		n.Flows = make([]FlowSpec, len(fs.Flows))
		for i, fl := range fs.Flows {
			if fl.Rate == 0 {
				fl.Rate = 1
			}
			n.Flows[i] = fl
		}
		sort.SliceStable(n.Flows, func(i, j int) bool {
			a, b := n.Flows[i], n.Flows[j]
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			if a.Dst != b.Dst {
				return a.Dst < b.Dst
			}
			return a.Rate < b.Rate
		})
		return n
	}
	if fs.Degree > 0 {
		n.Degree = fs.Degree
		if n.Degree > n.Hosts-1 {
			n.Degree = n.Hosts - 1
		}
		return n
	}
	n.Incast = fs.Incast
	if n.Incast == 0 || n.Incast > n.Hosts-1 {
		n.Incast = n.Hosts - 1
	}
	return n
}

// Validate checks the fabric section (normalized or not).
func (fs FabricSpec) Validate() error {
	hosts := fs.Hosts
	if hosts == 0 {
		hosts = 4
	}
	if hosts < 2 || hosts > MaxFabricHosts {
		return fmt.Errorf("fabric: hosts %d outside [2, %d]", hosts, MaxFabricHosts)
	}
	if fs.Incast < 0 {
		return fmt.Errorf("fabric: incast %d < 0", fs.Incast)
	}
	if fs.Degree < 0 {
		return fmt.Errorf("fabric: degree %d < 0", fs.Degree)
	}
	if fs.Degree > 0 && len(fs.Flows) > 0 {
		return fmt.Errorf("fabric: degree and flows are mutually exclusive")
	}
	if fs.FaultHost < 0 || fs.FaultHost >= hosts {
		return fmt.Errorf("fabric: fault_host %d outside [0, %d)", fs.FaultHost, hosts)
	}
	if len(fs.Flows) > MaxFabricHosts*MaxFabricHosts {
		return fmt.Errorf("fabric: %d flows exceed the limit of %d", len(fs.Flows), MaxFabricHosts*MaxFabricHosts)
	}
	for i, fl := range fs.Flows {
		if fl.Src < 0 || fl.Src >= hosts || fl.Dst < 0 || fl.Dst >= hosts {
			return fmt.Errorf("fabric: flow[%d] endpoints (%d -> %d) outside [0, %d)", i, fl.Src, fl.Dst, hosts)
		}
		if fl.Src == fl.Dst {
			return fmt.Errorf("fabric: flow[%d] source equals destination (%d)", i, fl.Src)
		}
		if fl.Rate < 0 || fl.Rate > 1 {
			return fmt.Errorf("fabric: flow[%d] rate %v outside (0, 1]", i, fl.Rate)
		}
	}
	return nil
}

// degrees lists the sweep points: incast degrees 1..Incast, or a single
// point when Degree pins one or an explicit flow matrix is given.
func (fs FabricSpec) degrees() []int {
	if fs.Degree > 0 {
		return []int{fs.Degree}
	}
	if len(fs.Flows) > 0 {
		srcs := map[int]bool{}
		for _, fl := range fs.Flows {
			srcs[fl.Src] = true
		}
		return []int{len(srcs)}
	}
	out := make([]int, fs.Incast)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// IncastPoint is one fabric run: M senders (or a flow matrix) against a
// receiver (host 0) running recvCores of colocated C2M read+write traffic so
// that its host network — not the ToR — is the narrowest element.
type IncastPoint struct {
	// Senders is the incast degree (distinct sources for a flow matrix).
	Senders int
	// Per-host NIC measurements, indexed by host.
	TxBW    []float64 // emitted wire bandwidth (bytes/s)
	TxPause []float64 // fraction of the window the ToR held the host's TX paused
	RxBW    []float64 // delivered DMA bandwidth (bytes/s)
	RxPause []float64 // fraction the host's NIC held the ToR egress paused
	// RxQueueOcc is the receiver NIC's average RX buffer occupancy (lines).
	RxQueueOcc float64
	// SwEgressOcc is the average egress-queue occupancy at the receiver's
	// switch port (lines) — the congestion the receiver's backpressure
	// pushes into the fabric.
	SwEgressOcc float64
	// Recv is the receiver host's full probe snapshot.
	Recv Measure
}

// ReceiverBW reports the receiver's delivered fabric bandwidth (bytes/s).
func (p IncastPoint) ReceiverBW() float64 { return p.RxBW[0] }

// ReceiverPauseFrac reports the fraction of the window the receiver's NIC
// held PFC pause asserted toward the switch.
func (p IncastPoint) ReceiverPauseFrac() float64 { return p.RxPause[0] }

// AggTxBW sums sender wire bandwidth (bytes/s).
func (p IncastPoint) AggTxBW() float64 {
	var sum float64
	for _, v := range p.TxBW {
		sum += v
	}
	return sum
}

// MaxSenderPause reports the largest per-sender TX pause fraction.
func (p IncastPoint) MaxSenderPause() float64 {
	var max float64
	for _, v := range p.TxPause {
		if v > max {
			max = v
		}
	}
	return max
}

// IncastSweep is the incast experiment result: one point per incast degree,
// healthy, plus a faulted twin of every point when a schedule is given.
type IncastSweep struct {
	Hosts     int
	RecvCores int
	FaultHost int
	Schedule  fault.Schedule
	Healthy   []IncastPoint
	Faulted   []IncastPoint
}

// runIncastPoint builds one rack on its own engine and measures it.
func runIncastPoint(fs FabricSpec, senders, recvCores int, sched fault.Schedule, opt Options) IncastPoint {
	cfg := fabric.DefaultConfig(fs.Hosts)
	hostCfg := opt.Preset()
	hostCfg.DDIO.Enabled = opt.DDIO
	hostCfg.DDIO.ScrambleEvictions = opt.DDIO
	cfg.Host = hostCfg
	cfg.Audit = opt.auditConfig()
	cfg.Faults = sched
	cfg.FaultHost = fs.FaultHost
	f := fabric.New(cfg)
	if len(fs.Flows) > 0 {
		for _, fl := range fs.Flows {
			f.AddFlow(fl.Src, fl.Dst, fl.Rate)
		}
	} else {
		f.AddIncast(0, senders)
	}
	// The colocated C2M read+write load is what pushes the receiver's DRAM
	// into the red regime (§2.2): with enough cores the WPQ backpressure
	// chain degrades P2M writes below wire rate, and the receiver — not the
	// ToR — becomes the incast bottleneck.
	for i := 0; i < recvCores; i++ {
		base := f.Hosts[0].Region(1 << 30)
		f.Hosts[0].AddCore(workload.NewSeqReadWrite(base, 1<<30))
	}
	f.Run(opt.Warmup, opt.Window)
	p := IncastPoint{
		Senders:     senders,
		RxQueueOcc:  f.NICs[0].RxQueueOcc.Avg(),
		SwEgressOcc: f.Switch.PortOutOccAvg(0),
	}
	for _, n := range f.NICs {
		p.TxBW = append(p.TxBW, n.TxBytesPerSec())
		p.TxPause = append(p.TxPause, n.TxPauseFrac.Frac())
		p.RxBW = append(p.RxBW, n.RxBytesPerSec())
		p.RxPause = append(p.RxPause, n.RxPauseFrac.Frac())
	}
	p.Recv = snapshot(f.Hosts[0])
	return p
}

// RunIncast runs the rack-scale incast sweep: for each degree m in
// 1..fab.Incast, m senders stream at line rate into host 0, which runs
// recvCores of colocated C2M traffic. A non-empty schedule adds a faulted
// twin of every point (the schedule applied to host fab.FaultHost and its
// NIC), following the faultsweep pairing. Every point builds its own fabric
// and engine on the options' pool, so results are bit-identical at any
// parallelism.
func RunIncast(fab FabricSpec, recvCores int, sched fault.Schedule, opt Options) *IncastSweep {
	fab = fab.Normalized()
	sched = sched.Normalized()
	degrees := fab.degrees()
	out := &IncastSweep{Hosts: fab.Hosts, RecvCores: recvCores, FaultHost: fab.FaultHost, Schedule: sched}
	if len(sched) == 0 {
		out.Healthy = pmap(opt, len(degrees), func(i int) IncastPoint {
			return runIncastPoint(fab, degrees[i], recvCores, nil, opt)
		})
		return out
	}
	pdo(opt,
		func() {
			out.Healthy = pmap(opt, len(degrees), func(i int) IncastPoint {
				return runIncastPoint(fab, degrees[i], recvCores, nil, opt)
			})
		},
		func() {
			out.Faulted = pmap(opt, len(degrees), func(i int) IncastPoint {
				return runIncastPoint(fab, degrees[i], recvCores, sched, opt)
			})
		},
	)
	return out
}

// incastTable renders one side of the sweep.
func incastTable(title string, pts []IncastPoint) *Table {
	t := &Table{
		Title: title,
		Header: []string{"senders", "rx GB/s", "rx pause", "rxQ occ", "sw egr occ",
			"agg tx GB/s", "max snd pause", "C2M GB/s", "WPQ full"},
	}
	for _, p := range pts {
		t.Add(p.Senders, gb(p.ReceiverBW()), p.ReceiverPauseFrac(), p.RxQueueOcc,
			p.SwEgressOcc, gb(p.AggTxBW()), p.MaxSenderPause(),
			gb(p.Recv.C2MBW), p.Recv.WPQFullFrac)
	}
	return t
}

// RenderIncast renders the incast sweep, healthy then (if present) faulted.
func RenderIncast(w io.Writer, s *IncastSweep) {
	base := fmt.Sprintf("Rack incast (%d hosts, %d rx cores)", s.Hosts, s.RecvCores)
	incastTable(base, s.Healthy).Render(w)
	if len(s.Faulted) > 0 {
		incastTable(base+fmt.Sprintf(" faulted (host %d)", s.FaultHost), s.Faulted).Render(w)
	}
}

// IncastCSV renders the sweep as one CSV table with a variant column.
func IncastCSV(s *IncastSweep) *Table {
	t := &Table{
		Title: "incast",
		Header: []string{"variant", "senders", "rx_gbps", "rx_pause_frac", "rxq_occ",
			"sw_egress_occ", "agg_tx_gbps", "max_sender_pause", "c2m_gbps", "wpq_full_frac"},
	}
	add := func(variant string, pts []IncastPoint) {
		for _, p := range pts {
			t.Add(variant, p.Senders, p.ReceiverBW()/1e9, p.ReceiverPauseFrac(), p.RxQueueOcc,
				p.SwEgressOcc, p.AggTxBW()/1e9, p.MaxSenderPause(),
				p.Recv.C2MBW/1e9, p.Recv.WPQFullFrac)
		}
	}
	add("healthy", s.Healthy)
	add("faulted", s.Faulted)
	return t
}
