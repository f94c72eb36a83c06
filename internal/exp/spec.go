package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/hostcc"
	"repro/internal/sim"
)

// Spec is the machine-readable description of one experiment job: the
// common currency of `hostnetsim -format json` and the hostnetd daemon.
// Because every sweep is deterministic and bit-identical at any parallelism
// (pinned by the determinism tests in this package), a Spec fully determines
// its result — which is what makes results content-addressable: hostnetd
// caches and deduplicates jobs by Hash of the normalized Spec.
//
// Execution-only knobs (parallelism, audit, progress observation) are
// deliberately NOT part of the Spec: they cannot change the result, so they
// must not change the cache key.
type Spec struct {
	// Experiment names the artifact; Experiments() lists the valid names.
	Experiment string `json:"experiment"`
	// WarmupNs and WindowNs are the simulated warmup and measurement
	// interval in nanoseconds; 0 means the §2.2 defaults (20 000 / 100 000).
	WarmupNs int64 `json:"warmup_ns,omitempty"`
	WindowNs int64 `json:"window_ns,omitempty"`
	// Preset picks the testbed: "cascadelake" (default) or "icelake".
	// Ignored by the app figures, which fix their own testbed.
	Preset string `json:"preset,omitempty"`
	// DDIO enables DDIO where the experiment honors the knob.
	DDIO bool `json:"ddio,omitempty"`
	// Quadrant selects the §2.2 scenario (1-4) for quadrant/rdma/hostcc.
	Quadrant int `json:"quadrant,omitempty"`
	// Cores is the C2M core-count sweep; experiments that take a single
	// count (ratio, hostcc, mcisolation, prefetch) use the first element.
	Cores []int `json:"cores,omitempty"`
	// WriteFracs is the store-fraction sweep of the ratio experiment.
	WriteFracs []float64 `json:"write_fracs,omitempty"`
	// Reserve is the per-channel WPQ reservation of mcisolation.
	Reserve int `json:"reserve,omitempty"`
	// Faults schedules transient degradation windows for experiments that
	// honor them (quadrant, rdma, hostcc, faultsweep, incast). Faults change
	// results, so they are part of the spec — and thus of the cache key —
	// unlike the execution-only knobs. Times are absolute simulated
	// nanoseconds from engine start (warmup begins at 0).
	Faults []fault.Window `json:"faults,omitempty"`
	// Fabric is the rack shape and traffic pattern for multi-host
	// experiments (incast). Nil means the experiment's default rack.
	Fabric *FabricSpec `json:"fabric,omitempty"`
	// Fidelity picks the tier that answers the spec: "sim" (default) runs
	// the full discrete-event simulation; "analytic" answers from the §7
	// predictive model in microseconds, for the specs the model covers
	// (quadrant/rdma/hostcc points on the calibrated testbed). Fidelity
	// changes the result, so it participates in the content address —
	// normalization maps "sim" to the absent field, keeping every
	// pre-fidelity content address unchanged.
	Fidelity string `json:"fidelity,omitempty"`
}

// The fidelity tiers.
const (
	FidelitySim      = "sim"
	FidelityAnalytic = "analytic"
)

// Default simulated intervals (§2.2: 20 us warmup, 100 us window).
const (
	DefaultWarmupNs = 20_000
	DefaultWindowNs = 100_000
)

// specShape declares which Spec knobs an experiment reads, plus its
// defaults; normalization clears unread knobs so equivalent specs hash
// equal.
type specShape struct {
	preset   bool // honors Preset
	ddio     bool // honors DDIO
	quadrant bool // honors Quadrant
	cores    bool // honors Cores
	fracs    bool // honors WriteFracs
	reserve  bool // honors Reserve
	faults   bool // honors Faults
	fabric   bool // honors Fabric

	defQuadrant int
	defCores    []int
	defFaults   bool // empty Faults means the default demo schedule
}

var sweepShape = specShape{preset: true, ddio: true, quadrant: true, cores: true, faults: true, defQuadrant: 1}

var specShapes = map[string]specShape{
	// Full figures: every knob beyond interval/ddio is fixed by the figure.
	"fig3":  {preset: true, ddio: true},
	"fig6":  {preset: true, ddio: true},
	"fig11": {preset: true, ddio: true},
	"fig18": {preset: true, ddio: true},
	"fig19": {preset: true, ddio: true},
	"fig27": {preset: true, ddio: true},
	"fig29": {preset: true, ddio: true},
	// App figures fix preset and DDIO pairing themselves.
	"fig1":  {},
	"fig2":  {},
	"fig15": {},
	"fig16": {},
	"fig17": {},
	// Parameterized sweeps and studies.
	"quadrant":    sweepShape,
	"rdma":        sweepShape,
	"ratio":       {preset: true, ddio: true, cores: true, fracs: true, defCores: []int{5}},
	"hostcc":      {preset: true, ddio: true, quadrant: true, cores: true, faults: true, defQuadrant: 3, defCores: []int{5}},
	"mcisolation": {preset: true, ddio: true, cores: true, reserve: true, defCores: []int{5}},
	"prefetch":    {preset: true, ddio: true, cores: true, defCores: []int{2}},
	// faultsweep pairs a healthy and a faulted RDMA quadrant sweep (a
	// Fig-3-style quadrant under degradation); an empty fault list gets the
	// default storm/throttle/starvation demo schedule.
	"faultsweep": {preset: true, ddio: true, quadrant: true, cores: true, faults: true,
		defQuadrant: 3, defCores: []int{2, 4, 6}, defFaults: true},
	// incast is the rack-scale experiment: M senders converge on a receiver
	// whose host network is the bottleneck. Cores[0] is the receiver's
	// colocated C2M core count; the fabric section shapes the rack.
	"incast": {preset: true, ddio: true, cores: true, faults: true, fabric: true, defCores: []int{4}},
	// crossval runs both fidelity tiers on the same quadrant points and
	// reports the analytic-vs-sim error per point. The analytic side fixes
	// its own testbed (Cascade Lake, DDIO off, no faults), so only the
	// quadrant and core sweep are honored.
	"crossval": {quadrant: true, cores: true, defQuadrant: 1},
}

// Experiments lists the valid Spec.Experiment names, sorted.
func Experiments() []string {
	names := make([]string, 0, len(specShapes))
	for name := range specShapes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// defaultWriteFracs is the ratio experiment's store-fraction sweep.
func defaultWriteFracs() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1} }

// Normalized returns the canonical form of the spec: defaults filled in and
// knobs the experiment does not read cleared, so that every spec describing
// the same computation normalizes to the same value. Hash and Canonical
// operate on this form.
func (s Spec) Normalized() Spec {
	n := Spec{Experiment: s.Experiment, WarmupNs: s.WarmupNs, WindowNs: s.WindowNs}
	if n.WarmupNs <= 0 {
		n.WarmupNs = DefaultWarmupNs
	}
	if n.WindowNs <= 0 {
		n.WindowNs = DefaultWindowNs
	}
	// "sim" is the default tier: normalize it to the absent field so specs
	// submitted before fidelity existed keep their content addresses
	// byte-for-byte (pinned by TestFidelityHashInvariance). Any other
	// value — including unknown ones Validate rejects — is kept and hashes
	// distinctly.
	if s.Fidelity != "" && s.Fidelity != FidelitySim {
		n.Fidelity = s.Fidelity
	}
	if n.Fidelity == FidelityAnalytic {
		// The closed-form model has no simulated clock: the interval knobs
		// are unread, so clear them like any other unread knob and let
		// every (warmup, window) variant collapse onto one address.
		n.WarmupNs, n.WindowNs = 0, 0
	}
	shape, ok := specShapes[s.Experiment]
	if !ok {
		return n // validation rejects it; keep the rest untouched
	}
	if shape.preset && s.Preset != "" && s.Preset != "cascadelake" {
		n.Preset = s.Preset
	}
	if shape.ddio {
		n.DDIO = s.DDIO
	}
	if shape.quadrant {
		n.Quadrant = s.Quadrant
		if n.Quadrant == 0 {
			n.Quadrant = shape.defQuadrant
		}
	}
	if shape.cores {
		n.Cores = append([]int(nil), s.Cores...)
		if len(n.Cores) == 0 {
			if shape.defCores != nil {
				n.Cores = append([]int(nil), shape.defCores...)
			} else {
				n.Cores = DefaultCoreSweep()
			}
		}
	}
	if shape.fracs {
		n.WriteFracs = append([]float64(nil), s.WriteFracs...)
		if len(n.WriteFracs) == 0 {
			n.WriteFracs = defaultWriteFracs()
		}
	}
	if shape.reserve {
		n.Reserve = s.Reserve
		if n.Reserve == 0 {
			n.Reserve = 16
		}
	}
	if shape.faults {
		n.Faults = fault.Schedule(s.Faults).Normalized()
		if n.Faults == nil && shape.defFaults {
			n.Faults = DefaultFaultSchedule(n.WarmupNs, n.WindowNs)
		}
	}
	if shape.fabric {
		fs := FabricSpec{}
		if s.Fabric != nil {
			fs = *s.Fabric
		}
		nf := fs.Normalized()
		n.Fabric = &nf
	}
	return n
}

// DefaultFaultSchedule is the faultsweep demo: a PFC pause storm, a DRAM
// channel throttle, and an IIO credit starvation staggered across the
// measurement window so each domain's degradation and recovery is visible.
func DefaultFaultSchedule(warmupNs, windowNs int64) fault.Schedule {
	q := windowNs / 4
	if q <= 0 {
		q = 1
	}
	return fault.Schedule{
		{Kind: fault.PauseStorm, StartNs: warmupNs + q/2, DurationNs: q},
		{Kind: fault.DRAMThrottle, StartNs: warmupNs + 2*q, DurationNs: q, Channel: 0},
		{Kind: fault.IIOStarve, StartNs: warmupNs + 3*q, DurationNs: q},
	}.Normalized()
}

// Validate checks a spec without normalizing it; RunSpec validates the
// normalized form, so callers usually go through Canonical or RunSpec.
func (s Spec) Validate() error {
	shape, ok := specShapes[s.Experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q (valid: %v)", s.Experiment, Experiments())
	}
	if s.WarmupNs < 0 || s.WindowNs < 0 {
		return fmt.Errorf("negative interval: warmup_ns=%d window_ns=%d", s.WarmupNs, s.WindowNs)
	}
	switch s.Fidelity {
	case "", FidelitySim, FidelityAnalytic:
	default:
		return fmt.Errorf("unknown fidelity %q (valid: %q, %q)", s.Fidelity, FidelitySim, FidelityAnalytic)
	}
	if s.Fidelity == FidelityAnalytic && s.Experiment == "crossval" {
		return fmt.Errorf("crossval is inherently cross-fidelity; submit it without fidelity=analytic")
	}
	if shape.preset {
		switch s.Preset {
		case "", "cascadelake", "icelake":
		default:
			return fmt.Errorf("unknown preset %q (valid: cascadelake, icelake)", s.Preset)
		}
	}
	if shape.quadrant && s.Quadrant != 0 && (s.Quadrant < 1 || s.Quadrant > 4) {
		return fmt.Errorf("quadrant %d out of range 1-4", s.Quadrant)
	}
	for _, c := range s.Cores {
		if c < 1 {
			return fmt.Errorf("core count %d < 1", c)
		}
	}
	for _, f := range s.WriteFracs {
		if f < 0 || f > 1 {
			return fmt.Errorf("write fraction %v outside [0,1]", f)
		}
	}
	if s.Reserve < 0 {
		return fmt.Errorf("reserve %d < 0", s.Reserve)
	}
	if shape.faults {
		if err := fault.Schedule(s.Faults).Validate(); err != nil {
			return err
		}
	}
	if shape.fabric && s.Fabric != nil {
		if err := s.Fabric.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns the canonical JSON encoding of the normalized spec:
// fixed field order (struct order), defaults made explicit, unread knobs
// dropped. Two specs describing the same computation produce identical
// bytes — the soundness basis of hostnetd's content-addressed cache.
func (s Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the content address of the spec: hex SHA-256 of Canonical.
func (s Spec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// options applies the spec's result-affecting knobs onto the caller's
// execution options (parallelism, audit, ctx, progress pass through).
func (n Spec) options(opt Options) Options {
	opt.Warmup = sim.Time(n.WarmupNs) * sim.Nanosecond
	opt.Window = sim.Time(n.WindowNs) * sim.Nanosecond
	opt.DDIO = n.DDIO
	if n.Preset == "icelake" {
		opt.Preset = host.IceLake
	} else {
		opt.Preset = host.CascadeLake
	}
	opt.Faults = fault.Schedule(n.Faults)
	return opt
}

// Fig19Result pairs the two TCP case studies of Fig 19/25/26.
type Fig19Result struct {
	Read      []DCTCPPoint
	ReadWrite []DCTCPPoint
}

// Fig29Result pairs the two formula-validation series of Fig 29/30.
type Fig29Result struct {
	Read      []DCTCPFormulaPoint
	ReadWrite []DCTCPFormulaPoint
}

// RunSpec normalizes, validates, and executes a spec, returning the
// experiment's structured result (the same value the Run* entry points
// return). Execution-only behavior — worker-pool size, auditing,
// cancellation, progress — comes from opt; the result depends only on the
// spec. Cancellation through Options.BaseCtx comes back as a wrapped
// context error; panics inside the simulation (genuine bugs, audit
// violations) propagate so callers wanting isolation can wrap RunSpec in
// runner.Do, as hostnetd does.
func RunSpec(s Spec, opt Options) (v any, err error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if n.Fidelity == FidelityAnalytic {
		// The analytic tier is pure arithmetic: no engine, no options, no
		// cancellation window. Specs outside the model's domain come back
		// as a wrapped *analytic.UnsupportedError (HTTP 422 in hostnetd).
		return runSpecAnalytic(n)
	}
	opt = n.options(opt)
	// The sweep helpers (pdo/pmap) re-raise pool errors as panics because
	// the typed Run* entry points have no error returns; at this boundary a
	// cancellation is an expected outcome, not a bug, so translate it back.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
			v, err = nil, fmt.Errorf("experiment %s interrupted: %w", n.Experiment, e)
			return
		}
		panic(r)
	}()
	switch n.Experiment {
	case "fig3":
		return RunFig3(opt), nil
	case "fig6":
		return RunFig6(opt), nil
	case "fig11":
		return RunFig11(opt), nil
	case "fig18":
		return RunFig18(opt), nil
	case "fig19":
		read, rw := RunFig19(opt)
		return Fig19Result{Read: read, ReadWrite: rw}, nil
	case "fig27":
		return RunFig27(opt), nil
	case "fig29":
		read, rw := RunFig29(opt)
		return Fig29Result{Read: read, ReadWrite: rw}, nil
	case "fig1":
		return RunFig1(opt), nil
	case "fig2":
		return RunFig2(opt), nil
	case "fig15":
		return RunFig15(opt), nil
	case "fig16":
		return RunFig16(opt), nil
	case "fig17":
		return RunFig17(opt), nil
	case "quadrant":
		return RunQuadrant(Quadrant(n.Quadrant), n.Cores, opt), nil
	case "rdma":
		return RunRDMAQuadrant(Quadrant(n.Quadrant), n.Cores, opt), nil
	case "ratio":
		return RunRatioSweep(n.Cores[0], n.WriteFracs, opt), nil
	case "hostcc":
		return RunHostCCStudy(Quadrant(n.Quadrant), n.Cores[0], hostcc.DefaultConfig(), opt), nil
	case "mcisolation":
		return RunMCIsolationStudy(n.Cores[0], n.Reserve, opt), nil
	case "prefetch":
		return RunPrefetchStudy(n.Cores[0], opt), nil
	case "faultsweep":
		return RunFaultSweep(Quadrant(n.Quadrant), n.Cores, fault.Schedule(n.Faults), opt), nil
	case "incast":
		return RunIncast(*n.Fabric, n.Cores[0], fault.Schedule(n.Faults), opt), nil
	case "crossval":
		return RunCrossval(Quadrant(n.Quadrant), n.Cores, opt)
	}
	return nil, fmt.Errorf("experiment %q validated but not dispatchable", n.Experiment)
}

// NewResultValue returns a pointer to the zero value of the experiment's
// concrete result type, for decoding a Result envelope's payload back into
// typed form. Nil for unknown experiments.
func NewResultValue(experiment string) any {
	switch experiment {
	case "fig3":
		return &map[Quadrant][]QuadrantPoint{}
	case "fig6":
		return &DomainEvidence{}
	case "fig11", "fig27":
		return &map[Quadrant][]FormulaPoint{}
	case "fig18":
		return &map[Quadrant][]RDMAQuadrantPoint{}
	case "fig19":
		return &Fig19Result{}
	case "fig29":
		return &Fig29Result{}
	case "fig1":
		return &Fig1Result{}
	case "fig2":
		return &Fig2Result{}
	case "fig15", "fig16", "fig17":
		return &AppGridResult{}
	case "quadrant":
		return &[]QuadrantPoint{}
	case "rdma":
		return &[]RDMAQuadrantPoint{}
	case "ratio":
		return &[]RatioPoint{}
	case "hostcc":
		return &HostCCStudy{}
	case "mcisolation":
		return &MCIsolationStudy{}
	case "prefetch":
		return &PrefetchStudy{}
	case "faultsweep":
		return &FaultSweep{}
	case "incast":
		return &IncastSweep{}
	case "crossval":
		return &CrossvalResult{}
	}
	return nil
}

// NewSpecResultValue is the fidelity-aware variant of NewResultValue: an
// analytic-fidelity spec's payload decodes into []AnalyticPoint regardless
// of experiment, a sim spec's into the experiment's sim result type.
func NewSpecResultValue(s Spec) any {
	if s.Normalized().Fidelity == FidelityAnalytic {
		return &[]AnalyticPoint{}
	}
	return NewResultValue(s.Experiment)
}

// Result is the JSON envelope emitted for a completed spec: the normalized
// spec that produced the payload, then the payload itself. Both
// `hostnetsim -format json` and hostnetd's result endpoint emit exactly
// these bytes (compact encoding/json, stable struct field order), so the
// two surfaces are byte-identical for the same spec — pinned by the
// end-to-end test in internal/serve.
type Result struct {
	Spec   Spec `json:"spec"`
	Result any  `json:"result"`
}

// RunSpecJSON executes a spec and returns the canonical JSON Result bytes.
// Determinism makes these bytes a pure function of the spec: the JSON from
// any parallelism, any surface (CLI or daemon), any repeat run is
// byte-identical (pinned by TestRunSpecJSONDeterministic).
func RunSpecJSON(s Spec, opt Options) ([]byte, error) {
	n := s.Normalized()
	v, err := RunSpec(n, opt)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(Result{Spec: n, Result: v})
	if err != nil {
		return nil, fmt.Errorf("encoding %s result: %w", n.Experiment, err)
	}
	return b, nil
}

// SpecTasks estimates the number of sweep tasks a spec fans out (the number
// of Options.Progress callbacks a run will make), so streaming clients can
// show completion against a known denominator. 0 means unknown.
func SpecTasks(s Spec) int {
	n := s.Normalized()
	if n.Fidelity == FidelityAnalytic {
		return 0 // answered inline; no sweep tasks, no progress stream
	}
	// A quadrant-style sweep runs one task per core count plus one baseline;
	// pdo/pmap also count the enclosing fan-out tasks.
	sweep := func(counts int) int { return counts + 1 }
	switch n.Experiment {
	case "fig3":
		// RunFig3 dedups the 4x13 logical runs to the unique-key set: two
		// C2M iso baselines per core count, two device baselines, and the
		// four quadrants' colocated runs.
		return 2*len(DefaultCoreSweep()) + 2 + 4*len(DefaultCoreSweep())
	case "fig18":
		return 4 + 4*sweep(len(DefaultCoreSweep()))
	case "fig11", "fig27":
		return 4 + 4*sweep(len(DefaultCoreSweep()))
	case "fig19":
		return 2 + 2*sweep(4)
	case "fig29":
		return 2 + 2*sweep(4)
	case "fig1":
		return 2 + 2*sweep(6)
	case "fig2":
		return 4 + 4*sweep(6)
	case "fig15", "fig16", "fig17":
		return 4 + 4*sweep(4)
	case "quadrant", "rdma", "crossval":
		return sweep(len(n.Cores))
	case "ratio":
		return sweep(len(n.WriteFracs))
	case "faultsweep":
		return 2 + 2*sweep(len(n.Cores))
	case "incast":
		d := len(n.Fabric.degrees())
		if len(n.Faults) == 0 {
			return d
		}
		return 2 + 2*d
	}
	return 0
}
