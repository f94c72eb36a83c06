package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
)

// simSpecs are the sim workloads' job specs, exactly as a client submits
// them.
var simSpecs = map[string]string{
	"fig3":    `{"experiment":"fig3"}`,
	"incast8": `{"experiment":"incast","fabric":{"hosts":8}}`,
}

// The pinned execution knobs of the sim workloads: one sweep worker keeps
// 2-vCPU scheduling noise out of the number and leaves the other CPU to the
// garbage collector.
const (
	simParallelism   = 1
	simFabricWorkers = 1
)

// setupReps is how many times a sim child repeats its set-up (spec decode,
// normalize, validate, hash) to report the median: one set-up takes
// microseconds, too little to time once.
const setupReps = 2001

func simOptions() exp.Options {
	opt := exp.Defaults()
	opt.Audit = false
	opt.Parallelism = simParallelism
	opt.FabricWorkers = simFabricWorkers
	return opt
}

// specSetup is the set-up a sim job pays before the simulation starts:
// decode the submitted spec, normalize, validate, canonicalize and hash it.
func specSetup(raw []byte) (exp.Spec, error) {
	var s exp.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return exp.Spec{}, fmt.Errorf("decoding spec: %w", err)
	}
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return exp.Spec{}, err
	}
	if _, err := n.Canonical(); err != nil {
		return exp.Spec{}, err
	}
	_, err := n.Hash()
	return n, err
}

// phase measures a timed phase of one child process: wall clock, process
// CPU, heap bytes allocated and GC work.
type phase struct {
	t0                time.Time
	cpu               float64
	alloc, gcN, gcCPU float64
}

var phaseMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readPhase() (cpu, alloc, gcN, gcCPU float64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	s := make([]metrics.Sample, len(phaseMetrics))
	for i, n := range phaseMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return cpu, float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64()
}

// beginPhase collects garbage left by set-up, so every timed phase starts
// from the same heap, then starts the clocks.
func beginPhase() phase {
	runtime.GC()
	var p phase
	p.cpu, p.alloc, p.gcN, p.gcCPU = readPhase()
	p.t0 = time.Now()
	return p
}

// end stops the clocks and files the phase's figures in r.
func (p phase) end(r *iterResult) {
	r.WallS = time.Since(p.t0).Seconds()
	cpu, alloc, gcN, gcCPU := readPhase()
	r.CPUS = cpu - p.cpu
	r.AllocMB = (alloc - p.alloc) / 1e6
	r.GCCycles = gcN - p.gcN
	r.GCCPUS = gcCPU - p.gcCPU
}

// runSimIteration runs one fig3 or incast8 job: set-up, the timed
// simulation, and the result checks.
func runSimIteration(workload string, tr *tracer) (*iterResult, error) {
	raw := []byte(simSpecs[workload])
	r := &iterResult{Workload: workload, Attempted: 1}
	sp := tr.begin("exp.spec_setup", -1, -1)
	setups := make([]float64, setupReps)
	var spec exp.Spec
	for i := range setups {
		t := time.Now()
		s, err := specSetup(raw)
		setups[i] = time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		spec = s
	}
	tr.end(sp)
	r.SetupS = median(setups)

	opt := simOptions()
	var (
		mu     sync.Mutex
		taskMS []float64
		prev   time.Time
		root   = -1
	)
	if tr != nil {
		// One worker runs the sweep tasks back to back, so the time between
		// consecutive Progress calls is one task's duration.
		opt.Progress = func() {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			tr.add("exp.task", prev, now, root, -1)
			taskMS = append(taskMS, now.Sub(prev).Seconds()*1e3)
			prev = now
		}
	}
	p := beginPhase()
	prev = p.t0
	root = tr.begin("exp.RunSpecJSON", -1, -1)
	b, err := exp.RunSpecJSON(spec, opt)
	tr.end(root)
	p.end(r)
	if tr != nil {
		r.Layer = map[string]float64{"exp.tasks": float64(len(taskMS))}
		r.LayerLists = map[string][]float64{"exp.task_ms": taskMS}
	}
	if err != nil {
		r.fail("%s: %v", workload, err)
		r.LatMS = []float64{failedLatMS}
		return r, nil
	}
	sum := sha256.Sum256(b)
	r.Digest = hex.EncodeToString(sum[:])
	cs := tr.begin("bench.check", -1, -1)
	if err := checkSim(workload, b); err != nil {
		r.fail("%s: %v", workload, err)
	}
	tr.end(cs)
	r.LatMS = []float64{time.Since(p.t0).Seconds() * 1e3}
	if r.Failed > 0 {
		r.LatMS[0] = failedLatMS
	}
	return r, nil
}
