package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exp"
)

// The result checks are cheap paper-shape assertions: a result that decodes
// but no longer shows the paper's figure fails the run.

// incastRxBps is the receiver delivery the incast experiment pins at every
// degree: the receiver's host network, not the ToR, is the bottleneck.
const incastRxBps = 9.54e9

// incastRxTol is the allowed relative deviation from incastRxBps.
const incastRxTol = 0.03

// decodeEnvelope decodes a Result envelope strictly into the experiment's
// typed result.
func decodeEnvelope(b []byte, experiment string) (any, error) {
	var env struct {
		Spec   exp.Spec        `json:"spec"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("decoding envelope: %w", err)
	}
	if env.Spec.Experiment != experiment {
		return nil, fmt.Errorf("envelope names experiment %q, want %q", env.Spec.Experiment, experiment)
	}
	v := exp.NewResultValue(experiment)
	dec := json.NewDecoder(bytes.NewReader(env.Result))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("decoding %s result: %w", experiment, err)
	}
	return v, nil
}

// checkSim checks one sim workload's result bytes.
func checkSim(workload string, b []byte) error {
	switch workload {
	case "fig3":
		return checkFig3(b)
	case "incast8":
		return checkIncast(b)
	}
	return fmt.Errorf("no check for workload %q", workload)
}

// checkFig3 checks Fig 3's shape: Q1, Q2 and Q4 stay blue (the device
// keeps its throughput while the cores degrade), Q3 turns red (the device
// degrades) once enough cores store.
func checkFig3(b []byte) error {
	v, err := decodeEnvelope(b, "fig3")
	if err != nil {
		return err
	}
	res := *v.(*map[exp.Quadrant][]exp.QuadrantPoint)
	counts := exp.DefaultCoreSweep()
	for q := exp.Q1; q <= exp.Q4; q++ {
		pts := res[q]
		if len(pts) != len(counts) {
			return fmt.Errorf("Q%d: %d points, want %d", q, len(pts), len(counts))
		}
		for i, p := range pts {
			if p.Quadrant != q || p.Cores != counts[i] {
				return fmt.Errorf("Q%d point %d is (Q%d, %d cores), want (Q%d, %d cores)", q, i, p.Quadrant, p.Cores, q, counts[i])
			}
			for _, bw := range []float64{p.C2MIso.C2MBW, p.P2MIso.P2MBW, p.Co.C2MBW, p.Co.P2MBW} {
				if !(bw > 0) || math.IsInf(bw, 0) {
					return fmt.Errorf("Q%d %d cores: bandwidth %v not positive", q, p.Cores, bw)
				}
			}
			if d := p.C2MDegradation(); d < 1.03 {
				return fmt.Errorf("Q%d %d cores: C2M degradation %.3fx, want >= 1.03", q, p.Cores, d)
			}
			if q != exp.Q3 || p.Cores == 1 {
				if d := p.P2MDegradation(); d > 1.05 {
					return fmt.Errorf("Q%d %d cores: P2M degradation %.3fx, want <= 1.05 (blue)", q, p.Cores, d)
				}
			}
		}
	}
	last := res[exp.Q3][len(counts)-1]
	if d := last.P2MDegradation(); d < 1.3 || last.Regime() != core.Red {
		return fmt.Errorf("Q3 %d cores: P2M degradation %.3fx regime %v, want >= 1.3 and red", last.Cores, d, last.Regime())
	}
	return nil
}

// checkIncast checks the 8-host incast sweep: degrees 1-7, receiver
// delivery pinned near 9.54 GB/s at every degree, and receiver-initiated
// PFC pause even with a single sender.
func checkIncast(b []byte) error {
	v, err := decodeEnvelope(b, "incast")
	if err != nil {
		return err
	}
	s := v.(*exp.IncastSweep)
	if s.Hosts != 8 || len(s.Healthy) != 7 || len(s.Faulted) != 0 {
		return fmt.Errorf("incast: %d hosts, %d healthy and %d faulted points; want 8, 7, 0", s.Hosts, len(s.Healthy), len(s.Faulted))
	}
	for i, p := range s.Healthy {
		if p.Senders != i+1 || len(p.RxBW) != 8 || len(p.RxPause) != 8 {
			return fmt.Errorf("incast point %d: %d senders, %d hosts measured", i, p.Senders, len(p.RxBW))
		}
		if rx := p.ReceiverBW(); math.Abs(rx-incastRxBps) > incastRxTol*incastRxBps {
			return fmt.Errorf("incast M=%d: receiver delivery %.4g B/s, want %.4g within %.0f%%", p.Senders, rx, incastRxBps, incastRxTol*100)
		}
	}
	if pf := s.Healthy[0].ReceiverPauseFrac(); !(pf > 0) {
		return fmt.Errorf("incast M=1: receiver pause %v, want > 0", pf)
	}
	return nil
}
