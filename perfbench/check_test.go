package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// runSpec computes a workload's real result bytes (two sweep workers: the
// bytes are identical at any parallelism).
func runSpec(t *testing.T, workload string) []byte {
	t.Helper()
	var s exp.Spec
	if err := json.Unmarshal([]byte(simSpecs[workload]), &s); err != nil {
		t.Fatal(err)
	}
	opt := simOptions()
	opt.Parallelism = 2
	b, err := exp.RunSpecJSON(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// edit decodes result bytes, lets fn corrupt the typed result, and
// re-encodes the envelope.
func edit[T any](t *testing.T, b []byte, fn func(*T)) []byte {
	t.Helper()
	var env struct {
		Spec   exp.Spec `json:"spec"`
		Result T        `json:"result"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	fn(&env.Result)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckFig3CatchesCorruptResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fig3 sweep")
	}
	good := runSpec(t, "fig3")
	if err := checkFig3(good); err != nil {
		t.Fatalf("the real fig3 result fails its check: %v", err)
	}
	type fig3 = map[exp.Quadrant][]exp.QuadrantPoint
	bad := map[string][]byte{
		"truncated": good[:len(good)/2],
		"Q3 no longer red": edit(t, good, func(r *fig3) {
			p := &(*r)[exp.Q3][5]
			p.Co.P2MBW = p.P2MIso.P2MBW
		}),
		"Q1 device degraded": edit(t, good, func(r *fig3) {
			p := &(*r)[exp.Q1][2]
			p.Co.P2MBW = p.P2MIso.P2MBW / 2
		}),
		"missing point":    edit(t, good, func(r *fig3) { (*r)[exp.Q2] = (*r)[exp.Q2][:5] }),
		"wrong experiment": bytes.Replace(good, []byte(`"experiment":"fig3"`), []byte(`"experiment":"fig6"`), 1),
	}
	for name, b := range bad {
		if err := checkFig3(b); err == nil {
			t.Errorf("%s: corrupted fig3 result passed the check", name)
		}
	}
}

func TestCheckIncastCatchesCorruptResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full incast8 sweep")
	}
	good := runSpec(t, "incast8")
	if err := checkIncast(good); err != nil {
		t.Fatalf("the real incast8 result fails its check: %v", err)
	}
	bad := map[string][]byte{
		"receiver slowed": edit(t, good, func(s *exp.IncastSweep) { s.Healthy[3].RxBW[0] *= 0.9 }),
		"no M=1 pause":    edit(t, good, func(s *exp.IncastSweep) { s.Healthy[0].RxPause[0] = 0 }),
		"missing degree":  edit(t, good, func(s *exp.IncastSweep) { s.Healthy = s.Healthy[:6] }),
		"unknown field":   bytes.Replace(good, []byte(`"Hosts":8`), []byte(`"Hosts":8,"Bogus":1`), 1),
	}
	for name, b := range bad {
		if err := checkIncast(b); err == nil {
			t.Errorf("%s: corrupted incast8 result passed the check", name)
		}
	}
}

// TestServeMixCatchesMismatches runs a short serve-mix against a daemon
// whose expected answers were tampered with: one reference byte flipped and
// one request's class changed. Both must count as failed operations, and
// the untampered requests must pass.
func TestServeMixCatchesMismatches(t *testing.T) {
	m := genMix(7)
	const keep = 40
	used := map[int]bool{}
	for c := range m.Clients {
		m.Clients[c] = m.Clients[c][:keep]
		for _, r := range m.Clients[c] {
			used[r.Spec] = true
		}
	}
	var fixture []int
	for _, i := range m.Fixture {
		if used[i] {
			fixture = append(fixture, i)
		}
	}
	m.Fixture = fixture
	m.Refs = make([][]byte, len(m.Specs))
	for i := range used {
		var s exp.Spec
		if err := json.Unmarshal(m.Specs[i], &s); err != nil {
			t.Fatal(err)
		}
		b, err := exp.RunSpecJSON(s, simOptions())
		if err != nil {
			t.Fatal(err)
		}
		m.Refs[i] = b
	}

	// Flip one byte of a cold spec's reference (hit repeats of it fail too)
	// and relabel one analytic request as a store hit.
	var flipped, relabeled = -1, -1
	for i, r := range m.Clients[0] {
		if r.Class == classAccepted && flipped < 0 {
			flipped = r.Spec
			m.Refs[r.Spec] = append([]byte(nil), m.Refs[r.Spec]...)
			m.Refs[r.Spec][len(m.Refs[r.Spec])/2] ^= 1
		}
		if r.Class == classAnalytic && relabeled < 0 {
			relabeled = i
			m.Clients[0][i].Class = classStore
		}
	}
	if flipped < 0 || relabeled < 0 {
		t.Fatal("mix prefix has no cold or analytic request to tamper with")
	}
	wantFailed := 1
	for _, c := range m.Clients {
		for _, r := range c {
			if r.Spec == flipped {
				wantFailed++
			}
		}
	}

	root := t.TempDir()
	refs := filepath.Join(root, "mix.json")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refs, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := runServeIteration(7, refs, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 2*keep || r.Failed != wantFailed {
		t.Fatalf("attempted %d failed %d, want %d and %d; errors: %v", r.Attempted, r.Failed, 2*keep, wantFailed, r.Errors)
	}
	if got := r.Layer["serve.outcome_mismatch"]; got != 1 {
		t.Errorf("serve.outcome_mismatch = %v, want 1", got)
	}
	slow := 0
	for _, l := range r.LatMS {
		if l == failedLatMS {
			slow++
		}
	}
	if slow != wantFailed {
		t.Errorf("%d latency samples count as missing every limit, want one per failed request (%d)", slow, wantFailed)
	}
}

// TestMixOutcomesAreFixed checks the generator's promises: clients never
// share a spec, hits only repeat the client's own earlier specs, and every
// spec is distinct.
func TestMixOutcomesAreFixed(t *testing.T) {
	m := genMix(3)
	seen := map[string]bool{}
	for _, s := range m.Specs {
		if seen[string(s)] {
			t.Fatalf("spec %s generated twice", s)
		}
		seen[string(s)] = true
	}
	owner := map[int]int{}
	for c, reqs := range m.Clients {
		issued := map[int]bool{}
		for _, r := range reqs {
			if o, ok := owner[r.Spec]; ok && o != c {
				t.Fatalf("spec %d submitted by clients %d and %d", r.Spec, o, c)
			}
			owner[r.Spec] = c
			if (r.Class == classHit) != issued[r.Spec] {
				t.Fatalf("client %d: %s request for spec %d (issued before: %v)", c, r.Class, r.Spec, issued[r.Spec])
			}
			issued[r.Spec] = true
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units in
// step with BENCHMARK.json and the rationale file.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range endToEndMetrics {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range layerMetrics {
		layer = append(layer, m.name+" "+m.unit)
	}
	var be2e, blayer []string
	for _, m := range bench.EndToEnd {
		be2e = append(be2e, m.Name+" "+m.Unit)
	}
	for _, m := range bench.PerLayer {
		blayer = append(blayer, m.Name+" "+m.Unit)
	}
	if strings.Join(e2e, ",") != strings.Join(be2e, ",") {
		t.Errorf("end-to-end metrics\ncode:           %v\nBENCHMARK.json: %v", e2e, be2e)
	}
	if strings.Join(layer, ",") != strings.Join(blayer, ",") {
		t.Errorf("per-layer metrics\ncode:           %v\nBENCHMARK.json: %v", layer, blayer)
	}

	var rat struct {
		LayerMetrics []struct {
			Name string `json:"name"`
		} `json:"layer_metrics"`
	}
	b, err = os.ReadFile("rationale.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rat); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range rat.LayerMetrics {
		names = append(names, m.Name)
	}
	var want []string
	for _, m := range layerMetrics {
		want = append(want, m.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("rationale.json layer_metrics %v, want %v", names, want)
	}
}
