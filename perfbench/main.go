// Command perfbench is the repository benchmark: it runs one workload of
// the host-network simulator end to end, checks the outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ledger) as one JSON
// object on the last line of standard output.
//
// Every measured iteration runs in a fresh child process of this binary, so
// peak RSS, heap and GC state are per iteration; the parent aggregates the
// children's reports (medians of per-iteration values, pooled latency
// samples). See BENCHMARK.json at the repository root for the gated
// workloads and the metrics, and rationale.json here for the reasons behind
// them. serve-mix runs with the same command but is not gated: its medians
// move with the machine's disk and scheduler by more than any useful bound.
// Every traced run still runs it, so the serve, store and analytic layers
// are measured on every workload's ledger.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload fig3|incast8|serve-mix --seed N --seconds S --trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// workloads lists the benchmark's workloads in ledger order.
var workloads = []string{"fig3", "incast8", "serve-mix"}

// failedLatMS is the latency recorded for a failed or refused operation:
// it misses any latency limit.
const failedLatMS = math.MaxFloat64

// minIters is the fewest measured iterations a run makes, whatever -seconds
// says, so every median has at least three values.
const minIters = 3

// iterResult is one child process's report: one iteration of a workload,
// or the layer ledger. The parent fills PeakRSSMB from the child's rusage.
type iterResult struct {
	Workload  string             `json:"workload"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	AllocMB   float64            `json:"alloc_mb"`
	GCCycles  float64            `json:"gc_cycles"`
	GCCPUS    float64            `json:"gc_cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	LatMS     []float64          `json:"lat_ms,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	// LayerLists holds per-layer samples the parent pools across children
	// before taking quantiles (sweep task durations).
	LayerLists map[string][]float64 `json:"layer_lists,omitempty"`
	SpanFile   string               `json:"span_file,omitempty"`
	Self       []selfTime           `json:"self,omitempty"`
}

// fail records a failed operation with its reason (only the first few
// reasons are kept; the count is exact).
func (r *iterResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig3, incast8 or serve-mix")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long the measured iterations run")
	trace := flag.Int("trace", 0, "1 runs the traced layer ledger instead of the end-to-end measurement")
	root := flag.String("root", ".", "root of the checkout; scratch files go to its .bench_build directory")
	child := flag.String("child", "", "internal: run one iteration of this workload (or \"ledger\") and report it")
	refs := flag.String("refs", "", "internal: serve-mix request and reference file")
	flag.Parse()

	// exp.Defaults() turns the invariant auditor on when HOSTNET_AUDIT is
	// set; the benchmark measures the unaudited simulator whatever the
	// environment says (every options value below also sets Audit: false).
	os.Unsetenv("HOSTNET_AUDIT")

	if *child != "" {
		r, err := runChildKind(*child, *seed, *trace == 1, *root, *refs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		b, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
		return
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChildKind dispatches one child process's work.
func runChildKind(kind string, seed uint64, traced bool, root, refs string) (*iterResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var r *iterResult
	var err error
	switch kind {
	case "fig3", "incast8":
		r, err = runSimIteration(kind, tr)
	case "serve-mix":
		r, err = runServeIteration(seed, refs, root, tr)
	case "ledger":
		r, err = runLedger(seed, refs, root, tr)
	default:
		return nil, fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil || tr == nil {
		return r, err
	}
	r.Self = tr.selfTimes()
	dir := filepath.Join(root, ".bench_build", "trace")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-pid%d.json", kind, seed, os.Getpid()))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	r.SpanFile = path
	return r, nil
}

// run is the parent: it prepares inputs, runs children and prints the
// aggregated result.
func run(workload string, seed uint64, seconds float64, traced bool, root string) error {
	printEnv(root)
	scratch := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	refs := ""
	if workload == "serve-mix" || traced {
		m := genMix(seed)
		refs = filepath.Join(scratch, "mix.json")
		t := time.Now()
		if err := writeMix(m, refs); err != nil {
			return err
		}
		fmt.Printf("serve-mix: seed %d, %d requests over %d clients, %d unique specs (%d cold, %d store fixtures); references computed untimed in %.2fs\n",
			seed, m.requests(), len(m.Clients), len(m.Specs), m.count(classAccepted), len(m.Fixture), time.Since(t).Seconds())
	}
	printConfig(workload)
	if traced {
		return runTraced(workload, seed, root, refs)
	}

	var iters []*iterResult
	start := time.Now()
	var last time.Duration
	for len(iters) < minIters || time.Since(start)+last <= time.Duration(seconds*float64(time.Second)) {
		t := time.Now()
		r := runChild(workload, seed, false, root, refs)
		last = time.Since(t)
		fmt.Printf("iter %d: setup %.2fus wall %.4fs cpu %.4fs alloc %.1fMB rss %.1fMB attempted %d failed %d digest %s\n",
			len(iters)+1, r.SetupS*1e6, r.WallS, r.CPUS, r.AllocMB, r.PeakRSSMB, r.Attempted, r.Failed, short(r.Digest))
		for _, e := range r.Errors {
			fmt.Printf("  error: %s\n", e)
		}
		iters = append(iters, r)
	}
	return printEndToEnd(workload, iters)
}

// runChild runs one child process and returns its report; a child that
// crashes or prints garbage comes back as one failed operation.
func runChild(kind string, seed uint64, traced bool, root, refs string) *iterResult {
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"-child", kind, "-seed", strconv.FormatUint(seed, 10), "-trace", tr, "-root", root}
	if refs != "" {
		args = append(args, "-refs", refs)
	}
	cmd := exec.Command(os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	r := &iterResult{Workload: kind}
	if err == nil {
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		err = json.Unmarshal(lines[len(lines)-1], r)
	}
	if err != nil {
		r = &iterResult{Workload: kind, Attempted: 1, LatMS: []float64{failedLatMS}}
		r.fail("child %s: %v", kind, err)
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return r
}

// endToEndMetrics are the metrics an untraced run prints, with units.
// ok_frac is the share of attempted operations that succeeded and were
// verified: one minus the failure fraction, reported this way so that the
// metric is never 0.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_frac", "ratio"},
}

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printEndToEnd aggregates the untraced iterations into the end-to-end
// metrics and prints them, the final JSON line last.
func printEndToEnd(workload string, iters []*iterResult) error {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var setup, wall, cpu, alloc, rss, lat []float64
	digest := ""
	for _, r := range iters {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		alloc = append(alloc, r.AllocMB)
		rss = append(rss, r.PeakRSSMB)
		lat = append(lat, r.LatMS...)
		if r.Digest == "" {
			continue
		}
		// Every iteration of a sim workload computes the same bytes; a
		// differing digest is a determinism failure.
		if digest == "" {
			digest = r.Digest
		} else if r.Digest != digest {
			res.Failed++
			fmt.Printf("error: result digest %s differs from the run's first %s\n", r.Digest, digest)
		}
	}
	if digest != "" {
		fmt.Printf("result sha256 %s (identical in all %d iterations: %v)\n", digest, len(iters), res.Failed == 0)
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	fmt.Printf("%s: %d iterations, latency samples %d (p99 has %d samples beyond it)\n",
		workload, len(iters), len(lat), len(lat)-rank(len(lat), 0.99))
	values := map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": median(rss),
		"p50_ms":      p50,
		"p99_ms":      p99,
		"ok_frac":     1 - float64(res.Failed)/float64(res.Attempted),
	}
	for _, em := range endToEndMetrics {
		res.Metrics[em.name] = metric{Value: values[em.name], Unit: em.unit}
	}
	return printResult(res)
}

// printResult writes the final JSON line. Non-finite values (a ledger
// entry with no samples) are reported as -1 so the line stays valid JSON.
func printResult(res result) error {
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = -1
			res.Metrics[k] = m
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func short(d string) string {
	if len(d) > 16 {
		return d[:16]
	}
	if d == "" {
		return "-"
	}
	return d
}
