package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve-mix workload: an in-process hostnetd (serve.New over a
// loopback listener, read- and write-through to a persistent store) driven
// by a closed loop of mixClients keep-alive clients. The seed generates the
// requests; because every client owns a disjoint key space and waits for
// each answer before its next request, every request's outcome is fixed by
// its class, whatever the timing.

// mixClients is the number of closed-loop clients: at most one per CPU of
// the 2-vCPU machines the benchmark targets.
const mixClients = 2

// daemonSetups is how many times a serve-mix child starts the daemon to
// report the median set-up time; the last start serves the timed phase.
const daemonSetups = 5

// Request classes; each is the outcome the daemon must report for it.
const (
	classAnalytic = "analytic"  // analytic quadrant point, answered inline, written to the store
	classHit      = "cache_hit" // a spec this client already received
	classStore    = "store_hit" // a spec placed in the store before the daemon started
	classAccepted = "accepted"  // a cold short-window simulation, unique in the run
)

// classCounts is each client's request count per class: 600 requests, a
// fifth of them cold, so p99 sits in the cold path (12 samples beyond it
// over the two clients). The rest of the split is synthetic: no measured
// hostnetd traffic stands behind it. It was picked to place p50: cache hits
// are the fastest 30% and store hits the next 40%, so p50 falls in the
// middle of the store-hit latencies, away from a boundary between two
// classes and from the fsync the analytic and cold classes pay on their
// store writes. A gain on one class shows in its own serve.*_ms_p50 ledger
// figure, not necessarily in p50_ms.
var classCounts = []struct {
	class string
	n     int
}{{classAccepted, 120}, {classAnalytic, 60}, {classStore, 240}, {classHit, 180}}

// mixReq is one request: a spec index and the outcome its class implies.
type mixReq struct {
	Class string `json:"class"`
	Spec  int    `json:"spec"`
}

// mix is the generated workload plus the reference answer of every spec,
// computed outside the timed phase.
type mix struct {
	Specs   []json.RawMessage `json:"specs"`   // request bodies, all distinct
	Refs    [][]byte          `json:"refs"`    // exp.RunSpecJSON bytes per spec
	Fixture []int             `json:"fixture"` // specs filed in the store before the daemon starts
	Clients [][]mixReq        `json:"clients"`
}

func (m *mix) requests() int {
	n := 0
	for _, c := range m.Clients {
		n += len(c)
	}
	return n
}

func (m *mix) count(class string) int {
	n := 0
	for _, c := range m.Clients {
		for _, r := range c {
			if r.Class == class {
				n++
			}
		}
	}
	return n
}

// genMix generates the requests from the seed. Client c's cold and store
// specs differ from every other client's by the parity of a window knob,
// its analytic specs by a disjoint slice of a shuffled pool, so no two
// clients ever submit the same spec (no deduplicated outcomes).
func genMix(seed uint64) *mix {
	rng := rand.New(rand.NewPCG(seed, 0x5e27e_0f_4057))
	m := &mix{}
	add := func(s exp.Spec) int {
		b, err := json.Marshal(s)
		if err != nil {
			panic(err) // an exp.Spec always encodes
		}
		m.Specs = append(m.Specs, b)
		return len(m.Specs) - 1
	}
	perClient := map[string]int{}
	for _, cc := range classCounts {
		perClient[cc.class] = cc.n
	}
	var pool []exp.Spec
	for _, e := range []string{"quadrant", "rdma"} {
		for q := 1; q <= 4; q++ {
			for a := 1; a <= 16; a++ {
				pool = append(pool, exp.Spec{Experiment: e, Quadrant: q, Cores: []int{a}, Fidelity: exp.FidelityAnalytic})
			}
			for a := 1; a <= 8; a++ {
				for b := 1; b <= 8; b++ {
					pool = append(pool, exp.Spec{Experiment: e, Quadrant: q, Cores: []int{a, b}, Fidelity: exp.FidelityAnalytic})
				}
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	for c := 0; c < mixClients; c++ {
		var classes []string
		for _, cc := range classCounts {
			for i := 0; i < cc.n; i++ {
				classes = append(classes, cc.class)
			}
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for i := range classes { // the first request cannot repeat anything
			if classes[i] != classHit {
				classes[0], classes[i] = classes[i], classes[0]
				break
			}
		}
		analytic := pool[c*perClient[classAnalytic] : (c+1)*perClient[classAnalytic]]
		var history []int
		var nCold, nStore, nAnalytic int
		var reqs []mixReq
		for _, class := range classes {
			var idx int
			switch class {
			case classHit:
				idx = history[rng.IntN(len(history))]
			case classAnalytic:
				idx = add(analytic[nAnalytic])
				nAnalytic++
			case classStore:
				idx = add(exp.Spec{Experiment: "quadrant", Quadrant: 1 + rng.IntN(4), Cores: []int{1 + rng.IntN(2)},
					WarmupNs: 2000, WindowNs: int64(3000 + 2*nStore + c)})
				m.Fixture = append(m.Fixture, idx)
				nStore++
			case classAccepted:
				idx = add(exp.Spec{Experiment: "quadrant", Quadrant: 1 + rng.IntN(4), Cores: []int{1 + rng.IntN(2)},
					WarmupNs: int64(2500 + 2*nCold + c), WindowNs: 3000})
				nCold++
			}
			if class != classHit {
				history = append(history, idx)
			}
			reqs = append(reqs, mixReq{Class: class, Spec: idx})
		}
		m.Clients = append(m.Clients, reqs)
	}
	return m
}

// writeMix computes every spec's reference answer (on mixClients workers;
// the references are not timed) and writes the mix to path.
func writeMix(m *mix, path string) error {
	m.Refs = make([][]byte, len(m.Specs))
	errs := make([]error, len(m.Specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var s exp.Spec
				if errs[i] = json.Unmarshal(m.Specs[i], &s); errs[i] == nil {
					m.Refs[i], errs[i] = exp.RunSpecJSON(s, simOptions())
				}
			}
		}()
	}
	for i := range m.Specs {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("computing serve-mix references: %w", err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readMix(path string) (*mix, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &mix{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return m, nil
}

// serveConfig is the daemon configuration every serve-mix run uses.
func serveConfig(st *store.Store) serve.Config {
	return serve.Config{
		QueueDepth:  64,
		Workers:     mixClients,
		JobTimeout:  2 * time.Minute,
		CacheBytes:  256 << 20,
		Parallelism: 1,
		Audit:       false,
		Store:       st,
	}
}

// daemon is one running in-process hostnetd.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startDaemon opens the store, builds the server, listens on loopback and
// waits for the first 200 from /healthz.
func startDaemon(dir string, tr *tracer) (d *daemon, openS float64, err error) {
	sp := tr.begin("store.Open", -1, -1)
	t := time.Now()
	st, err := store.Open(dir, store.Config{})
	openS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("serve.New", -1, -1)
	defer tr.end(sp)
	d = &daemon{srv: serve.New(serveConfig(st)), done: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Shutdown(context.Background())
		return nil, 0, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, openS, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("daemon never answered /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	d.srv.Shutdown(ctx)
}

// sample is one request's measurement.
type sample struct {
	class, outcome     string
	latMS              float64 // submit to verified result bytes
	submitMS, resultMS float64 // the two round trips
	queueMS, runMS     float64 // from JobStatus timestamps (accepted, traced runs only)
	shed, failed       bool
}

// runServeIteration runs one serve-mix iteration: fixture, daemon set-ups,
// the timed closed loop, and the checks of every answer.
func runServeIteration(seed uint64, refsPath, root string, tr *tracer) (*iterResult, error) {
	m, err := readMix(refsPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build", fmt.Sprintf("serve-store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := fileFixture(m, dir); err != nil {
		return nil, err
	}

	r := &iterResult{Workload: "serve-mix"}
	var setups, opens []float64
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		t := time.Now()
		var openS float64
		d, openS, err = startDaemon(dir, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		opens = append(opens, openS)
	}
	r.SetupS = median(setups)

	samples := make([][]sample, len(m.Clients))
	var wg sync.WaitGroup
	p := beginPhase()
	for c := range m.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{base: d.base, m: m, tr: tr, hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
			defer cl.hc.CloseIdleConnections()
			for i, req := range m.Clients[c] {
				samples[c] = append(samples[c], cl.do(req, c*len(m.Clients[c])+i))
			}
		}(c)
	}
	wg.Wait()
	p.end(r)
	d.stop()

	var all []sample
	for _, s := range samples {
		all = append(all, s...)
	}
	r.Attempted = len(all)
	for _, s := range all {
		lat := s.latMS
		if s.failed {
			r.fail("%s request: outcome %q, shed %v", s.class, s.outcome, s.shed)
			lat = failedLatMS
		}
		r.LatMS = append(r.LatMS, lat)
	}
	r.Layer = serveLayer(all)
	r.Layer["store.open_ms"] = median(opens) * 1e3
	return r, nil
}

// fileFixture places the store-hit specs' results in the store directory,
// as an earlier life of the daemon would have left them.
func fileFixture(m *mix, dir string) error {
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		return err
	}
	for _, i := range m.Fixture {
		var s exp.Spec
		if err := json.Unmarshal(m.Specs[i], &s); err != nil {
			return err
		}
		key, err := s.Hash()
		if err != nil {
			return err
		}
		if err := st.Put(key, m.Refs[i]); err != nil {
			return err
		}
	}
	return nil
}

// client is one closed-loop keep-alive client.
type client struct {
	base string
	hc   *http.Client
	m    *mix
	tr   *tracer
}

// do submits one request, fetches its result and verifies both the bytes
// (against the reference plus the newline hostnetd appends) and the
// outcome (against the request's class).
func (c *client) do(req mixReq, id int) (s sample) {
	s.class = req.Class
	sp := c.tr.begin("serve.request", -1, id)
	t0 := time.Now()
	var st serve.JobStatus
	code, _, err := c.call("serve.submit", sp, id, http.MethodPost, "/jobs", c.m.Specs[req.Spec], &st)
	s.submitMS = time.Since(t0).Seconds() * 1e3
	s.outcome = st.Outcome
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		s.shed = code == http.StatusTooManyRequests
		s.failed = true
		c.tr.end(sp)
		return s
	}
	path := "/jobs/" + st.ID + "/result"
	if st.Outcome == classAccepted {
		path += "?wait=true"
	}
	t1 := time.Now()
	code, body, err := c.call("serve.result", sp, id, http.MethodGet, path, nil, nil)
	s.resultMS = time.Since(t1).Seconds() * 1e3
	want := append(append([]byte(nil), c.m.Refs[req.Spec]...), '\n')
	s.failed = err != nil || code != http.StatusOK || !bytes.Equal(body, want) || st.Outcome != req.Class
	s.latMS = time.Since(t0).Seconds() * 1e3
	c.tr.end(sp)
	if c.tr != nil && st.Outcome == classAccepted {
		// Traced runs also read the job's stage timestamps, outside the
		// request's latency.
		var js serve.JobStatus
		if _, _, err := c.call("serve.status", -1, id, http.MethodGet, "/jobs/"+st.ID, nil, &js); err == nil {
			sub, e1 := time.Parse(time.RFC3339Nano, js.SubmittedAt)
			start, e2 := time.Parse(time.RFC3339Nano, js.StartedAt)
			fin, e3 := time.Parse(time.RFC3339Nano, js.FinishedAt)
			if e1 == nil && e2 == nil && e3 == nil {
				s.queueMS = start.Sub(sub).Seconds() * 1e3
				s.runMS = fin.Sub(start).Seconds() * 1e3
			}
		}
	}
	return s
}

// call makes one round trip, reading the whole body so the connection is
// reused, and decodes it into out when out is non-nil.
func (c *client) call(name string, parent, id int, method, path string, body []byte, out any) (int, []byte, error) {
	sp := c.tr.begin(name, parent, id)
	defer c.tr.end(sp)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil && resp.StatusCode < 300 {
		err = json.Unmarshal(b, out)
	}
	return resp.StatusCode, b, err
}

// serveLayer derives the serve layer's ledger from the samples.
func serveLayer(all []sample) map[string]float64 {
	var submit, result, cold, queue, run []float64
	byClass := map[string][]float64{}
	var shed, mismatch float64
	for _, s := range all {
		submit = append(submit, s.submitMS)
		if s.shed {
			shed++
		}
		if s.outcome != s.class {
			mismatch++
		}
		if s.failed {
			continue
		}
		byClass[s.class] = append(byClass[s.class], s.latMS)
		if s.class == classAccepted {
			cold = append(cold, s.latMS)
			queue = append(queue, s.queueMS)
			run = append(run, s.runMS)
		} else {
			result = append(result, s.resultMS)
		}
	}
	return map[string]float64{
		"serve.submit_ms_p50":     quantile(submit, 0.5),
		"serve.result_ms_p50":     quantile(result, 0.5),
		"serve.analytic_ms_p50":   quantile(byClass[classAnalytic], 0.5),
		"serve.hit_ms_p50":        quantile(byClass[classHit], 0.5),
		"serve.store_hit_ms_p50":  quantile(byClass[classStore], 0.5),
		"serve.cold_ms_p50":       quantile(cold, 0.5),
		"serve.cold_ms_p99":       quantile(cold, 0.99),
		"serve.queue_wait_ms_p99": quantile(queue, 0.99),
		"serve.run_ms_p50":        quantile(run, 0.5),
		"serve.shed_frac":         shed / float64(len(all)),
		"serve.outcome_mismatch":  mismatch,
	}
}
