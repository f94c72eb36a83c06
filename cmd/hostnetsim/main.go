// Command hostnetsim regenerates the tables and figures of "Understanding
// the Host Network" (SIGCOMM 2024) from the simulator.
//
// Usage:
//
//	hostnetsim [flags] <experiment> [experiment...]
//
// Experiments: table1, fig1, fig2, fig3, fig6, fig7, fig8, fig11, fig12,
// fig13, fig14, fig15, fig16, fig17, fig18, fig19, fig23, fig27, fig29,
// domains, incast, all.
//
// Flags (accepted before or after the experiment names):
//
//	-window   measurement window (default 100us; larger = smoother numbers)
//	-warmup   warmup before measuring (default 20us)
//	-ddio     enable DDIO for the quadrant experiments
//	-hosts    rack size for the incast experiment: N hosts on one ToR,
//	          N-1 senders converging on host 0 (default 4)
//	-parallel worker-pool size for multi-point sweeps (0 = one per CPU,
//	          1 = serial); results are bit-identical at any setting
//	-format   "table" (default, rendered) or "json": the canonical JSON
//	          Result envelope, one NDJSON line per experiment, byte-identical
//	          to hostnetd's result endpoint for the same spec
//	-fidelity "sim" (default, the discrete-event simulator) or "analytic":
//	          answer from the §7 predictive model instead — microseconds
//	          per experiment, supported for the point sweeps only (quadrant,
//	          rdma, hostcc), JSON output only
//	-version  print build identification (module version, VCS revision) and
//	          exit
//	-audit    run every experiment under the invariant auditor: credit
//	          pools are checked for conservation between events and latency
//	          probes cross-checked against direct timestamps; any violation
//	          aborts with the domain, counter, and simulated time
//	-faults   fault schedule for the experiments that honor one (quadrant,
//	          rdma, hostcc, faultsweep): a JSON array of windows, inline or
//	          "@file" (see EXPERIMENTS.md "Fault scenarios"), e.g.
//	          '[{"kind":"pfc_pause_storm","start_ns":30000,"duration_ns":25000}]'
//
// Profiling (see README "Performance & profiling"):
//
//	-cpuprofile file  write a CPU profile for the whole run
//	-memprofile file  write an allocation profile at exit
//	-trace file       write a runtime execution trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/hostnet"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/version"
)

func main() {
	// The event loop allocates short-lived closures at a high rate; the
	// default GC target (GOGC=100) spends ~10% of the run in collection
	// cycles for no benefit on a process this small. Respect an explicit
	// GOGC, otherwise trade heap headroom for wall-clock. GC timing cannot
	// affect results — outputs are pinned byte-identical either way.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	// Profile teardown happens via defers, so the exit code is carried out
	// of realMain instead of calling os.Exit mid-run.
	os.Exit(realMain())
}

func realMain() int {
	window := flag.Duration("window", 100*time.Microsecond, "measurement window (simulated)")
	warmup := flag.Duration("warmup", 20*time.Microsecond, "warmup before measuring (simulated)")
	ddio := flag.Bool("ddio", false, "enable DDIO in quadrant experiments")
	auditOn := flag.Bool("audit", false, "check credit-conservation invariants during every run")
	faultsArg := flag.String("faults", "", "fault schedule: JSON array of windows, or @file")
	csvOut := flag.Bool("csv", false, "emit quadrant experiments as CSV instead of tables")
	format := flag.String("format", "table", "output format: table (rendered) or json (canonical machine-readable)")
	fidelity := flag.String("fidelity", "", "fidelity tier: sim (default) or analytic (predictive model, -format json only)")
	showVersion := flag.Bool("version", false, "print build version and exit")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	hosts := flag.Int("hosts", 0, "rack size for the incast experiment (default 4)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write allocation profile to `file` at exit")
	traceOut := flag.String("trace", "", "write runtime execution trace to `file`")
	flag.CommandLine.Parse(reorderArgs(os.Args[1:]))
	emitCSV = *csvOut

	if *showVersion {
		fmt.Println("hostnetsim", version.Get())
		return 0
	}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown -format %q (valid: table, json)\n", *format)
		return 2
	}
	switch *fidelity {
	case "", hostnet.FidelitySim, hostnet.FidelityAnalytic:
	default:
		fmt.Fprintf(os.Stderr, "unknown -fidelity %q (valid: sim, analytic)\n", *fidelity)
		return 2
	}
	if *fidelity == hostnet.FidelityAnalytic && *format != "json" {
		fmt.Fprintln(os.Stderr, "-fidelity analytic emits []AnalyticPoint, which has no table rendering; use -format json")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	opt := hostnet.DefaultOptions()
	opt.Window = sim.Time(window.Nanoseconds()) * sim.Nanosecond
	opt.Warmup = sim.Time(warmup.Nanoseconds()) * sim.Nanosecond
	opt.DDIO = *ddio
	opt.Parallelism = *parallel
	if *auditOn {
		opt.Audit = true
	}
	faults, err := parseFaults(*faultsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-faults:", err)
		return 2
	}
	opt.Faults = faults
	fabricHosts = *hosts

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: hostnetsim [flags] <experiment>...")
		fmt.Fprintln(os.Stderr, "experiments: table1 fig1 fig2 fig3 fig6 fig7 fig8 fig11 fig12 fig13 fig14")
		fmt.Fprintln(os.Stderr, "             fig15 fig16 fig17 fig18 fig19 fig23 fig27 fig29 domains")
		fmt.Fprintln(os.Stderr, "             prefetch hostcc mcisolation ratio cxl faultsweep incast crossval all")
		return 2
	}
	if *format == "json" {
		return runJSON(opt, *window, *warmup, *ddio, *fidelity, args)
	}
	for _, a := range args {
		if a == "all" {
			return run(opt, "table1", "fig3", "fig6", "fig7", "fig8", "fig11", "fig13", "fig14",
				"fig1", "fig2", "fig15", "fig16", "fig17", "fig18", "fig19", "fig23", "fig27", "fig29")
		}
	}
	return run(opt, args...)
}

var emitCSV bool

// fabricHosts carries the -hosts flag to the incast experiment (0 = the
// spec's default rack of 4).
var fabricHosts int

// runJSON emits the canonical JSON Result envelope for each named
// experiment, one NDJSON line per name — byte-identical to hostnetd's
// result endpoint for the same spec (both route through exp.RunSpecJSON).
func runJSON(opt hostnet.Options, window, warmup time.Duration, ddio bool, fidelity string, names []string) int {
	if len(names) == 1 && names[0] == "all" {
		names = exp.Experiments()
	}
	for _, name := range names {
		spec := hostnet.JobSpec{
			Experiment: name,
			WindowNs:   window.Nanoseconds(),
			WarmupNs:   warmup.Nanoseconds(),
			DDIO:       ddio,
			Faults:     opt.Faults,
			Fidelity:   fidelity,
		}
		if name == "incast" && fabricHosts > 0 {
			spec.Fabric = &hostnet.FabricSpec{Hosts: fabricHosts}
		}
		b, err := exp.RunSpecJSON(spec, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		os.Stdout.Write(b)
		os.Stdout.Write([]byte("\n"))
	}
	return 0
}

func run(opt hostnet.Options, names ...string) int {
	w := os.Stdout
	for _, name := range names {
		switch name {
		case "table1":
			hostnet.RenderTable1(w)
		case "fig3":
			res := hostnet.RunFig3(opt)
			if emitCSV {
				for _, q := range []hostnet.Quadrant{hostnet.Q1, hostnet.Q2, hostnet.Q3, hostnet.Q4} {
					if err := exp.QuadrantCSV(res[q]).WriteCSV(w); err != nil {
						fmt.Fprintln(os.Stderr, err)
						return 1
					}
				}
			} else {
				hostnet.RenderQuadrants(w, res)
			}
		case "fig6", "domains":
			hostnet.RenderDomainEvidence(w, hostnet.RunFig6(opt))
			for _, d := range hostnet.CascadeLakeDomains() {
				fmt.Fprintln(w, d)
			}
			fmt.Fprintln(w)
		case "fig7":
			exp.RenderQuadrantProbes(w, "Fig 7: quadrant 1 root causes",
				exp.RunQuadrant(exp.Q1, exp.DefaultCoreSweep(), opt))
		case "fig8":
			exp.RenderQuadrantProbes(w, "Fig 8: quadrant 3 root causes",
				exp.RunQuadrant(exp.Q3, exp.DefaultCoreSweep(), opt))
		case "fig13":
			exp.RenderQuadrantProbes(w, "Fig 13: quadrant 2 root causes",
				exp.RunQuadrant(exp.Q2, exp.DefaultCoreSweep(), opt))
		case "fig14":
			exp.RenderQuadrantProbes(w, "Fig 14: quadrant 4 root causes",
				exp.RunQuadrant(exp.Q4, exp.DefaultCoreSweep(), opt))
		case "fig11", "fig12":
			hostnet.RenderFormula(w, hostnet.RunFig11(opt))
		case "fig1":
			res := hostnet.RunFig1(opt)
			exp.RenderApps(w, "Fig 1: Redis/GAPBS + FIO on Ice Lake (DDIO on)",
				map[string][]exp.AppPoint{"Redis": res.Redis, "GAPBS-PR": res.GAPBS})
		case "fig2":
			res := hostnet.RunFig2(opt)
			exp.RenderApps(w, "Fig 2: DDIO on/off on Cascade Lake", map[string][]exp.AppPoint{
				"Redis(on)": res.RedisOn, "Redis(off)": res.RedisOff,
				"GAPBS(on)": res.GAPBSOn, "GAPBS(off)": res.GAPBSOff,
			})
		case "fig15":
			renderGrid(w, hostnet.RunFig15(opt))
		case "fig16":
			renderGrid(w, hostnet.RunFig16(opt))
		case "fig17":
			renderGrid(w, hostnet.RunFig17(opt))
		case "fig18", "fig20", "fig21", "fig22", "fig24":
			hostnet.RenderRDMA(w, hostnet.RunFig18(opt))
		case "fig19", "fig25", "fig26":
			read, rw := hostnet.RunFig19(opt)
			hostnet.RenderDCTCP(w, read, rw)
		case "fig23":
			pts := hostnet.RunRDMAQuadrant(hostnet.Q3, []int{4, 5, 6}, opt)
			for _, p := range pts {
				fmt.Fprintf(w, "Fig 23: RDMA Q3 cores=%d pause=%.2f  us-scale IIO occupancy: %v\n",
					p.Cores, p.PauseFrac, head(p.IIOOccSamples, 40))
			}
			fmt.Fprintln(w)
		case "fig27", "fig28":
			hostnet.RenderFormula(w, hostnet.RunFig27(opt))
		case "fig29", "fig30":
			read, rw := hostnet.RunFig29(opt)
			renderDCTCPFormula(w, read, rw)
		case "prefetch":
			s := hostnet.RunPrefetchStudy(2, opt)
			fmt.Fprintf(w, "prefetch study (2 C2M-Read cores + P2M-Write):\n")
			fmt.Fprintf(w, "  isolated:  %.1f -> %.1f GB/s with prefetching\n", s.IsoOff/1e9, s.IsoOn/1e9)
			fmt.Fprintf(w, "  colocated: %.1f -> %.1f GB/s with prefetching\n", s.CoOff/1e9, s.CoOn/1e9)
			fmt.Fprintf(w, "  degradation ratio: %.2fx off vs %.2fx on (roughly unchanged)\n\n",
				s.DegradationOff(), s.DegradationOn())
		case "cxl":
			cfg := hostnet.CascadeLake()
			cfg.Audit = hostnet.AuditConfig{Enabled: opt.Audit, FailFast: true}
			iso := hostnet.NewWithCXL(cfg, hostnet.DefaultCXLConfig())
			iso.AddCore(hostnet.SeqRead(iso.CXLRegion(1<<30), 1<<30))
			iso.Run(opt.Warmup, opt.Window)
			co := hostnet.NewWithCXL(cfg, hostnet.DefaultCXLConfig())
			co.AddCore(hostnet.SeqRead(co.CXLRegion(1<<30), 1<<30))
			co.AddStorage(hostnet.BulkStorage(hostnet.DMAWrite, co.Region(1<<30)))
			co.Run(opt.Warmup, opt.Window)
			fmt.Fprintf(w, "CXL.mem expander (latency-for-isolation trade):\n")
			fmt.Fprintf(w, "  CXL-homed reads: %.0f ns, %.2f GB/s (DRAM-homed: ~71 ns, ~10.8 GB/s)\n",
				iso.Cores[0].Stats().LFBLat.AvgNanos(), iso.C2MBW()/1e9)
			fmt.Fprintf(w, "  colocated with host-DRAM P2M writes: %.0f ns (untouched), P2M %.2f GB/s (untouched)\n\n",
				co.Cores[0].Stats().LFBLat.AvgNanos(), co.P2MBW()/1e9)
		case "ratio":
			pts := exp.RunRatioSweep(5, []float64{0, 0.25, 0.5, 0.75, 1.0}, opt)
			t := exp.Table{
				Title:  "write-ratio sweep: the continuous blue->red transition (5 C2M cores + P2M-Write)",
				Header: []string{"writeFrac", "C2M degr", "P2M degr", "WPQ full", "backlog"},
			}
			for _, p := range pts {
				t.Add(fmt.Sprintf("%.2f", p.WriteFrac), fmt.Sprintf("%.2fx", p.C2MDegradation()),
					fmt.Sprintf("%.2fx", p.P2MDegradation()), fmt.Sprintf("%.2f", p.WPQFullFrac),
					fmt.Sprintf("%.1f", p.WBacklog))
			}
			t.Render(w)
		case "mcisolation":
			s := exp.RunMCIsolationStudy(5, 16, opt)
			fmt.Fprintf(w, "MC isolation via WPQ reservation (red regime, Q3 with 5 cores, reserve=16):\n")
			fmt.Fprintf(w, "  P2M degradation: %.2fx -> %.2fx\n", s.P2MDegrOff(), s.P2MDegrOn())
			fmt.Fprintf(w, "  C2M degradation: %.2fx -> %.2fx\n\n", s.C2MDegrOff(), s.C2MDegrOn())
		case "incast":
			fs := hostnet.FabricSpec{Hosts: fabricHosts}
			if err := fs.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, "-hosts:", err)
				return 2
			}
			s := hostnet.RunIncast(fs, 4, opt.Faults, opt)
			if emitCSV {
				if err := exp.IncastCSV(s).WriteCSV(w); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
			} else {
				hostnet.RenderIncast(w, s)
			}
		case "faultsweep":
			sched := opt.Faults
			if len(sched) == 0 {
				sched = exp.DefaultFaultSchedule(int64(opt.Warmup/sim.Nanosecond), int64(opt.Window/sim.Nanosecond))
			}
			renderFaultSweep(w, hostnet.RunFaultSweep(hostnet.Q3, []int{2, 4, 6}, sched, opt))
		case "crossval":
			cv, err := exp.RunCrossval(exp.Q1, exp.DefaultCoreSweep(), opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crossval:", err)
				return 1
			}
			renderCrossval(w, cv)
		case "hostcc":
			s := hostnet.RunHostCCStudy(hostnet.Q3, 5, hostnet.DefaultHostCCConfig(), opt)
			fmt.Fprintf(w, "hostCC-style mitigation (red regime, Q3 with 5 cores):\n")
			fmt.Fprintf(w, "  P2M degradation: %.2fx -> %.2fx\n", s.P2MDegrOff(), s.P2MDegrOn())
			fmt.Fprintf(w, "  C2M degradation: %.2fx -> %.2fx\n", s.C2MDegrOff(), s.C2MDegrOn())
			fmt.Fprintf(w, "  congested %.0f%% of intervals, avg throttle %.0f ns\n\n",
				s.CongestedFrac*100, s.AvgGapNanos)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			return 2
		}
	}
	return 0
}

func renderGrid(w *os.File, g exp.AppGridResult) {
	exp.RenderApps(w, fmt.Sprintf("Appendix B %s", g.Fig), map[string][]exp.AppPoint{
		"Redis(on)": g.RedisOn, "Redis(off)": g.RedisOff,
		"GAPBS(on)": g.GAPBSOn, "GAPBS(off)": g.GAPBSOff,
	})
}

func renderDCTCPFormula(w *os.File, read, rw []exp.DCTCPFormulaPoint) {
	t := exp.Table{
		Title:  "Fig 29: formula error in the TCP case study (%)",
		Header: []string{"case", "cores", "mem err", "net C2M err", "net P2M err"},
	}
	for _, f := range read {
		t.Add("C2MRead", f.C2MCores, fmt.Sprintf("%+.1f", f.MemErrPct),
			fmt.Sprintf("%+.1f", f.NetC2MErrPct), fmt.Sprintf("%+.1f", f.NetP2MErrPct))
	}
	for _, f := range rw {
		t.Add("C2MReadWrite", f.C2MCores, fmt.Sprintf("%+.1f", f.MemErrPct),
			fmt.Sprintf("%+.1f", f.NetC2MErrPct), fmt.Sprintf("%+.1f", f.NetP2MErrPct))
	}
	t.Render(w)
}

func renderCrossval(w *os.File, cv *exp.CrossvalResult) {
	t := exp.Table{
		Title: fmt.Sprintf("crossval: analytic vs sim, quadrant %d (envelope ±%.0f%%)",
			cv.Quadrant, float64(exp.CrossvalEnvelopePct)),
		Header: []string{"cores", "sim C2M", "pred C2M", "BW err", "sim L", "pred L", "L err"},
	}
	for _, p := range cv.Points {
		t.Add(p.Cores,
			fmt.Sprintf("%.1f GB/s", p.SimC2MBytesPerSec/1e9),
			fmt.Sprintf("%.1f GB/s", p.PredC2MBytesPerSec/1e9),
			fmt.Sprintf("%+.1f%%", p.BWErrPct),
			fmt.Sprintf("%.0f ns", p.SimC2MReadLatencyNs),
			fmt.Sprintf("%.0f ns", p.PredC2MReadLatencyNs),
			fmt.Sprintf("%+.1f%%", p.LatErrPct))
	}
	t.Render(w)
}

func renderFaultSweep(w *os.File, s *exp.FaultSweep) {
	fmt.Fprintf(w, "fault sweep (RDMA quadrant %d under %d fault windows):\n", s.Quadrant, len(s.Schedule))
	for _, f := range s.Schedule {
		fmt.Fprintf(w, "  %-18s start=%dns dur=%dns mag=%.2g ch=%d bank=%d\n",
			f.Kind, f.StartNs, f.DurationNs, f.Magnitude, f.Channel, f.Bank)
	}
	t := exp.Table{
		Title: "healthy vs faulted degradation",
		Header: []string{"cores", "C2M degr", "C2M faulted", "P2M degr", "P2M faulted",
			"pause", "pause faulted"},
	}
	for _, p := range s.Points {
		t.Add(p.Cores,
			fmt.Sprintf("%.2fx", p.Healthy.C2MDegradation()), fmt.Sprintf("%.2fx", p.Faulted.C2MDegradation()),
			fmt.Sprintf("%.2fx", p.Healthy.P2MDegradation()), fmt.Sprintf("%.2fx", p.Faulted.P2MDegradation()),
			fmt.Sprintf("%.2f", p.Healthy.PauseFrac), fmt.Sprintf("%.2f", p.Faulted.PauseFrac))
	}
	t.Render(w)
}

// parseFaults decodes the -faults argument: empty, inline JSON, or @file.
func parseFaults(arg string) (hostnet.FaultSchedule, error) {
	if arg == "" {
		return nil, nil
	}
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		data = b
	}
	var s hostnet.FaultSchedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding fault schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Normalized(), nil
}

func head(xs []int, n int) []int {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// boolFlags are the flags that take no value argument; every other flag
// consumes the following token when written as "-flag value".
var boolFlags = map[string]bool{"ddio": true, "csv": true, "audit": true, "version": true}

// reorderArgs moves flag tokens ahead of experiment names so that
// "hostnetsim fig3 -parallel 8" works; the standard flag package stops
// parsing at the first positional argument.
func reorderArgs(args []string) []string {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") || a == "-" || a == "--" {
			pos = append(pos, a)
			continue
		}
		flags = append(flags, a)
		name := strings.TrimLeft(a, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			continue // -flag=value is self-contained
		}
		if !boolFlags[name] && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return append(flags, pos...)
}
