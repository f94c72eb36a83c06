package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printEnv prints what a reader needs to compare two results: machine,
// runtime and the commit measured.
func printEnv(root string) {
	fmt.Printf("env: nproc %d, GOMAXPROCS %d, %s %s/%s, cpu %q, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), commit(root))
}

// printConfig records the pinned execution knobs of the workload.
func printConfig(workload string) {
	switch workload {
	case "fig3", "incast8":
		fmt.Printf("config: spec %s, Parallelism %d, FabricWorkers %d, Audit false, fresh process per iteration\n",
			simSpecs[workload], simParallelism, simFabricWorkers)
	case "serve-mix":
		c := serveConfig(nil)
		fmt.Printf("config: serve.Config{Workers %d, QueueDepth %d, Parallelism %d, CacheBytes %d, JobTimeout %v, Audit %v}, %d closed-loop keep-alive clients, fresh process per iteration\n",
			c.Workers, c.QueueDepth, c.Parallelism, c.CacheBytes, c.JobTimeout, c.Audit, mixClients)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout without .git reports "none".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
