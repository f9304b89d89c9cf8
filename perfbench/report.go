package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the run's header and metrics. Only the metrics of the
// run's mode (end-to-end, or per-layer when traced) go into the final
// JSON line; everything is printed above it for people.
type report struct {
	header  [][2]string
	names   []string
	metrics map[string]metric
	notes   []string
	// selected lists the metrics that go into the final JSON line.
	selected []string
}

func (r *report) head(k, v string) { r.header = append(r.header, [2]string{k, v}) }

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s has no finite value (%v); reported as -1", name, v)
		v = -1
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer, correct bool, attempted, failed int) {
	for _, h := range r.header {
		fmt.Fprintf(w, "# %-26s %s\n", h[0], h[1])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-42s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, map[string]metric{}}
	for _, n := range r.selected {
		out.Metrics[n] = r.metrics[n]
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	fmt.Fprintln(w, string(b))
}

// sourceDigest identifies the code under test when the checkout is not
// a git repository: a SHA-256 over the module's Go sources and go.mod,
// outside dot-directories and the benchmark's own directory.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || p == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func hostHeader(r *report) {
	host, _ := os.Hostname()
	r.head("host", host)
	r.head("num_cpu", fmt.Sprint(runtime.NumCPU()))
	r.head("gomaxprocs_bench", fmt.Sprint(runtime.GOMAXPROCS(0)))
	srv := fmt.Sprintf("%d (Go default: num_cpu)", runtime.NumCPU())
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		srv = v + " (GOMAXPROCS in the environment)"
	}
	r.head("gomaxprocs_server", srv)
	r.head("git_rev", gitRev())
	r.head("source_sha256", sourceDigest())
	r.head("go", runtime.Version())
}
