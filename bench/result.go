package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// envelope records where and how a result file was measured, so two
// files can be told apart before their numbers are compared.
type envelope struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	Seconds      int     `json:"window_seconds"`
	SliceSeconds float64 `json:"slice_seconds"`
	Time         string  `json:"time"`
}

// resultFile is what a run writes to <out>/result.json and what -compare
// reads.
type resultFile struct {
	Envelope  envelope  `json:"envelope"`
	Workloads []*report `json:"workloads"`
}

func newEnvelope(o options) envelope {
	return envelope{
		Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: cpuModel(),
		Seed: o.Seed, Clients: clients, Seconds: o.Seconds, SliceSeconds: sliceLength.Seconds(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the commit under test: the build's VCS stamp when the
// toolchain left one (go build does, go run does not), else what .git
// says HEAD is, else "unknown" (the driver's checkout is not a
// repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash itself
	}
	if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	return ref // packed ref: name the branch rather than parse packed-refs
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

func writeResult(path string, o options, reports []*report) error {
	data, err := json.MarshalIndent(resultFile{Envelope: newEnvelope(o), Workloads: reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// number prints a value as measured, with all its digits.
func number(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printMetrics writes one `workload metric value unit` line per metric
// of the table that the report carries, in table order; a percentile is
// followed by its sample count.
func printMetrics(w io.Writer, rep *report, defs []metricDef) {
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", rep.Workload, d.Name, number(v.Value), d.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Fprintln(w, line)
	}
}

// contractLine is the last line of a single-workload run: the object
// the benchmark driver parses.
func contractLine(rep *report, defs []metricDef) (string, error) {
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(defs))
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", rep.Workload, d.Name)
		}
		metrics[d.Name] = wire{v.Value, d.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, metrics})
	return string(data), err
}
