package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyInputs generates a workload's smoke-test-sized inputs: what set-up
// diagnoses, then the first submissions.
func tinyInputs(t *testing.T, w *workload, seed int64) []*input {
	t.Helper()
	p, err := w.plan(newGen(w.Name, seed), 12, true)
	if err != nil {
		t.Fatal(err)
	}
	inputs := append([]*input(nil), p.seed...)
	for i := 0; i < 24; i++ {
		if j, ok := p.pick(i); ok {
			inputs = append(inputs, j.in)
		}
	}
	return inputs
}

// variantDigests maps the digest of every generated variant (the
// committed base corpora are the same for every seed by design) to the
// input's name.
func variantDigests(t *testing.T, inputs []*input) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, in := range inputs {
		if in.tag == "" {
			continue
		}
		d, err := in.wantDigest()
		if err != nil {
			t.Fatal(err)
		}
		out[d] = in.name()
	}
	return out
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	all := make(map[string]string) // variant digest → workload, seed 1
	for _, w := range workloads {
		a := tinyInputs(t, w, 1)
		b := tinyInputs(t, w, 1)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d inputs from one seed", w.Name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].bytes(), b[i].bytes()) || a[i].chunk != b[i].chunk {
				t.Fatalf("%s: input %d (%s) differs between two generations from seed 1", w.Name, i, a[i].name())
			}
		}
		first := variantDigests(t, a)
		if len(first) == 0 {
			t.Fatalf("%s: no variants generated", w.Name)
		}
		c := tinyInputs(t, w, 2)
		for d, name := range variantDigests(t, c) {
			if other, shared := first[d]; shared {
				t.Errorf("%s: seeds 1 and 2 share digest %.12s (%s, %s)", w.Name, d, other, name)
			}
		}
		for d, name := range first {
			if other, shared := all[d]; shared {
				t.Errorf("digest %.12s of %s/%s is also generated by %s", d, w.Name, name, other)
			}
			all[d] = w.Name
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose: 200 … 1
	}
	if v, ok := percentile(xs, 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (nearest rank), true", v, ok)
	}
	if _, ok := percentile(xs, 99); ok {
		t.Error("p99 of 200 samples has 2 samples beyond it and must be refused")
	}
	if v, ok := percentile(xs[:20], 50); !ok || v != 190 {
		t.Errorf("p50 of 20 samples = %v, %v; want 190, true (exactly ten beyond)", v, ok)
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Error("p50 of 19 samples has nine samples beyond it and must be refused")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of nothing must be refused")
	}
	if got := percentileOrZero(xs, 99); got != 0 {
		t.Errorf("refused percentile reads %v in the metric table, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// One client job [0,100] holding: a router request [10,40] with a
	// server request [15,30] inside; a pool job [35,90] that starts inside
	// the router request and outlives it, with two overlapping model calls
	// [50,70] and [60,80]; and a replication span [120,130] after the job.
	spans := link([]span{
		{Name: spanLLM, Start: 60, End: 80},
		{Name: spanReplicate, Start: 120, End: 130},
		{Name: spanClientJob, Start: 0, End: 100},
		{Name: spanPoolJob, Start: 35, End: 90},
		{Name: spanSubmit, Start: 15, End: 30},
		{Name: spanLLM, Start: 50, End: 70},
		{Name: spanRouter, Start: 10, End: 40},
	})
	self := selfTimes(spans)
	at := func(start, end int64) span {
		for _, s := range spans {
			if s.Start == start && s.End == end {
				return s
			}
		}
		t.Fatalf("span [%d,%d] is gone", start, end)
		return span{}
	}
	root, router, server := at(0, 100), at(10, 40), at(15, 30)
	pool, call, replica := at(35, 90), at(50, 70), at(120, 130)
	for _, c := range []struct {
		s      span
		parent int
		trace  int
		self   int64
	}{
		{root, 0, 1, 20},         // 100 − union [10,90] of router and pool job
		{router, root.ID, 1, 15}, // 30 − the server request's 15
		{server, router.ID, 1, 15},
		{pool, root.ID, 1, 25}, // it outlives the router request, so the job is its parent; 55 − union [50,80]
		{call, pool.ID, 1, 20},
		{replica, 0, 0, 10}, // after the job: off the blocking path
	} {
		if c.s.Parent != c.parent || c.s.Trace != c.trace || self[c.s.ID] != c.self {
			t.Errorf("%s [%d,%d]: parent %d trace %d self %d, want parent %d trace %d self %d",
				c.s.Name, c.s.Start, c.s.End, c.s.Parent, c.s.Trace, self[c.s.ID], c.parent, c.trace, c.self)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_jobs_s", Better: "higher", Bound: 0.10}
	v := func(x float64, slices ...float64) value { return value{Value: x, Slices: slices} }
	for _, c := range []struct {
		d          metricDef
		base, next value
		want       string
	}{
		{lower, v(10, 10, 10, 10), v(10.5, 10.4, 10.5, 10.6), "within"},
		{lower, v(10, 10, 10, 10), v(11.5, 11.4, 11.5, 11.6), "worse"},
		{lower, v(10, 10, 10, 10), v(8, 8, 8, 8), "better"},
		{higher, v(100, 100, 100, 100), v(80, 80, 80, 80), "worse"},
		{higher, v(100, 100, 100, 100), v(120, 120, 120, 120), "better"},
		{lower, v(10, 9, 10, 11), v(10.5, 10, 10.5, 11), "unresolved"},   // slices spread 20% > bound
		{lower, v(10, 9, 10, 11), v(14, 13, 14, 15.5), "worse"},          // wide, but every slice is beyond
		{lower, v(10, 9, 10, 11), v(11.5, 10.5, 11.5, 12), "unresolved"}, // wide and overlapping
	} {
		if got := verdict(c.d, c.base, c.next); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.base, c.next, got, c.want)
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the table's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at tiny size through both passes, as
// `go run ./bench` does, and checks that every metric BENCHMARK.json
// names is printed exactly once per workload, with its unit.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	out := t.TempDir()
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	printed := make(chan string)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		printed <- buf.String()
	}()
	ok, err := execute(context.Background(), "", options{Seed: 7, Seconds: 1, Tiny: true, OutDir: out})
	os.Stdout = stdout
	w.Close()
	text := <-printed
	if err != nil || !ok {
		t.Fatalf("tiny run: ok=%t err=%v\n%s", ok, err, text)
	}

	units := make(map[string]string) // "workload metric" → unit, as printed
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || workloadByName(f[0]) == nil {
			continue
		}
		key := f[0] + " " + f[1]
		if _, twice := units[key]; twice {
			t.Errorf("%s is printed more than once", key)
		}
		units[key] = f[3]
	}
	for _, w := range bj.Workloads {
		for _, m := range append(append([]jsonMetric(nil), bj.EndToEnd...), bj.PerLayer...) {
			if got, ok := units[w.Name+" "+m.Name]; !ok || got != m.Unit {
				t.Errorf("%s %s: printed unit %q (printed=%t), BENCHMARK.json says %q", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	if len(units) != len(bj.Workloads)*(len(bj.EndToEnd)+len(bj.PerLayer)) {
		t.Errorf("%d metric lines printed, BENCHMARK.json names %d", len(units), len(bj.Workloads)*(len(bj.EndToEnd)+len(bj.PerLayer)))
	}

	// Nothing is left behind but the result file and the span dumps.
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "state-") {
			t.Errorf("state directory %s was not removed", e.Name())
		}
	}
	rf, err := readResult(out + "/result.json")
	if err != nil || len(rf.Workloads) != len(workloads) || rf.Envelope.GoVersion == "" {
		t.Errorf("result file: %+v, %v", rf, err)
	}
}
