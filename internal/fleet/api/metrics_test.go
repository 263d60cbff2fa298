package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current renderers")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (rerun with -update only for an intended wire change)\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func promText(m Metrics) []byte {
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	return buf.Bytes()
}

// jsonText encodes as server.WriteJSON does — one compact,
// newline-terminated document — then indents it, so the goldens stay
// readable in review. Whitespace is not part of the wire contract.
func jsonText(t *testing.T, m Metrics) []byte {
	t.Helper()
	var compact, buf bytes.Buffer
	if err := json.NewEncoder(&compact).Encode(m); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&buf, compact.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsGoldens pins the wire output of the metrics document. The
// files were written by the hand-written server.WritePrometheus,
// server.WriteJSON and client.AggregateMetrics of the commit before the
// table existed; the one delta the table was allowed is the handoff
// block, which that AggregateMetrics dropped, so the aggregate is
// compared with the block taken off again.
func TestMetricsGoldens(t *testing.T) {
	golden(t, "metrics.prom", promText(fixtureNode()))
	golden(t, "metrics.json", jsonText(t, fixtureNode()))
	golden(t, "metrics_zero.prom", promText(Metrics{}))
	golden(t, "metrics_zero.json", jsonText(t, Metrics{}))

	agg := MergeMetrics([]Metrics{fixtureNode(), fixturePeer(), {}})
	want := HandoffMetrics{
		RosterSize: 4, RosterEpoch: 11, RingChanges: 5,
		EntriesPushed: 15, PushErrors: 1, EntriesReceived: 17,
		ReplicaPushed: 68, ReplicaReceived: 68,
	}
	if agg.Handoff == nil || *agg.Handoff != want {
		t.Errorf("aggregate handoff = %+v, want %+v", agg.Handoff, want)
	}
	agg.Handoff = nil
	golden(t, "metrics_aggregate.prom", promText(agg))
	golden(t, "metrics_aggregate.json", jsonText(t, agg))

	// The same documents as api 1.8 nodes send them, histograms included,
	// and their merge.
	golden(t, "metrics_buckets.prom", promText(fixtureBucketsNode()))
	golden(t, "metrics_buckets.json", jsonText(t, fixtureBucketsNode()))
	agg = MergeMetrics([]Metrics{fixtureBucketsNode(), fixtureBucketsPeer(), {}})
	golden(t, "metrics_buckets_aggregate.prom", promText(agg))
	golden(t, "metrics_buckets_aggregate.json", jsonText(t, agg))
}

// unexposed lists the leaves of the document that have no Prometheus
// family, each for a reason; everything else must be in the table.
var unexposed = map[string]bool{
	"Node":                     true, // identity, not a measurement; empty on an aggregate
	"Queued":                   true, // the sum of the two fleet_jobs_queued lane series
	"HitRate":                  true, // a ratio of three exposed counters, recomputed after a merge
	"Sched.Tenants.Class":      true, // a name; the weight it implies is exposed
	"Sched.Tenants.AgeBuckets": true, // exposed through its two gauges, to keep cardinality per tenant at two
}

// TestEveryLeafIsDeclared walks api.Metrics by reflection: adding a field
// to the document (or to a block or map entry inside it) without a row in
// the families table — family, kind, HELP and merge rule — fails here.
func TestEveryLeafIsDeclared(t *testing.T) {
	type decl struct {
		family string
		merge  rule
	}
	declared := make(map[string]decl)
	for _, f := range families {
		if f.name != "" && (f.help == "" || (f.kind != counter && f.kind != gauge && f.kind != histogram)) {
			t.Errorf("family %s: kind %q, help %q", f.name, f.kind, f.help)
		}
		for _, l := range f.leaves {
			if _, dup := declared[l.path]; dup {
				t.Errorf("leaf %s is declared twice", l.path)
			}
			if l.merge < sum || l.merge > pooled {
				t.Errorf("leaf %s has no merge rule", l.path)
			}
			if f.kind == histogram && (len(f.leaves) != 1 || l.labels != "" || l.merge != sum) {
				t.Errorf("histogram family %s: one unlabelled leaf merging by sum, got %+v", f.name, f.leaves)
			}
			// A percentile merged by largest is the worst node's, not
			// the cluster's.
			if strings.Contains(l.path, "P50") || strings.Contains(l.path, "P95") {
				if l.merge != pooled {
					t.Errorf("percentile %s merges by rule %d, not pooled", l.path, l.merge)
				}
			}
			declared[l.path] = decl{f.name, l.merge}
		}
	}

	var leaves []string
	var visit func(typ reflect.Type, path string)
	visit = func(typ reflect.Type, path string) {
		if typ == bucketsType { // a histogram is one leaf
			leaves = append(leaves, path)
			return
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Map:
			visit(typ.Elem(), path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				visit(typ.Field(i).Type, strings.TrimPrefix(path+"."+typ.Field(i).Name, "."))
			}
		default:
			leaves = append(leaves, path)
		}
	}
	visit(reflect.TypeFor[Metrics](), "")

	for _, path := range leaves {
		d, ok := declared[path]
		switch {
		case unexposed[path]:
			if d.family != "" {
				t.Errorf("%s is on the unexposed list but has family %s", path, d.family)
			}
		case !ok:
			t.Errorf("Metrics.%s has no row in the families table", path)
		case d.family == "":
			t.Errorf("Metrics.%s merges but has no family; expose it or list it in unexposed with the reason", path)
		}
		delete(declared, path)
	}
	for path := range declared {
		t.Errorf("the families table declares %s, which is not a leaf of Metrics", path)
	}
}

// TestExpositionGrammar checks the text form of a full, a merged and an
// empty document: HELP then TYPE exactly once per family and before its
// samples, no series twice, and the series of a map in sorted key order
// (fixed label sets such as lane= keep table order). A histogram's
// series are _bucket lines in increasing le with non-decreasing counts,
// the last le="+Inf", then _sum, then a _count equal to that last count.
func TestExpositionGrammar(t *testing.T) {
	keyed := make(map[string]bool)
	kinds := make(map[string]string)
	for _, f := range families {
		keyed[f.name] = strings.Contains(f.leaves[0].labels, "%q")
		kinds[f.name] = f.kind
	}
	docs := map[string]Metrics{
		"node":             fixtureBucketsNode(),
		"aggregate":        MergeMetrics([]Metrics{fixtureBucketsNode(), fixturePeer()}),
		"legacy aggregate": MergeMetrics([]Metrics{fixtureNode(), fixturePeer()}),
		"zero":             {},
	}
	for name, m := range docs {
		var family, lastLabels string
		var hist []string // the current histogram family's sample lines
		typed := make(map[string]bool)
		series := make(map[string]bool)
		lines := strings.Split(strings.TrimSuffix(string(promText(m)), "\n"), "\n")
		for i, line := range lines {
			switch {
			case strings.HasPrefix(line, "# HELP "):
				checkHistogram(t, name, family, hist)
				hist = nil
				family, _, _ = strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
				if typed[family] {
					t.Errorf("%s: family %s announced twice", name, family)
				}
				typed[family] = true
				lastLabels = ""
				if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+family+" ") {
					t.Errorf("%s: HELP %s is not followed by its TYPE", name, family)
				}
			case strings.HasPrefix(line, "# TYPE "):
				if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+family+" ") {
					t.Errorf("%s: stray %q", name, line)
				}
			case kinds[family] == histogram:
				hist = append(hist, line)
			default:
				id, _, _ := strings.Cut(line, " ")
				fam, labels, _ := strings.Cut(id, "{")
				if fam != family {
					t.Errorf("%s: sample %q under family %s", name, line, family)
				}
				if series[id] {
					t.Errorf("%s: series %s twice", name, id)
				}
				series[id] = true
				// The key is the leading label; leaves of one key share it.
				key, _, _ := strings.Cut(labels, ",")
				if last, _, _ := strings.Cut(lastLabels, ","); keyed[family] && key < last {
					t.Errorf("%s: %s after %s in family %s", name, labels, lastLabels, family)
				}
				lastLabels = labels
			}
		}
		checkHistogram(t, name, family, hist)
		if name == "node" && len(typed) != len(families)-1 {
			t.Errorf("full document exposes %d families, table has %d", len(typed), len(families)-1)
		}
	}
}

// TestMergeMetricsRules exercises the two rules whose result depends on
// which node comes first.
func TestMergeMetricsRules(t *testing.T) {
	a := Metrics{Knowledge: &KnowledgeStatus{Epoch: 9, RetrievalP95: time.Millisecond}}
	b := Metrics{Knowledge: &KnowledgeStatus{Epoch: 4}, Sched: &SchedMetrics{Tenants: map[string]SchedTenant{"t": {Class: "gold"}}}}
	for _, nodes := range [][]Metrics{{a, b}, {b, a}, {{}, a, b}} {
		agg := MergeMetrics(nodes)
		if agg.Knowledge.Epoch != 4 || agg.Knowledge.RetrievalP95 != time.Millisecond {
			t.Errorf("knowledge = %+v, want min epoch 4, max p95 1ms", *agg.Knowledge)
		}
		if agg.Sched.Tenants["t"].Class != "gold" {
			t.Errorf("class = %q, want gold", agg.Sched.Tenants["t"].Class)
		}
	}
	if agg := MergeMetrics(nil); !reflect.DeepEqual(agg, Metrics{}) {
		t.Errorf("merging nothing = %+v", agg)
	}
}

// checkHistogram checks one histogram family's sample lines (see
// TestExpositionGrammar).
func checkHistogram(t *testing.T, doc, family string, lines []string) {
	t.Helper()
	if lines == nil {
		return
	}
	if len(lines) != len(promBounds)+3 {
		t.Errorf("%s: histogram %s has %d lines, want %d", doc, family, len(lines), len(promBounds)+3)
		return
	}
	lastLe, lastCount := -1.0, -1.0
	for i, line := range lines[:len(lines)-2] {
		var le string
		var count float64
		if _, err := fmt.Sscanf(line, family+"_bucket{le=%q} %g", &le, &count); err != nil {
			t.Errorf("%s: %q: %v", doc, line, err)
			return
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil || bound <= lastLe || count < lastCount || (i == len(lines)-3) != math.IsInf(bound, 1) {
			t.Errorf("%s: %q after le %g count %g", doc, line, lastLe, lastCount)
		}
		lastLe, lastCount = bound, count
	}
	var sum, count float64
	if _, err := fmt.Sscanf(lines[len(lines)-2], family+"_sum %g", &sum); err != nil || sum < 0 {
		t.Errorf("%s: %q: %v", doc, lines[len(lines)-2], err)
	}
	if _, err := fmt.Sscanf(lines[len(lines)-1], family+"_count %g", &count); err != nil || count != lastCount {
		t.Errorf("%s: %q, the +Inf bucket holds %g", doc, lines[len(lines)-1], lastCount)
	}
}

// TestMergeMetricsPools: a merged percentile is the pooled samples',
// which can sit far below the worse node's, and a node that sends no
// histogram (api 1.7) still folds by largest, so a mixed-version cluster
// never reports less than the worst such node.
func TestMergeMetricsPools(t *testing.T) {
	node := func(b *Buckets) Metrics {
		return Metrics{LatencyBuckets: b, LatencyP50: b.Quantile(0.50), LatencyP95: b.Quantile(0.95)}
	}
	slow := node(samples(10*time.Millisecond, 9, time.Second, 1)) // p95 1s: its one slow job
	fast := node(samples(10*time.Millisecond, 30))
	agg := MergeMetrics([]Metrics{slow, fast})
	if slow.LatencyP95 != time.Second || bucketOf(agg.LatencyP95) != bucketOf(10*time.Millisecond) {
		t.Errorf("pooled p95 = %v, want the bucket holding 10ms (the worse node's is %v)", agg.LatencyP95, slow.LatencyP95)
	}
	if n := agg.LatencyBuckets.Count(); n != 40 || agg.LatencyBuckets.Max != time.Second {
		t.Errorf("pooled histogram holds %d samples, max %v", n, agg.LatencyBuckets.Max)
	}
	old := Metrics{LatencyP50: 20 * time.Millisecond, LatencyP95: 500 * time.Millisecond}
	for _, nodes := range [][]Metrics{{slow, fast, old}, {old, slow, fast}} {
		if agg := MergeMetrics(nodes); agg.LatencyP50 != old.LatencyP50 || agg.LatencyP95 != old.LatencyP95 {
			t.Errorf("with a 1.7 node: p50/p95 = %v/%v, want its %v/%v", agg.LatencyP50, agg.LatencyP95, old.LatencyP50, old.LatencyP95)
		}
	}
	old.LatencyP95 = time.Millisecond
	if got := MergeMetrics([]Metrics{old, slow, fast}).LatencyP95; got != agg.LatencyP95 {
		t.Errorf("a faster 1.7 node: p95 = %v, want the pooled %v", got, agg.LatencyP95)
	}
	if slow.LatencyBuckets.Count() != 10 || fast.LatencyBuckets.Count() != 30 {
		t.Error("merging modified a node's histogram")
	}
}
