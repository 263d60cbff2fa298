package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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
}

// unexposed lists the leaves of the document that have no Prometheus
// family, each for a reason; everything else must be in the table.
var unexposed = map[string]bool{
	"Node":                true, // identity, not a measurement; empty on an aggregate
	"Queued":              true, // the sum of the two fleet_jobs_queued lane series
	"HitRate":             true, // a ratio of three exposed counters, recomputed after a merge
	"Sched.Tenants.Class": true, // a name; the weight it implies is exposed
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
		if f.name != "" && (f.help == "" || (f.kind != counter && f.kind != gauge)) {
			t.Errorf("family %s: kind %q, help %q", f.name, f.kind, f.help)
		}
		for _, l := range f.leaves {
			if _, dup := declared[l.path]; dup {
				t.Errorf("leaf %s is declared twice", l.path)
			}
			if l.merge < sum || l.merge > first {
				t.Errorf("leaf %s has no merge rule", l.path)
			}
			declared[l.path] = decl{f.name, l.merge}
		}
	}

	var leaves []string
	var visit func(typ reflect.Type, path string)
	visit = func(typ reflect.Type, path string) {
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
// (fixed label sets such as lane= keep table order).
func TestExpositionGrammar(t *testing.T) {
	keyed := make(map[string]bool)
	for _, f := range families {
		keyed[f.name] = strings.Contains(f.leaves[0].labels, "%q")
	}
	docs := map[string]Metrics{
		"node":      fixtureNode(),
		"aggregate": MergeMetrics([]Metrics{fixtureNode(), fixturePeer()}),
		"zero":      {},
	}
	for name, m := range docs {
		var family, lastLabels string
		typed := make(map[string]bool)
		series := make(map[string]bool)
		lines := strings.Split(strings.TrimSuffix(string(promText(m)), "\n"), "\n")
		for i, line := range lines {
			switch {
			case strings.HasPrefix(line, "# HELP "):
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
