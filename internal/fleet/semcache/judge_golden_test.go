package semcache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/eval"
	"ioagent/internal/fleet/semcache"
	"ioagent/internal/issue"
	"ioagent/internal/judge"
	"ioagent/internal/llm"
	"ioagent/internal/scenario"
	"ioagent/internal/tracebench"
)

// The judge traffic, pinned from outside: every exchange the reuse gate,
// the tier self-check and eval.ScoreDiagnosis make with the simulated
// model over the TraceBench suite and the scenario matrix, and every
// score they return, is byte-for-byte what it was when
// testdata/judge.golden was written (the commit before the three scorers
// were folded into one kernel, judge.AgainstNull, and the fleet began
// deriving a trace's features and labels once per job).

var updateJudge = flag.Bool("update", false, "rewrite testdata/judge.golden from this build")

const judgeGoldenPath = "testdata/judge.golden"

// call is one recorded model exchange, reduced to two hashes.
type call struct {
	prompt [sha256.Size]byte // of (model, prompt): the sort key
	whole  [sha256.Size]byte // of the prompt key plus everything answered
}

// recorder is an llm.Client that hashes every exchange passing through it.
type recorder struct {
	inner llm.Client

	mu    sync.Mutex
	calls []call
}

func (r *recorder) Complete(req llm.Request) (llm.Response, error) {
	resp, err := r.inner.Complete(req)
	if err != nil {
		return resp, err
	}
	var c call
	c.prompt = sha256.Sum256([]byte(req.Model + "\x00" + llm.JoinPrompt(req.Messages)))
	h := sha256.New()
	h.Write(c.prompt[:])
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%x\x00%t", resp.Model, resp.Content,
		resp.Usage.PromptTokens, resp.Usage.CompletionTokens, resp.CostUSD, resp.Truncated)
	h.Sum(c.whole[:0])
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
	return resp, nil
}

// digest folds the recorded calls, sorted by prompt hash, into one hash.
func (r *recorder) digest() (n int, sum [sha256.Size]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.calls, func(i, j int) bool {
		a, b := r.calls[i], r.calls[j]
		if a.prompt != b.prompt {
			return string(a.prompt[:]) < string(b.prompt[:])
		}
		return string(a.whole[:]) < string(b.whole[:])
	})
	h := sha256.New()
	for _, c := range r.calls {
		h.Write(c.whole[:])
	}
	h.Sum(sum[:0])
	return len(r.calls), sum
}

// judged is one input of the golden: a trace, its known labels, and the
// diagnosis texts scored against it.
type judged struct {
	name     string
	log      *darshan.Log
	expected issue.Set
}

func judgedInputs() []judged {
	var out []judged
	for _, tr := range tracebench.Suite() {
		out = append(out, judged{tr.Name, tr.Log(), tr.Labels})
	}
	for _, sc := range scenario.Matrix() {
		_, log := sc.Build()
		out = append(out, judged{"scenario/" + sc.Name, log, sc.Expected})
	}
	return out
}

// candidates are the diagnosis texts each input is judged on: the
// heuristic report of the trace itself, that of the next input (a
// near-miss with other labels), and the null report the judge ranks
// every text against.
func candidates(ins []judged, i int) []string {
	next := ins[(i+1)%len(ins)]
	return []string{
		drishti.Analyze(ins[i].log).Format(),
		drishti.Analyze(next.log).Format(),
		judge.NullReport,
	}
}

func TestJudgeGolden(t *testing.T) {
	ins := judgedInputs()
	var got strings.Builder
	for i, in := range ins {
		rec := &recorder{inner: llm.NewSim()}
		gate := &semcache.Gate{Client: rec, Model: llm.GPT4oMini}
		var scores strings.Builder
		labels := semcache.Derive(in.log).Labels
		for _, text := range candidates(ins, i) {
			dec, err := gate.Evaluate(in.log, text, 0.9)
			if err != nil {
				t.Fatalf("%s: gate: %v", in.name, err)
			}
			self, err := gate.ScoreDiagnosis(labels, text)
			if err != nil {
				t.Fatalf("%s: self-check: %v", in.name, err)
			}
			score, err := eval.ScoreDiagnosis(rec, "", in.expected, text)
			if err != nil {
				t.Fatalf("%s: eval: %v", in.name, err)
			}
			fmt.Fprintf(&scores, "%t %x %x %x %x %x\n", dec.Reuse, dec.Confidence, dec.LabelF1, dec.JudgeScore, self, score)
		}
		n, sum := rec.digest()
		h := sha256.New()
		h.Write(sum[:])
		h.Write([]byte(scores.String()))
		fmt.Fprintf(&got, "%s %d %s\n", hex.EncodeToString(h.Sum(nil)), n, in.name)
	}
	if *updateJudge {
		if err := os.WriteFile(judgeGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(judgeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("judge traffic drifted at line %d:\n got  %s\n want %s", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("golden file has %d lines, this build produced fewer", len(wantLines))
}

// TestEvaluateMatchesDerived: the log-taking Gate.Evaluate and the form
// the fleet calls with the labels it derived once per job return equal
// Decisions on every trace and candidate of the golden.
func TestEvaluateMatchesDerived(t *testing.T) {
	ins := judgedInputs()
	gate := &semcache.Gate{Client: llm.NewSim()}
	for i, in := range ins {
		d := semcache.Derive(in.log)
		if d.Features != semcache.FeatureText(in.log) {
			t.Fatalf("%s: Derive's features differ from FeatureText", in.name)
		}
		for _, text := range candidates(ins, i) {
			fromLog, err := gate.Evaluate(in.log, text, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := gate.EvaluateLabels(d.Labels, text, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if fromLog != derived {
				t.Fatalf("%s: Evaluate = %+v, EvaluateLabels(Derive) = %+v", in.name, fromLog, derived)
			}
		}
	}
}
