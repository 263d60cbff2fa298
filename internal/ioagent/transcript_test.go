package ioagent_test

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
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
	"ioagent/internal/scenario"
	"ioagent/internal/tracebench"
)

// The simulated model's contract, pinned from outside: every answer the
// agent receives while diagnosing the TraceBench suite and the scenario
// matrix is byte-for-byte what it was when testdata/transcripts.golden
// was written (the commit before the embedding and simulator kernels
// were rebuilt). Table IV, the scenario baselines and every dollar figure
// are functions of these transcripts.

var updateTranscripts = flag.Bool("update", false, "rewrite testdata/transcripts.golden from this build")

const transcriptsPath = "testdata/transcripts.golden"

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

// digest folds the recorded calls into one hash. Calls are sorted by
// prompt hash first, so the order goroutines happened to run in cannot
// matter.
func (r *recorder) digest() (n int, sum string) {
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
	return len(r.calls), hex.EncodeToString(h.Sum(nil))
}

// namedLog is one diagnosis input of the golden: the 40 TraceBench logs,
// then the scenario matrix.
type namedLog struct {
	name string
	log  *darshan.Log
}

func transcriptInputs() []namedLog {
	var out []namedLog
	for _, tr := range tracebench.Suite() {
		out = append(out, namedLog{tr.Name, tr.Log()})
	}
	for _, sc := range scenario.Matrix() {
		_, log := sc.Build()
		out = append(out, namedLog{"scenario/" + sc.Name, log})
	}
	return out
}

func TestTranscriptsGolden(t *testing.T) {
	var got strings.Builder
	for _, in := range transcriptInputs() {
		rec := &recorder{inner: llm.NewSim()}
		if _, err := ioagent.New(rec, ioagent.Options{}).Diagnose(in.log); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		n, sum := rec.digest()
		fmt.Fprintf(&got, "%s %d %s\n", sum, n, in.name)
	}
	if *updateTranscripts {
		if err := os.WriteFile(transcriptsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(transcriptsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("transcript drifted at line %d:\n got  %s\n want %s", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("golden file has %d lines, this build produced fewer", len(wantLines))
}

// The allocation fence, on the trace the root BenchmarkTableIV_* benchmarks
// diagnose. Before the embedding and simulator kernels were rebuilt one
// Diagnose of it allocated parentDiagnoseAllocs times (a map and ~100
// strings per Embed, two Embeds per self-reflection call, a 607-word RNG
// state per model call).
const (
	fenceTrace           = "io500-07-ior-hard-indep-47008b"
	parentDiagnoseAllocs = 111988
	diagnoseAllocFence   = 25000
)

func TestDiagnoseAllocFence(t *testing.T) {
	var log *darshan.Log
	for _, tr := range tracebench.Suite() {
		if tr.Name == fenceTrace {
			log = tr.Log()
		}
	}
	if log == nil {
		t.Fatalf("trace %s missing from the suite", fenceTrace)
	}
	agent := ioagent.New(llm.NewSim(), ioagent.Options{})
	got := testing.AllocsPerRun(3, func() {
		if _, err := agent.Diagnose(log); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one Diagnose: %.0f allocs (parent %d)", got, parentDiagnoseAllocs)
	if got > diagnoseAllocFence {
		t.Fatalf("one Diagnose allocates %.0f times, fence is %d", got, diagnoseAllocFence)
	}
}
