package llm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ioagent/internal/issue"
)

// diagnosisText is a report claiming the labels given, with the preamble
// tag making the text its own.
func diagnosisText(tag string, labels ...issue.Label) string {
	rep := &Report{Preamble: "Analysis of " + tag + "."}
	for _, l := range labels {
		rep.Findings = append(rep.Findings, Finding{Label: l, Evidence: "measured", Recommendation: issue.Recommendations[l]})
	}
	return rep.Format()
}

// tableSameSlot reports whether a and b share a textTable slot; every
// table maps a text to the same slot.
func tableSameSlot(a, b string) bool {
	return labelTable.slot(a) == labelTable.slot(b)
}

// collidingPair returns two texts, a prefix and a prefix+suffix, that
// share a textTable slot: it varies a counter ahead of a's words.
func collidingPair(a, suffix string) (string, string) {
	for i := 0; ; i++ {
		x := fmt.Sprintf("%d %s", i, a)
		if y := x + suffix; tableSameSlot(x, y) {
			return x, y
		}
	}
}

// checkTableKeeps fails t when a slot of tab keeps a text over the cap,
// or when the entry for text shares the caller's string rather than a copy.
func checkTableKeeps[V any](t *testing.T, tab *textTable[V], text string) {
	t.Helper()
	for i := range tab.slots {
		if e := tab.slots[i].Load(); e != nil && len(e.text) > maxTableText {
			t.Fatalf("slot %d keeps a %d-byte text over the %d-byte cap", i, len(e.text), maxTableText)
		}
	}
	e := tab.slot(text).Load()
	if e == nil || e.text != text {
		t.Fatalf("the table does not hold %q", text)
	}
	if unsafe.StringData(e.text) == unsafe.StringData(text) {
		t.Fatal("a table entry shares the caller's string")
	}
}

// TestClaimedLabelsTable: texts that share a slot each get their own
// labels, an over-cap text is derived and never kept, a kept key is a
// copy, and a caller that mutates its set changes no later answer.
func TestClaimedLabelsTable(t *testing.T) {
	a, b := collidingPair("Analysis of the run. The trace shows Small Write I/O Requests.", " It also shows High Metadata Load.")
	if reflect.DeepEqual(deriveClaimedLabels(a), deriveClaimedLabels(b)) {
		t.Fatalf("%q and %q claim the same labels; the test needs distinct sets", a, b)
	}
	for i, text := range []string{a, b, a, a, b, b, a} {
		if got, want := ClaimedLabels(text), deriveClaimedLabels(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("lookup %d of %q: %v, want %v", i, text, got.Sorted(), want.Sorted())
		}
	}

	long := diagnosisText(strings.Repeat("x", maxTableText), issue.RandomReads)
	if got, want := ClaimedLabels(long), deriveClaimedLabels(long); !reflect.DeepEqual(got, want) {
		t.Fatalf("an over-cap text: %v, want %v", got.Sorted(), want.Sorted())
	}

	text := diagnosisText("keyed", issue.SmallReads, issue.RankImbalance)
	prompt := "=== CANDIDATE Tool-1 ===\n" + text + "=== END CANDIDATES ===\n"
	sub := prompt[len("=== CANDIDATE Tool-1 ===\n") : len("=== CANDIDATE Tool-1 ===\n")+len(text)]
	ClaimedLabels(sub)
	checkTableKeeps(t, &labelTable, sub)

	want := deriveClaimedLabels(text)
	got := ClaimedLabels(text)
	got[issue.ServerImbalance] = true
	delete(got, issue.SmallReads)
	if again := ClaimedLabels(text); !reflect.DeepEqual(again, want) {
		t.Fatalf("after the caller edited its set: %v, want %v", again.Sorted(), want.Sorted())
	}
	if shared := claimedLabels(text); !reflect.DeepEqual(shared, want) {
		t.Fatalf("the table's set changed with the caller's: %v, want %v", shared.Sorted(), want.Sorted())
	}
}

// rankPrompt is the accuracy ranking prompt judge.AgainstNull sends for
// one diagnosis against the null report.
func rankPrompt(truth []issue.Label, diag string) string {
	var b strings.Builder
	b.WriteString("TASK: rank\nCRITERION: accuracy\n\nGROUND TRUTH ISSUES:\n")
	for _, l := range truth {
		fmt.Fprintf(&b, "- %s\n", l)
	}
	b.WriteString("\nFORMAT ORDER: 1, 0\n\n")
	fmt.Fprintf(&b, "=== CANDIDATE Tool-1 ===\n%s\n=== CANDIDATE Tool-2 ===\n%s\n=== END CANDIDATES ===\n", diag, nullReport)
	return b.String()
}

// TestRankConcurrentMatchesReference: goroutines sharing the label table,
// over diagnoses that recur and collide, get the answers one goroutine
// got, and the table's sets stay what a fresh derivation gives. Run under
// -race in CI.
func TestRankConcurrentMatchesReference(t *testing.T) {
	labels := []issue.Label{issue.SmallWrites, issue.HighMetadataLoad, issue.RandomReads, issue.RankImbalance, issue.MisalignedWrites}
	var texts []string
	for i := 0; i < 8; i++ {
		// Trimmed, as ExtractFacts hands a candidate to the scorers, so
		// the pairs collide on the ranking path too.
		text := strings.TrimSpace(diagnosisText(fmt.Sprintf("app%d", i), labels[i%len(labels)], labels[(i+2)%len(labels)]))
		a, b := collidingPair(text, " Also Random Read Operations.")
		texts = append(texts, a, b)
	}
	type call struct{ prompt, want string }
	var calls []call
	ref := NewSim()
	for i, text := range texts {
		for _, criterion := range []string{"accuracy", "utility", "interpretability"} {
			prompt := strings.Replace(rankPrompt(labels[i%2:i%2+2], text), "CRITERION: accuracy", "CRITERION: "+criterion, 1)
			if got := ExtractFacts(prompt).Candidates[0].Text; got != text {
				t.Fatalf("the prompt's first candidate reads %q, want %q", got, text)
			}
			resp, err := ref.Complete(Prompt(GPT4oMini, prompt))
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call{prompt, resp.Content})
		}
	}
	s := NewSim()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range calls {
				c := calls[(k*(2*g+1)+g)%len(calls)]
				resp, err := s.Complete(Prompt(GPT4oMini, c.prompt))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Content != c.want {
					t.Errorf("goroutine %d: %q, want %q", g, resp.Content, c.want)
					return
				}
				text := texts[k%len(texts)]
				if got, want := ClaimedLabels(text), deriveClaimedLabels(text); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: labels of %q = %v, want %v", g, text, got.Sorted(), want.Sorted())
					return
				}
			}
		}(g)
	}
	// Overwrite slots while the rankings run: more texts than slots.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tableSlots+tableSlots/2; i++ {
				text := fmt.Sprintf("churn g%d i%d: Small Read I/O Requests", g, i)
				if got, want := claimedLabels(text), deriveClaimedLabels(text); !reflect.DeepEqual(got, want) {
					t.Errorf("churn text %q: %v, want %v", text, got.Sorted(), want.Sorted())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzClaimedLabels: the table answers what a fresh derivation answers,
// for any text, asked twice and across a slot collision.
func FuzzClaimedLabels(f *testing.F) {
	f.Add("")
	f.Add(nullReport)
	f.Add(diagnosisText("seed", issue.SmallWrites, issue.ServerImbalance))
	f.Add("First, the trace suggests random read operations: offsets jump.\n\n")
	f.Add("ISSUE: Unknown Thing\nISSUE: small writes\n")
	f.Fuzz(func(t *testing.T, text string) {
		want := deriveClaimedLabels(text)
		check := func(step string) {
			t.Helper()
			if got := ClaimedLabels(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ClaimedLabels(%q) = %v, want %v", step, text, got.Sorted(), want.Sorted())
			}
			if got := claimedLabels(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: claimedLabels(%q) = %v, want %v", step, text, got.Sorted(), want.Sorted())
			}
		}
		check("first ask")
		check("second ask")
		if len(text) > maxTableText {
			return
		}
		// Displace text with a text of its slot, then ask again.
		for i := 0; ; i++ {
			other := fmt.Sprintf("%d Random Write Operations %s", i, text)
			if tableSameSlot(other, text) {
				if got, want := claimedLabels(other), deriveClaimedLabels(other); !reflect.DeepEqual(got, want) {
					t.Fatalf("colliding text %q: %v, want %v", other, got.Sorted(), want.Sorted())
				}
				break
			}
		}
		check("after a collision")
	})
}

// nullReport is judge.NullReport, which this package cannot import.
const nullReport = "No significant I/O performance issues detected."

// TestExtractFactsCandidateAllocFence: reading a ranking candidate costs
// a bounded number of allocations whatever its length; appending each
// line to the body string cost one copy of the body per line.
func TestExtractFactsCandidateAllocFence(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	prompt := func(lines int) string {
		var b strings.Builder
		b.WriteString("TASK: rank\nCRITERION: accuracy\nFORMAT ORDER: 1, 0\n\n=== CANDIDATE Tool-1 ===\n")
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "Evidence line %d of the diagnosis, with enough words to be a real line.\n", i)
		}
		b.WriteString("=== CANDIDATE Tool-2 ===\nNo significant I/O performance issues detected.\n=== END CANDIDATES ===\n")
		return b.String()
	}
	short, long := prompt(10), prompt(400)
	checkFactsAgainstOracle(t, long)
	a10 := testing.AllocsPerRun(20, func() { ExtractFacts(short) })
	a400 := testing.AllocsPerRun(20, func() { ExtractFacts(long) })
	t.Logf("ExtractFacts allocations: %.0f with a 10-line candidate, %.0f with a 400-line one", a10, a400)
	if a400 > a10+2 {
		t.Errorf("a 400-line candidate allocates %.0f times, a 10-line one %.0f: the body is copied per line", a400, a10)
	}
}

// TestExtractFactsCandidateBodies: candidate bodies are read as the
// oracle reads them, whatever their whitespace and boundaries.
func TestExtractFactsCandidateBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pieces := []string{"body", "body  ", "body\t", "body\r", "", " ", "\t", "  indented", "=== CANDIDATE c ===", "=== END CANDIDATES ===", "--- SUMMARY 1 ---", "--- END SUMMARIES ---"}
	for i := 0; i < 300; i++ {
		var lines []string
		for n := rng.Intn(12); n > 0; n-- {
			lines = append(lines, pieces[rng.Intn(len(pieces))])
		}
		checkFactsAgainstOracle(t, "TASK: rank\n=== CANDIDATE a ===\n"+strings.Join(lines, "\n"))
	}
}
