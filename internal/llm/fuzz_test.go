package llm

import "testing"

// FuzzParseReport: report parsing must never panic, and formatting the
// parse must be parseable again (idempotence after one normalization).
func FuzzParseReport(f *testing.F) {
	f.Add("I/O Performance Diagnosis\nISSUE: Small Write I/O Requests\nEvidence: x\n")
	f.Add("ISSUE: Unknown Thing\nReferences: a, b\nNotes:\n- note\n")
	f.Add("")
	f.Add("Evidence: orphan\nRecommendation: orphan\n")

	f.Fuzz(func(t *testing.T, text string) {
		rep := ParseReport(text)
		once := rep.Format()
		rep2 := ParseReport(once)
		twice := rep2.Format()
		if once != twice {
			t.Fatalf("Format not stable after one normalization:\n%q\nvs\n%q", once, twice)
		}
	})
}

// FuzzExtractFacts: fact extraction must never panic on arbitrary prompts,
// and must read exactly what the unguarded oracle reads.
func FuzzExtractFacts(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("TASK: rank\n=== CANDIDATE x ===\nbody\n")
	f.Add(`{"a": 1, "b": "s"}`)
	f.Add("# nprocs: notanumber\nPOSIX\tx\ty\tz\n")
	// Lines that pass a prefix guard and then fail the pattern, and the
	// pattern's own edge cases.
	f.Add("=== CANDIDATE  ===\n=== CANDIDATE x\n  === CANDIDATE y ===  \nbody\n=== END CANDIDATES ===\n")
	f.Add("TASK: merge\n--- SUMMARY x ---\n--- SUMMARY 12 ---\nISSUE: Small Write I/O Requests\n--- END SUMMARIES ---\n")
	f.Add("FRAGMENT:\ntext\nEND FRAGMENT\n[SOURCE a-b_1]   body \"k\": 2\n[SOURCE ] none\n[SOURCE x y] none\n")
	f.Add("POSIX\t-1\t7\tPOSIX_WRITES\t16\t/f\t/\tlustre\nMPI-IO 0 7 MPIIO_INDEP_WRITES 4 /f / lustre\nPOSIX is a word\nSTDIO\nLUSTRE -1 7 LUSTRE_OSTS 8 /f / lustre\n")

	f.Fuzz(func(t *testing.T, text string) {
		checkFactsAgainstOracle(t, text)
		facts := ExtractFacts(text)
		v := NewView(facts)
		runRules(v) // must not panic either
	})
}

// FuzzComplete: the full simulated model must never fail on arbitrary
// prompts for a known model.
func FuzzComplete(f *testing.F) {
	f.Add("diagnose this")
	f.Add("TASK: merge\n--- SUMMARY 1 ---\nISSUE: Small Write I/O Requests\n")
	f.Add("TASK: rank\nCRITERION: utility\n")
	f.Add("TASK: chat\nQUESTION: why?\n")

	sim := NewSim()
	f.Fuzz(func(t *testing.T, prompt string) {
		resp, err := sim.Complete(Prompt(GPT4o, prompt))
		if err != nil {
			t.Fatalf("Complete errored on fuzz input: %v", err)
		}
		if resp.Usage.PromptTokens < 0 || resp.Usage.CompletionTokens < 0 {
			t.Fatal("negative token usage")
		}
	})
}
