package ioagent

import (
	"strings"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/iosim"
	"ioagent/internal/issue"
	"ioagent/internal/llm"
)

// problemLog builds a trace with several labeled issues: small shared-file
// writes without collectives on default (1x1MiB) striping.
func problemLog() *darshan.Log {
	s := iosim.New(iosim.Config{Seed: 42, NProcs: 8, UsesMPI: true, Exe: "/bin/app.x"})
	lay := &iosim.Layout{StripeSize: 1 << 20, StripeWidth: 1}
	f := s.OpenShared("/scratch/out.dat", iosim.MPIIndep, false, lay)
	for rank := 0; rank < 8; rank++ {
		base := int64(rank) * (8 << 20)
		for i := int64(0); i < 256; i++ {
			f.WriteAt(rank, base+i*32768, 32768) // 32 KiB writes
		}
	}
	cfg := s.Open("/scratch/run.cfg", 0, iosim.STDIO, nil) // rank 0 reads a config file
	cfg.ReadAt(0, 0, 2048)
	cfg.Close(0)
	return s.Finalize()
}

func TestTableICoverage(t *testing.T) {
	// The Table I matrix exactly: modules x summary categories.
	want := map[darshan.ModuleID][]string{
		darshan.ModulePOSIX:  {CatIOSize, CatRequestCount, CatFileMetadata, CatRank, CatAlignment, CatOrder},
		darshan.ModuleMPIIO:  {CatIOSize, CatRequestCount, CatFileMetadata, CatRank, CatAlignment},
		darshan.ModuleSTDIO:  {CatIOSize, CatRequestCount, CatFileMetadata},
		darshan.ModuleLustre: {CatMount, CatStripeSetting, CatServerUsage},
	}
	for m, cats := range want {
		got := CategoryCoverage[m]
		if len(got) != len(cats) {
			t.Fatalf("module %s covers %v, want %v", m, got, cats)
		}
		for i := range cats {
			if got[i] != cats[i] {
				t.Errorf("module %s category %d = %s, want %s", m, i, got[i], cats[i])
			}
		}
	}
	// LUSTRE must not extract I/O sizes; STDIO must not extract stripes.
	for _, c := range CategoryCoverage[darshan.ModuleLustre] {
		if c == CatIOSize {
			t.Error("LUSTRE must not extract io_size")
		}
	}
}

func TestSummarizeFragments(t *testing.T) {
	log := problemLog()
	frags := Summarize(log)
	// All four modules present: 6 + 5 + 3 + 3 = 17 fragments.
	if len(frags) != 17 {
		t.Fatalf("got %d fragments, want 17", len(frags))
	}
	byID := map[string]*Fragment{}
	for _, f := range frags {
		byID[f.ID()] = f
	}

	ios := byID["POSIX/io_size"]
	if ios == nil {
		t.Fatal("missing POSIX/io_size fragment")
	}
	if frac := ios.Data[llm.KeySmallWriteFrac]; frac < 0.9 {
		t.Errorf("small write fraction = %g, want ~1.0", frac)
	}
	if ios.Data[llm.KeyNProcs] != 8 {
		t.Error("job context (nprocs) missing from fragment")
	}
	if ios.Data[llm.KeySharedFiles] < 1 {
		t.Error("shared-file context missing from fragment")
	}

	stripe := byID["LUSTRE/stripe_setting"]
	if stripe == nil {
		t.Fatal("missing LUSTRE/stripe_setting fragment")
	}
	if stripe.Data[llm.KeyStripeWidth] != 1 || stripe.Data[llm.KeyStripeSize] != 1<<20 {
		t.Errorf("stripe fragment = %v", stripe.Data)
	}
	if stripe.Data[llm.KeyWideFiles] < 1 {
		t.Error("large file on single OST not counted")
	}

	req := byID["MPI-IO/request_count"]
	if req == nil {
		t.Fatal("missing MPI-IO/request_count fragment")
	}
	if req.Data[llm.KeyIndepWrites] == 0 || req.Data[llm.KeyCollWrites] != 0 {
		t.Errorf("collective counts wrong: %v", req.Data)
	}
}

func TestFragmentJSONDeterministic(t *testing.T) {
	log := problemLog()
	a := Summarize(log)[0].JSON()
	b := Summarize(log)[0].JSON()
	if a != b {
		t.Error("fragment JSON must be deterministic")
	}
	if !strings.HasPrefix(a, `{"module": "POSIX", "category": "io_size"`) {
		t.Errorf("JSON shape unexpected: %s", a[:60])
	}
}

func TestModuleCSV(t *testing.T) {
	log := problemLog()
	csv := ModuleCSV(log, darshan.ModulePOSIX)
	if !strings.HasPrefix(csv, "file,rank,counter,value\n") {
		t.Error("CSV header missing")
	}
	if !strings.Contains(csv, "POSIX_WRITES") {
		t.Error("CSV missing counters")
	}
	var tables int
	for _, m := range log.ModuleList() {
		if ModuleCSV(log, m) != "" {
			tables++
		}
	}
	if tables != 4 {
		t.Errorf("%d modules have a CSV table, want 4", tables)
	}
}

func TestDiagnoseEndToEnd(t *testing.T) {
	agent := New(llm.NewSim(), Options{})
	res, err := agent.Diagnose(problemLog())
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	labels := res.Report.Labels()
	for _, want := range []issue.Label{issue.SmallWrites, issue.SharedFileAccess, issue.NoCollectiveWrite, issue.ServerImbalance} {
		if !labels[want] {
			t.Errorf("diagnosis missing %q; got: %s", want, res.Report.Summary())
		}
	}
	if len(res.Report.AllRefs()) == 0 {
		t.Error("diagnosis carries no references despite RAG")
	}
	// The RAG path must actually retrieve and filter.
	for _, fr := range res.Fragments {
		if fr.Retrieved != 15 {
			t.Errorf("fragment %s retrieved %d sources, want 15", fr.Fragment.ID(), fr.Retrieved)
		}
		if fr.Kept > fr.Retrieved {
			t.Errorf("fragment %s kept more than retrieved", fr.Fragment.ID())
		}
	}
	usage, cost, calls := agent.Stats()
	if usage.Total() == 0 || calls == 0 {
		t.Error("usage accounting empty")
	}
	if cost <= 0 {
		t.Error("gpt-4o pipeline should have nonzero cost")
	}
}

func TestSelfReflectionFiltersSources(t *testing.T) {
	agent := New(llm.NewSim(), Options{})
	res, err := agent.Diagnose(problemLog())
	if err != nil {
		t.Fatal(err)
	}
	// Across all fragments, reflection must drop a substantial share of
	// the top-15 (the paper reports it rules out nearly half).
	var retrieved, kept int
	for _, fr := range res.Fragments {
		retrieved += fr.Retrieved
		kept += fr.Kept
	}
	if retrieved == 0 {
		t.Fatal("nothing retrieved")
	}
	ratio := float64(kept) / float64(retrieved)
	if ratio > 0.8 {
		t.Errorf("self-reflection kept %.0f%% of sources; expected substantial filtering", ratio*100)
	}
	if ratio < 0.05 {
		t.Errorf("self-reflection kept only %.0f%%; filter too aggressive", ratio*100)
	}
}

func TestDiagnoseWithLlamaStillWorks(t *testing.T) {
	agent := New(llm.NewSim(), Options{Model: llm.Llama31, CheapModel: llm.Llama3})
	res, err := agent.Diagnose(problemLog())
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Report.Labels()
	if !labels[issue.SmallWrites] {
		t.Errorf("llama agent should still find the dominant small-write issue; got %s", res.Report.Summary())
	}
	_, cost, _ := agent.Stats()
	if cost != 0 {
		t.Errorf("self-hosted llama pipeline should cost $0, got %g", cost)
	}
}

func TestTreeMergeBeatsOneShot(t *testing.T) {
	// Build 8 single-finding summaries and compare retention.
	labels := []issue.Label{
		issue.SmallWrites, issue.SmallReads, issue.RandomWrites, issue.RandomReads,
		issue.HighMetadataLoad, issue.MisalignedWrites, issue.ServerImbalance, issue.SharedFileAccess,
	}
	var summaries []string
	for _, l := range labels {
		r := &llm.Report{Findings: []llm.Finding{{
			Label: l, Evidence: "evidence for " + string(l),
			Recommendation: issue.Recommendations[l], Refs: []string{"carns2011darshan"},
		}}}
		summaries = append(summaries, r.Format())
	}

	weak := New(llm.NewSim(), Options{Model: llm.Llama3, DisableRAG: true})
	tree, err := weak.TreeMerge(summaries)
	if err != nil {
		t.Fatal(err)
	}
	oneshot, err := weak.OneShotMerge(summaries)
	if err != nil {
		t.Fatal(err)
	}
	nTree := len(llm.ParseReport(tree).Findings)
	nOne := len(llm.ParseReport(oneshot).Findings)
	if nTree <= nOne {
		t.Errorf("tree merge retained %d findings vs one-shot %d; tree must retain more", nTree, nOne)
	}
	if nTree < len(labels)-1 {
		t.Errorf("tree merge should be near-lossless, retained %d/%d", nTree, len(labels))
	}
}

func TestChatSession(t *testing.T) {
	agent := New(llm.NewSim(), Options{})
	res, err := agent.Diagnose(problemLog())
	if err != nil {
		t.Fatal(err)
	}
	sess := agent.NewSession(res)
	answer, err := sess.Ask("How do I fix the stripe settings / server imbalance issue?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(answer, "lfs setstripe") {
		t.Errorf("answer should include a concrete striping command:\n%s", answer)
	}
	if len(sess.history) != 2 {
		t.Errorf("history = %d messages, want 2", len(sess.history))
	}
}

func TestDiagnoseEmptyLogFails(t *testing.T) {
	agent := New(llm.NewSim(), Options{})
	if _, err := agent.Diagnose(darshan.NewLog()); err == nil {
		t.Error("empty log should fail")
	}
}

func TestDisableRAGRemovesReferences(t *testing.T) {
	agent := New(llm.NewSim(), Options{DisableRAG: true})
	res, err := agent.Diagnose(problemLog())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.AllRefs()) != 0 {
		t.Errorf("RAG disabled but report cites %v", res.Report.AllRefs())
	}
}

func TestStatsByModelSplitsUsage(t *testing.T) {
	agent := New(llm.NewSim(), Options{})
	if _, err := agent.Diagnose(problemLog()); err != nil {
		t.Fatal(err)
	}
	byModel := agent.StatsByModel()
	// The pipeline uses two models: the diagnosis model and the cheap
	// self-reflection filter. Both must accumulate separately.
	for _, model := range []string{llm.GPT4o, llm.GPT4oMini} {
		ms, ok := byModel[model]
		if !ok {
			t.Fatalf("StatsByModel missing %s (have %v)", model, byModel)
		}
		if ms.Calls == 0 || ms.Usage.Total() == 0 {
			t.Errorf("%s stats = %+v, want nonzero calls and tokens", model, ms)
		}
	}
	// Per-model rows must sum to the aggregate Stats.
	usage, cost, calls := agent.Stats()
	var sumTokens, sumCalls int
	var sumCost float64
	for _, ms := range byModel {
		sumTokens += ms.Usage.Total()
		sumCalls += ms.Calls
		sumCost += ms.CostUSD
	}
	if sumTokens != usage.Total() || sumCalls != calls {
		t.Errorf("per-model sums (%d tokens, %d calls) != aggregate (%d, %d)",
			sumTokens, sumCalls, usage.Total(), calls)
	}
	if diff := sumCost - cost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-model cost sum %g != aggregate %g", sumCost, cost)
	}
	// The returned map is a copy: mutating it must not corrupt the agent.
	byModel[llm.GPT4o] = ModelStats{}
	if again := agent.StatsByModel(); again[llm.GPT4o].Calls == 0 {
		t.Error("StatsByModel must return a defensive copy")
	}
}
