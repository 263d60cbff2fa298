package tracebench

import (
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/issue"
	"ioagent/internal/llm"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 40 {
		t.Fatalf("suite has %d traces, want 40", len(suite))
	}
	counts := map[string]int{}
	for _, tr := range suite {
		counts[tr.Source]++
		if len(tr.Labels) == 0 {
			t.Errorf("trace %s has no labels", tr.Name)
		}
		if tr.Name == "" || tr.Description == "" {
			t.Errorf("trace %+v missing name/description", tr)
		}
	}
	if counts[SimpleBench] != 10 || counts[IO500] != 21 || counts[RealApps] != 9 {
		t.Errorf("source counts = %v, want 10/21/9", counts)
	}
}

// TestTableIIICounts pins the per-source label counts to the paper's
// Table III exactly.
func TestTableIIICounts(t *testing.T) {
	want := map[issue.Label][3]int{ // SB, IO500, RA
		issue.HighMetadataLoad:  {1, 2, 2},
		issue.MisalignedReads:   {2, 10, 4},
		issue.MisalignedWrites:  {2, 10, 6},
		issue.RandomWrites:      {0, 5, 2},
		issue.RandomReads:       {0, 5, 2},
		issue.SharedFileAccess:  {1, 14, 4},
		issue.SmallReads:        {2, 10, 5},
		issue.SmallWrites:       {2, 10, 6},
		issue.RepetitiveReads:   {1, 0, 0},
		issue.ServerImbalance:   {7, 15, 2},
		issue.RankImbalance:     {1, 0, 1},
		issue.MultiProcessNoMPI: {0, 13, 0},
		issue.NoCollectiveRead:  {6, 8, 4},
		issue.NoCollectiveWrite: {5, 8, 2},
		issue.LowLevelLibRead:   {1, 0, 0},
		issue.LowLevelLibWrite:  {1, 0, 0},
	}
	suite := Suite()
	got := LabelCounts(suite)
	for label, w := range want {
		g := got[label]
		if g[SimpleBench] != w[0] || g[IO500] != w[1] || g[RealApps] != w[2] {
			t.Errorf("%-34s SB/IO500/RA = %d/%d/%d, want %d/%d/%d",
				label, g[SimpleBench], g[IO500], g[RealApps], w[0], w[1], w[2])
		}
	}
	total := 0
	for _, tr := range suite {
		total += len(tr.Labels)
	}
	if total != 182 {
		t.Errorf("total issues = %d, want 182", total)
	}
}

// TestGroundTruthConsistency verifies that each trace's labels are exactly
// what the ideal expert derives from the full trace text: the benchmark is
// solvable, and no trace exhibits unlabeled issues.
func TestGroundTruthConsistency(t *testing.T) {
	for _, tr := range Suite() {
		tr := tr
		t.Run(tr.Name, func(t *testing.T) {
			text, err := darshan.TextString(tr.Log())
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			got := llm.ExpertLabels(text)
			for l := range tr.Labels {
				if !got[l] {
					t.Errorf("labeled issue %q not derivable from trace", l)
				}
			}
			for l := range got {
				if !tr.Labels[l] {
					t.Errorf("trace exhibits unlabeled issue %q", l)
				}
			}
		})
	}
}

func TestTracesValidateAndRoundTrip(t *testing.T) {
	for _, tr := range Suite() {
		log := tr.Log()
		if err := log.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
		if log.Job.NProcs < 1 {
			t.Errorf("%s: bad nprocs", tr.Name)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Suite()
	b := Suite()
	for i := range a {
		ta, _ := darshan.TextString(a[i].Log())
		tb, _ := darshan.TextString(b[i].Log())
		if ta != tb {
			t.Errorf("trace %s not deterministic", a[i].Name)
		}
	}
}

func TestBySource(t *testing.T) {
	suite := Suite()
	if got := len(BySource(suite, IO500)); got != 21 {
		t.Errorf("BySource(IO500) = %d", got)
	}
	if got := len(BySource(suite, "nope")); got != 0 {
		t.Errorf("BySource(nope) = %d", got)
	}
}
