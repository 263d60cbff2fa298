package issue

import (
	"strings"
	"testing"
)

func TestAllHaveDescriptionsAndRecommendations(t *testing.T) {
	if len(All) != 16 {
		t.Fatalf("label set has %d entries, want 16 (Table II/III)", len(All))
	}
	for _, l := range All {
		if Descriptions[l] == "" {
			t.Errorf("label %q has no description", l)
		}
		if Recommendations[l] == "" {
			t.Errorf("label %q has no recommendation", l)
		}
		if len(Topics[l]) < 2 {
			t.Errorf("label %q has too few topics", l)
		}
	}
}

func TestParseCanonical(t *testing.T) {
	for _, l := range All {
		got, ok := Parse(string(l))
		if !ok || got != l {
			t.Errorf("Parse(%q) = %q, %v", l, got, ok)
		}
	}
}

func TestParseVariants(t *testing.T) {
	cases := map[string]Label{
		"misaligned read requests":       MisalignedReads,
		"Misaligned Write requests":      MisalignedWrites,
		"small write i/o requests":       SmallWrites,
		"SMALL READ I/O REQUESTS":        SmallReads,
		"Multi-Process W/O MPI":          MultiProcessNoMPI,
		"no collective i/o on write":     NoCollectiveWrite,
		"Random Access Patterns on Read": RandomReads,
	}
	for in, want := range cases {
		got, ok := Parse(in)
		if !ok || got != want {
			t.Errorf("Parse(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
	if _, ok := Parse("Totally Made Up Issue"); ok {
		t.Error("Parse should reject unknown issues")
	}
}

func TestSetSorted(t *testing.T) {
	s := NewSet(SmallWrites, HighMetadataLoad, ServerImbalance)
	got := s.Sorted()
	want := []Label{HighMetadataLoad, SmallWrites, ServerImbalance}
	if len(got) != len(want) {
		t.Fatalf("Sorted() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sorted()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestF1(t *testing.T) {
	truth := NewSet(SmallWrites, MisalignedWrites)
	pred := NewSet(SmallWrites, RandomReads)
	p, r, f1 := F1(truth, pred)
	if p != 0.5 || r != 0.5 || f1 != 0.5 {
		t.Errorf("F1 = (%g,%g,%g), want (0.5,0.5,0.5)", p, r, f1)
	}
	if _, _, f1 := F1(NewSet(), NewSet()); f1 != 1 {
		t.Errorf("empty/empty F1 = %g, want 1", f1)
	}
	if _, _, f1 := F1(truth, NewSet()); f1 != 0 {
		t.Errorf("empty prediction F1 = %g, want 0", f1)
	}
}

// referenceNormalize is normalize as it was before the replacer was
// hoisted: the precomputed tables must agree with it on every spelling.
func referenceNormalize(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.NewReplacer("i/o", "io", "-", " ", "_", " ", "/", " ").Replace(s)
	return strings.Join(strings.Fields(s), " ")
}

// TestParseTable: Parse and FindMentions answer from tables built once.
// Every label, every alias and the paper's "[Read|Write]" phrasings must
// resolve exactly as the per-call scan over All did.
func TestParseTable(t *testing.T) {
	want := map[string]Label{}
	for alias, l := range aliases {
		want[alias] = l
	}
	for _, l := range All {
		want[string(l)] = l
	}
	for _, dir := range []string{"Read", "Write"} {
		for phrase, labels := range map[string][2]Label{
			"Misaligned %s requests":             {MisalignedReads, MisalignedWrites},
			"Small %s I/O Requests":              {SmallReads, SmallWrites},
			"Random Access Patterns on %s":       {RandomReads, RandomWrites},
			"No Collective I/O on %s":            {NoCollectiveRead, NoCollectiveWrite},
			"Low-Level Library on %s operations": {LowLevelLibRead, LowLevelLibWrite},
		} {
			l := labels[0]
			if dir == "Write" {
				l = labels[1]
			}
			want[strings.Replace(phrase, "%s", dir, 1)] = l
		}
	}
	seen := map[string]Label{}
	for _, l := range All {
		n := referenceNormalize(string(l))
		if prev, dup := seen[n]; dup {
			t.Fatalf("labels %q and %q normalize to the same text", prev, l)
		}
		seen[n] = l
	}
	for in, l := range want {
		for _, spelling := range []string{in, strings.ToUpper(in), "  " + strings.ReplaceAll(in, " ", "_") + "\n", strings.ReplaceAll(in, " ", "  ")} {
			if got := normalize(spelling); got != referenceNormalize(spelling) {
				t.Errorf("normalize(%q) = %q, want %q", spelling, got, referenceNormalize(spelling))
			}
			if got, ok := Parse(spelling); !ok || got != l {
				t.Errorf("Parse(%q) = %q, %v; want %q", spelling, got, ok, l)
			}
		}
	}
	for _, l := range All {
		text := "The trace shows " + strings.ToLower(string(l)) + " -- and nothing else."
		got := FindMentions(text)
		// A label may contain another only as a whole normalized phrase;
		// the mention of l itself must always be found.
		if !got[l] {
			t.Errorf("FindMentions(%q) misses %q", text, l)
		}
		for other := range got {
			if !strings.Contains(referenceNormalize(text), referenceNormalize(string(other))) {
				t.Errorf("FindMentions(%q) reports %q", text, other)
			}
		}
	}
	if got := FindMentions("nothing to see"); len(got) != 0 {
		t.Errorf("FindMentions on clean text = %v", got)
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Parse("Small Write I/O Requests"); !ok {
			b.Fatal("no match")
		}
	}
}
