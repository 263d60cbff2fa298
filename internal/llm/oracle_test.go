package llm

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The oracle: ExtractFacts exactly as it was before its anchored regexes
// were guarded by their literal prefixes (every pattern tried on every
// line), kept verbatim so the guards are checked against it instead of
// trusted. FactSets are compared with reflect.DeepEqual.

// sourceRe is the pattern matchSource replaced.
var sourceRe = regexp.MustCompile(`^\[SOURCE ([a-zA-Z0-9_-]+)\]\s*(.*)$`)

func oracleExtractFacts(text string) *FactSet {
	f := &FactSet{
		Counters:    make(map[string]float64),
		Files:       make(map[string]map[string]float64),
		SharedFiles: make(map[string]bool),
		RankTimes:   make(map[int]float64),
		Derived:     make(map[string]float64),
		DerivedStr:  make(map[string]string),
		Pos:         make(map[string]float64),
	}
	lines := strings.Split(text, "\n")
	n := len(lines)
	if n == 0 {
		return f
	}

	var curCandidate *Candidate
	var curSummary *strings.Builder
	var inTruth bool
	var fragment strings.Builder
	var inFragment bool

	flushSummary := func() {
		if curSummary != nil {
			f.Summaries = append(f.Summaries, strings.TrimSpace(curSummary.String()))
			curSummary = nil
		}
	}
	flushCandidate := func() {
		if curCandidate != nil {
			curCandidate.Text = strings.TrimSpace(curCandidate.Text)
			f.Candidates = append(f.Candidates, *curCandidate)
			curCandidate = nil
		}
	}

	for i, raw := range lines {
		line := strings.TrimRight(raw, " \t")
		pos := float64(i) / float64(n)
		trimmed := strings.TrimSpace(line)

		// Section structure first.
		if m := candidateRe.FindStringSubmatch(trimmed); m != nil {
			flushCandidate()
			flushSummary()
			inTruth = false
			curCandidate = &Candidate{Name: m[1]}
			continue
		}
		if m := summaryRe.FindStringSubmatch(trimmed); m != nil {
			flushCandidate()
			flushSummary()
			curSummary = &strings.Builder{}
			continue
		}
		if trimmed == "=== END CANDIDATES ===" || trimmed == "--- END SUMMARIES ---" {
			flushCandidate()
			flushSummary()
			continue
		}
		if curCandidate != nil {
			curCandidate.Text += line + "\n"
			continue
		}
		if curSummary != nil {
			curSummary.WriteString(line + "\n")
			continue
		}

		switch {
		case strings.HasPrefix(trimmed, "GROUND TRUTH ISSUES:"):
			inTruth = true
			continue
		case inTruth && strings.HasPrefix(trimmed, "- "):
			f.Truth = append(f.Truth, strings.TrimPrefix(trimmed, "- "))
			continue
		case inTruth && trimmed != "":
			inTruth = false
		}

		switch {
		case strings.HasPrefix(trimmed, "CRITERION:"):
			f.Criterion = strings.ToLower(strings.TrimSpace(strings.TrimPrefix(trimmed, "CRITERION:")))
		case strings.HasPrefix(trimmed, "QUESTION:"):
			f.Question = strings.TrimSpace(strings.TrimPrefix(trimmed, "QUESTION:"))
		case strings.HasPrefix(trimmed, "FRAGMENT:"):
			inFragment = true
		case strings.HasPrefix(trimmed, "END FRAGMENT"):
			inFragment = false
		case strings.HasPrefix(trimmed, "PRIOR DIAGNOSIS:"):
			// Everything after this marker until a blank QUESTION line is
			// handled by the chat handler using the raw prompt; record it.
		}
		if inFragment && !strings.HasPrefix(trimmed, "FRAGMENT:") {
			fragment.WriteString(line + "\n")
		}

		if m := sourceRe.FindStringSubmatch(trimmed); m != nil {
			f.Sources = append(f.Sources, Source{Key: m[1], Text: m[2], Pos: pos})
			continue
		}

		// Job header lines (darshan-parser format).
		if strings.HasPrefix(trimmed, "# nprocs:") {
			if v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(trimmed, "# nprocs:"))); err == nil {
				f.NProcs = v
			}
			continue
		}
		if strings.HasPrefix(trimmed, "# run time:") {
			if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(trimmed, "# run time:")), 64); err == nil {
				f.RunTime = v
			}
			continue
		}
		if strings.HasPrefix(trimmed, "# exe:") {
			f.Exe = strings.TrimSpace(strings.TrimPrefix(trimmed, "# exe:"))
			continue
		}
		if strings.HasPrefix(trimmed, "# metadata: mpi = 1") {
			f.UsesMPI = true
			continue
		}

		// Raw counter lines.
		if m := counterLineRe.FindStringSubmatch(trimmed); m != nil {
			counter := m[4]
			val, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				continue
			}
			file := m[6]
			rank, _ := strconv.Atoi(m[2])
			f.addCounter(counter, val, file, pos)
			// LUSTRE records always carry rank -1 (striping is per-file,
			// not per-rank); only data modules indicate shared access.
			if rank == -1 && m[1] != "LUSTRE" {
				f.SharedFiles[file] = true
			} else if counter == "POSIX_F_READ_TIME" || counter == "POSIX_F_WRITE_TIME" {
				f.RankTimes[rank] += val
			}
			continue
		}

		// JSON key/value pairs.
		for _, m := range jsonKVRe.FindAllStringSubmatch(line, -1) {
			key, raw := m[1], m[2]
			if strings.HasPrefix(raw, `"`) {
				f.DerivedStr[key] = strings.Trim(raw, `"`)
				continue
			}
			if v, err := strconv.ParseFloat(raw, 64); err == nil {
				if _, seen := f.Derived[key]; !seen {
					f.Derived[key] = v
					f.Pos[key] = pos
				}
			}
		}
	}
	flushCandidate()
	flushSummary()
	f.Fragment = strings.TrimSpace(fragment.String())

	// JSON job-context fields mirror the header facts when present.
	if f.NProcs == 0 {
		if v, ok := f.Derived["nprocs"]; ok {
			f.NProcs = int(v)
		}
	}
	if f.RunTime == 0 {
		if v, ok := f.Derived["runtime_s"]; ok {
			f.RunTime = v
		}
	}
	if v, ok := f.Derived["uses_mpi"]; ok && v > 0 {
		f.UsesMPI = true
	}
	return f
}

// checkFactsAgainstOracle fails t when ExtractFacts and the oracle read
// text differently.
func checkFactsAgainstOracle(t testing.TB, text string) {
	t.Helper()
	if got, want := ExtractFacts(text), oracleExtractFacts(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractFacts differs from the oracle on %q:\n got  %+v\n want %+v", text, got, want)
	}
}

func TestMatchSourceMatchesPattern(t *testing.T) {
	for _, line := range []string{
		"[SOURCE a] body", "[SOURCE a-b_9]body", "[SOURCE a] \t\r\f body \r", "[SOURCE a]\vbody",
		"[SOURCE a]", "[SOURCE a] ", "[SOURCE ] body", "[SOURCE a b] body", "[SOURCE a", "[SOURCE é] body",
		"[SOURCE a] b\xffdy \xc3", "[SOURCE a]] [SOURCE b] x", " [SOURCE a] body", "[SOURCE  a] body", "[source a] body", "",
	} {
		key, body, ok := matchSource(line)
		m := sourceRe.FindStringSubmatch(line)
		if ok != (m != nil) || ok && (key != m[1] || body != m[2]) {
			t.Errorf("matchSource(%q) = %q, %q, %v; pattern gives %q", line, key, body, ok, m)
		}
	}
}
