package llm

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// A FactSet is SimLLM's working memory: everything it managed to extract
// from the (possibly truncated) prompt. Facts carry the relative position
// of their first occurrence so positional attention can be applied.
type FactSet struct {
	// Job header facts.
	NProcs  int
	RunTime float64
	UsesMPI bool
	Exe     string

	// Counters sums raw Darshan counters across all records in context.
	Counters map[string]float64
	// Files holds per-file counter sums (file path -> counter -> value).
	Files map[string]map[string]float64
	// SharedFiles marks files that appear with rank == -1 (shared records).
	SharedFiles map[string]bool
	// RankTimes accumulates per-rank I/O time from non-shared records
	// (rank >= 0), enabling imbalance detection on file-per-process jobs.
	RankTimes map[int]float64
	// Derived holds metrics from JSON summary fragments ("key": value).
	Derived map[string]float64
	// DerivedStr holds string-valued JSON fields (module, category, ...).
	DerivedStr map[string]string
	// Pos maps every counter/derived key to its first-occurrence relative
	// position in [0,1] within the prompt.
	Pos map[string]float64

	// Sources are retrieved references present in the prompt.
	Sources []Source
	// Candidates are ranking candidates ("=== CANDIDATE name ===").
	Candidates []Candidate
	// Truth is the ground-truth issue list from a ranking prompt.
	Truth []string
	// Criterion is the ranking criterion requested.
	Criterion string
	// Question is the user question of a chat prompt.
	Question string
	// PriorReport is assistant context (a previous diagnosis) for chat.
	PriorReport string
	// Fragment is the summary-fragment body for describe/filter tasks.
	Fragment string
	// Summaries are the diagnosis sections of a merge prompt.
	Summaries []string
}

// Source is one retrieved knowledge chunk visible in the prompt.
type Source struct {
	Key  string
	Text string
	Pos  float64
}

// Candidate is one tool output in a ranking prompt.
type Candidate struct {
	Name string
	Text string
}

var (
	counterLineRe = regexp.MustCompile(`^(POSIX|MPI-IO|STDIO|LUSTRE)\s+(-?\d+)\s+(\d+)\s+([A-Z][A-Z0-9_]+)\s+(-?[0-9.]+)\s+(\S+)\s+(\S+)\s+(\S+)$`)
	jsonKVRe      = regexp.MustCompile(`"([a-zA-Z0-9_]+)"\s*:\s*(-?[0-9][0-9.eE+-]*|"[^"]*")`)
	candidateRe   = regexp.MustCompile(`^=== CANDIDATE (.+) ===$`)
	summaryRe     = regexp.MustCompile(`^--- SUMMARY (\d+) ---$`)
)

// matchPrefixed is re.FindStringSubmatch(line) for a pattern anchored at
// the literal prefix: a line without it cannot match.
func matchPrefixed(re *regexp.Regexp, prefix, line string) []string {
	if !strings.HasPrefix(line, prefix) {
		return nil
	}
	return re.FindStringSubmatch(line)
}

// matchSource reads a "[SOURCE key] body" line, by hand: as a pattern,
// `^\[SOURCE ([a-zA-Z0-9_-]+)\]\s*(.*)$`, its `(.*)$` tail made the
// backtracker walk every retrieved chunk, a few KB per self-reflection
// prompt, to learn that a line ends where it ends.
func matchSource(line string) (key, body string, ok bool) {
	rest, ok := strings.CutPrefix(line, "[SOURCE ")
	if !ok {
		return "", "", false
	}
	n := 0
	for n < len(rest) && isSourceKeyByte(rest[n]) {
		n++
	}
	if n == 0 || n == len(rest) || rest[n] != ']' {
		return "", "", false
	}
	return rest[:n], strings.TrimLeft(rest[n+1:], " \t\n\f\r"), true // \s is [\t\n\f\r ]
}

func isSourceKeyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

// matchCounterLine is counterLineRe.FindStringSubmatch(line), skipped
// unless the line starts like one of the four module names.
func matchCounterLine(line string) []string {
	if line == "" || strings.IndexByte("PMSL", line[0]) < 0 {
		return nil
	}
	return counterLineRe.FindStringSubmatch(line)
}

// ExtractFacts parses the prompt text into a FactSet.
func ExtractFacts(text string) *FactSet {
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

		// Section structure first. Each anchored pattern is tried only on
		// lines that start with its literal prefix, so the other lines
		// never enter the regexp matcher.
		if m := matchPrefixed(candidateRe, "=== CANDIDATE ", trimmed); m != nil {
			flushCandidate()
			flushSummary()
			inTruth = false
			curCandidate = &Candidate{Name: m[1]}
			continue
		}
		if m := matchPrefixed(summaryRe, "--- SUMMARY ", trimmed); m != nil {
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
			curSummary.WriteString(line)
			curSummary.WriteByte('\n')
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
			fragment.WriteString(line)
			fragment.WriteByte('\n')
		}

		if key, body, ok := matchSource(trimmed); ok {
			f.Sources = append(f.Sources, Source{Key: key, Text: body, Pos: pos})
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

		// Raw counter lines: POSIX, MPI-IO, STDIO or LUSTRE leads.
		if m := matchCounterLine(trimmed); m != nil {
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

		// JSON key/value pairs; a key needs a quote, so a line without one
		// has none.
		if strings.IndexByte(line, '"') < 0 {
			continue
		}
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

func (f *FactSet) addCounter(name string, val float64, file string, pos float64) {
	f.Counters[name] += val
	m, ok := f.Files[file]
	if !ok {
		m = make(map[string]float64)
		f.Files[file] = m
	}
	m[name] += val
	if _, seen := f.Pos[name]; !seen {
		f.Pos[name] = pos
	}
}

// sortedFiles returns the file keys in sorted order (stable iteration for
// float accumulation and tie-breaking).
func (f *FactSet) sortedFiles() []string {
	names := make([]string, 0, len(f.Files))
	for n := range f.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// C returns the summed raw counter value (0 when absent).
func (f *FactSet) C(name string) float64 { return f.Counters[name] }

// Has reports whether a counter or derived key is present.
func (f *FactSet) Has(key string) bool {
	if _, ok := f.Counters[key]; ok {
		return true
	}
	_, ok := f.Derived[key]
	return ok
}

// D returns a derived metric and whether it was present.
func (f *FactSet) D(key string) (float64, bool) {
	v, ok := f.Derived[key]
	return v, ok
}
