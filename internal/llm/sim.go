package llm

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"ioagent/internal/embed"
	"ioagent/internal/issue"
)

// SimLLM is the deterministic simulated language model. See the package
// documentation for the behavioral model. The zero value is not usable;
// construct with NewSim.
type SimLLM struct {
	// ExtraSeed perturbs all stochastic behavior; the default of 0 gives
	// the canonical reproduction runs.
	ExtraSeed int64
}

// NewSim returns a simulated model client serving every catalog model.
func NewSim() *SimLLM { return &SimLLM{} }

var _ Client = (*SimLLM)(nil)

// Complete implements Client.
func (s *SimLLM) Complete(req Request) (Response, error) {
	spec, ok := LookupModel(req.Model)
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownModel, req.Model)
	}
	prompt := JoinPrompt(req.Messages)
	promptTokens := CountTokens(prompt)
	windowed, truncated := truncateMiddle(prompt, promptTokens, spec.ContextWindow)

	rng := rand.New(&lazySource{sim: s, model: spec.Name, prompt: prompt})
	facts := ExtractFacts(windowed)
	s.applyAttention(facts, spec, promptTokens, rng)

	var content string
	task, explicit := detectTask(windowed)
	switch task {
	case "describe":
		content = s.describe(facts, spec)
	case "filter":
		content = s.filter(facts, spec, rng)
	case "merge":
		content = s.merge(facts, spec, rng)
	case "rank":
		content = s.rank(windowed, facts, spec, rng)
	case "chat":
		content = s.chat(windowed, facts, spec)
	default:
		// Structured diagnosis for pipeline prompts ("TASK: diagnose");
		// free-form prose for plain queries (ION, direct model use).
		content = s.diagnose(facts, spec, truncated, !explicit, rng)
	}

	if req.MaxTokens > 0 {
		if t, cut := truncateTail(content, req.MaxTokens); cut {
			content = t
		}
	}
	usage := Usage{PromptTokens: promptTokens, CompletionTokens: CountTokens(content)}
	return Response{
		Model:     spec.Name,
		Content:   content,
		Usage:     usage,
		Truncated: truncated,
		CostUSD:   spec.cost(usage),
	}, nil
}

func (s *SimLLM) seed(model, prompt string) int64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(prompt))
	return int64(h.Sum64()) ^ s.ExtraSeed
}

// lazySource is the per-call random source, seeded from (model, prompt) on
// the first draw. Most calls never draw (describe has no stochastic step,
// filter draws only near its threshold, attention spares short prompts),
// and seeding math/rand's generator costs more than such a call's own
// work. The draws are those of rand.NewSource(seed), bit for bit.
type lazySource struct {
	sim           *SimLLM
	model, prompt string
	src           rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.sim.seed(l.model, l.prompt)).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.source().Seed(seed) }

var taskRe = regexp.MustCompile(`(?m)^TASK:\s*([a-z]+)\s*$`)

func detectTask(prompt string) (task string, explicit bool) {
	if m := taskRe.FindStringSubmatch(prompt); m != nil {
		return m[1], true
	}
	return "diagnose", false
}

// applyAttention drops facts according to the lost-in-the-middle attention
// curve. Short prompts (relative to the window) suffer no loss — this is
// exactly why IOAgent's small per-fragment prompts are reliable.
func (s *SimLLM) applyAttention(f *FactSet, spec ModelSpec, promptTokens int, rng *rand.Rand) {
	fill := float64(promptTokens) / float64(spec.ContextWindow)
	strength := (fill - 0.20) / 0.80
	if strength < 0 {
		strength = 0
	}
	if strength > 1 {
		strength = 1
	}
	decay := spec.AttentionDecay * strength
	if decay == 0 {
		return
	}
	drop := func(key string) bool {
		pos := f.Pos[key]
		bell := math.Sin(math.Pi * pos)
		bell *= bell // 0 at the edges, 1 in the middle
		return rng.Float64() < decay*bell
	}
	// Iterate keys in sorted order: each key must consume the same rng
	// draw on every run, or responses would vary with map layout.
	for _, key := range sortedFactKeys(f.Counters) {
		if drop(key) {
			delete(f.Counters, key)
			for _, fc := range f.Files {
				delete(fc, key)
			}
		}
	}
	for _, key := range sortedFactKeys(f.Derived) {
		if drop(key) {
			delete(f.Derived, key)
		}
	}
}

func sortedFactKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// categoryLabels scopes fragment diagnosis: a summary fragment about one
// Table I category yields findings of that category's issue family only
// (the model answers the question it was asked). Labels map to the
// fragments whose data actually evidences them.
var categoryLabels = map[string][]issue.Label{
	"io_size":        {issue.SmallReads, issue.SmallWrites, issue.LowLevelLibRead, issue.LowLevelLibWrite},
	"request_count":  {issue.NoCollectiveRead, issue.NoCollectiveWrite, issue.MultiProcessNoMPI},
	"file_metadata":  {issue.HighMetadataLoad},
	"rank":           {issue.RankImbalance, issue.SharedFileAccess, issue.MultiProcessNoMPI, issue.NoCollectiveRead, issue.NoCollectiveWrite},
	"alignment":      {issue.MisalignedReads, issue.MisalignedWrites},
	"order":          {issue.RandomReads, issue.RandomWrites, issue.RepetitiveReads},
	"mount":          {},
	"stripe_setting": {issue.ServerImbalance},
	"server_usage":   {issue.ServerImbalance},
}

// crossModule marks issues whose detection requires correlating multiple
// parts of the trace (Section I: "many I/O issues can only be identified by
// correlating multiple parts of the I/O trace"). Under a truncated long
// context these correlations degrade sharply.
var crossModule = map[issue.Label]bool{
	issue.NoCollectiveRead:  true,
	issue.NoCollectiveWrite: true,
	issue.MultiProcessNoMPI: true,
	issue.LowLevelLibRead:   true,
	issue.LowLevelLibWrite:  true,
	issue.ServerImbalance:   true,
	issue.RankImbalance:     true,
}

// diagnose runs the rule base over the retained facts and renders a report,
// degraded by capability, truncation, grounding, and misconceptions. When
// prose is true the output is free-form paragraphs (how a plain model
// answers a direct query); otherwise the canonical report layout is used.
func (s *SimLLM) diagnose(f *FactSet, spec ModelSpec, truncated, prose bool, rng *rand.Rand) string {
	v := NewView(f)
	hits := runRules(v)

	// Fragment prompts are scoped to one summary category; answer within it.
	if cat := f.DerivedStr["category"]; cat != "" {
		if allowed, ok := categoryLabels[cat]; ok {
			set := issue.NewSet(allowed...)
			kept := hits[:0]
			for _, h := range hits {
				if set[h.label] {
					kept = append(kept, h)
				}
			}
			hits = kept
		}
	}

	// Raw-counter prompts (no prepared summary metrics) are harder to
	// reason over than IOAgent's focused fragments; reliability drops.
	rawMode := len(f.Derived) == 0 && len(f.Counters) > 0

	// Simple cases are within every model's reach: effective capability
	// rises toward 1 as the number of concurrent concerns shrinks (this is
	// why the open model matches the frontier model on Simple-Bench).
	effCap := spec.Capability + (1-spec.Capability)*math.Exp(-float64(len(hits)-1)/3.0)

	rep := &Report{Preamble: diagnosisPreamble(f)}
	dropped := make(map[issue.Label]bool)
	for _, h := range hits {
		refs := matchSources(h.label, f.Sources)
		rel := effCap
		if len(refs) > 0 {
			rel += 0.15
		}
		if rawMode {
			rel *= 0.92
		}
		if truncated && crossModule[h.label] {
			rel *= 0.45
		}
		if rel > 0.995 {
			rel = 0.995
		}
		if rng.Float64() >= rel {
			dropped[h.label] = true
			continue
		}
		rec := issue.Recommendations[h.label]
		if spec.Verbosity < 0.7 {
			rec = firstSentence(rec)
		}
		rep.Findings = append(rep.Findings, Finding{
			Label: h.label, Evidence: h.Evidence(spec), Recommendation: rec, Refs: refs,
		})
	}

	s.applyMisconceptions(rep, v, spec, rng)

	// Ungrounded raw-trace analysis also hallucinates plausible issues the
	// data does not support (the false-positive half of Section III).
	if rawMode && len(f.Sources) == 0 {
		phantoms := []issue.Label{
			issue.MisalignedWrites, issue.HighMetadataLoad,
			issue.RandomReads, issue.SmallReads, issue.RankImbalance,
		}
		for draw := 0; draw < 2; draw++ {
			if rng.Float64() >= spec.MisconceptionRate {
				continue
			}
			claimed := rep.Labels()
			pick := phantoms[rng.Intn(len(phantoms))]
			if !claimed[pick] {
				rep.Findings = append(rep.Findings, Finding{
					Label:          pick,
					Evidence:       "several aspects of the access pattern suggest this may be degrading performance",
					Recommendation: issue.Recommendations[pick],
				})
			}
		}
	}

	if spec.Verbosity >= 0.8 {
		// Verbose models add context observations, scaled loosely to the
		// amount of real content (frontier models adapt to the material).
		obs := observations(f)
		if cap := len(rep.Findings) + 2; len(obs) > cap {
			obs = obs[:cap]
		}
		rep.Notes = append(rep.Notes, obs...)
	}
	if prose {
		return renderProse(rep)
	}
	return rep.Format()
}

// renderProse flattens a report into flowing paragraphs: the style a plain
// model produces for a direct query — informative but unstructured, which
// is exactly what costs the naive baselines on interpretability.
func renderProse(rep *Report) string {
	var b strings.Builder
	b.WriteString(rep.Preamble)
	b.WriteString(" Based on the trace contents, here is my assessment of the application's I/O behavior.\n\n")
	if len(rep.Findings) == 0 {
		b.WriteString("I did not find clear evidence of I/O performance problems in the visible portion of the trace.\n")
	}
	for i, fd := range rep.Findings {
		fmt.Fprintf(&b, "%s, the trace suggests %s: %s.", ordinal(i), strings.ToLower(string(fd.Label)), fd.Evidence)
		if fd.Recommendation != "" {
			fmt.Fprintf(&b, " %s", fd.Recommendation)
		}
		b.WriteString("\n\n")
	}
	// A narrative answer summarizes context briefly rather than
	// enumerating every observation.
	for i, n := range rep.Notes {
		if i == 3 {
			break
		}
		b.WriteString(n + " ")
	}
	b.WriteString("\n")
	return b.String()
}

func ordinal(i int) string {
	switch i {
	case 0:
		return "First"
	case 1:
		return "Second"
	case 2:
		return "Third"
	case 3:
		return "Next"
	default:
		return "Additionally"
	}
}

// Evidence renders the rule evidence, with low-verbosity models keeping
// only the leading clause.
func (h ruleHit) Evidence(spec ModelSpec) string {
	if spec.Verbosity < 0.7 {
		if i := strings.IndexAny(h.evidence, ";"); i > 0 {
			return h.evidence[:i]
		}
	}
	return h.evidence
}

// applyMisconceptions injects the popular-but-wrong claims of Section III
// when the relevant topic is not grounded by retrieved references.
func (s *SimLLM) applyMisconceptions(rep *Report, v *View, spec ModelSpec, rng *rand.Rand) {
	grounded := func(l issue.Label) bool {
		return len(matchSources(l, v.f.Sources)) > 0
	}

	// (a) "Default striping is optimal": suppresses a correct
	// Server Load Imbalance finding and asserts the opposite.
	if _, _, width, size, _, ok := v.StripePicture(); ok &&
		width <= 1 && size >= 512<<10 && size <= 2<<20 &&
		!grounded(issue.ServerImbalance) &&
		rng.Float64() < spec.MisconceptionRate {
		kept := rep.Findings[:0]
		for _, f := range rep.Findings {
			if f.Label != issue.ServerImbalance {
				kept = append(kept, f)
			}
		}
		rep.Findings = kept
		rep.Notes = append(rep.Notes,
			"The file stripe size of 1 MiB matches the common Lustre stripe size; this is optimal for minimizing the number of I/O requests on Lustre, so the striping configuration looks good.")
	}

	// (b) Inconsistent small-write claim: flags small writes the data does
	// not support (a false positive that contradicts the histogram).
	if !rep.Labels()[issue.SmallWrites] && !grounded(issue.SmallWrites) {
		if frac, ok := v.SmallWriteFraction(); ok && frac < smallFracThreshold && frac >= 0 {
			if w, okW := v.writes(); okW && w > 0 && rng.Float64() < spec.MisconceptionRate*0.7 {
				rep.Findings = append(rep.Findings, Finding{
					Label:          issue.SmallWrites,
					Evidence:       "some write operations appear to use small transfer sizes, which could degrade performance",
					Recommendation: "Consider aggregating writes into larger requests.",
				})
			}
		}
	}

	// (c) Generic ungrounded advice.
	if len(v.f.Sources) == 0 && rng.Float64() < spec.MisconceptionRate*0.5 {
		rep.Notes = append(rep.Notes,
			"Consider using a burst buffer or increasing the number of I/O nodes to accelerate I/O.")
	}
}

func diagnosisPreamble(f *FactSet) string {
	var parts []string
	if f.Exe != "" {
		parts = append(parts, fmt.Sprintf("Analysis of %s.", f.Exe))
	}
	if f.NProcs > 0 {
		parts = append(parts, fmt.Sprintf("The job ran with %d process(es).", f.NProcs))
	}
	if f.RunTime > 0 {
		parts = append(parts, fmt.Sprintf("Total runtime was %.0f seconds.", f.RunTime))
	}
	if len(parts) == 0 {
		return "Analysis of the provided I/O activity."
	}
	return strings.Join(parts, " ")
}

func observations(f *FactSet) []string {
	var notes []string
	v := NewView(f)
	if r, w, ok := v.TotalBytes(); ok {
		notes = append(notes, fmt.Sprintf("The application read %.1f MiB and wrote %.1f MiB in total over the course of the run.", r/(1<<20), w/(1<<20)))
	}
	if r, ok := v.reads(); ok {
		w, _ := v.writes()
		notes = append(notes, fmt.Sprintf("In total the trace records %.0f read operations and %.0f write operations across all ranks and files.", r, w))
	}
	if cr, cw, ir, iw, ok := v.Collectives(); ok {
		notes = append(notes, fmt.Sprintf("MPI-IO activity breaks down as %.0f collective and %.0f independent reads, plus %.0f collective and %.0f independent writes.", cr, ir, cw, iw))
	}
	if frac, ok := v.MetaTimeFraction(); ok {
		notes = append(notes, fmt.Sprintf("Metadata operations such as open and stat account for %.0f%% of the observed I/O time.", frac*100))
	}
	if seqW, ok := v.SeqWriteFraction(); ok {
		notes = append(notes, fmt.Sprintf("%.0f%% of write operations land at non-decreasing file offsets (sequential access).", seqW*100))
	}
	if seqR, ok := v.SeqReadFraction(); ok {
		notes = append(notes, fmt.Sprintf("%.0f%% of read operations land at non-decreasing file offsets (sequential access).", seqR*100))
	}
	if _, cov, width, size, osts, ok := v.StripePicture(); ok && osts > 0 {
		if width > 0 {
			notes = append(notes, fmt.Sprintf("On the Lustre mount the dominant layout uses a stripe count of %.0f with a %.0f KiB stripe size.", width, size/1024))
		}
		if cov > 0 {
			notes = append(notes, fmt.Sprintf("The job's files touch %.0f%% of the %.0f available OSTs.", cov*100, osts))
		}
	}
	if shared, ok := v.SharedDataFiles(); ok && shared > 0 {
		notes = append(notes, fmt.Sprintf("%.0f of the data files are accessed concurrently by multiple ranks.", shared))
	}
	return notes
}

func firstSentence(s string) string {
	if i := strings.Index(s, ". "); i > 0 {
		return s[:i+1]
	}
	return s
}

// describe converts a JSON summary fragment into the natural-language
// rendition used for embedding-based retrieval (paper Fig. 3).
func (s *SimLLM) describe(f *FactSet, spec ModelSpec) string {
	var b strings.Builder
	module := f.DerivedStr["module"]
	category := f.DerivedStr["category"]
	if module != "" || category != "" {
		fmt.Fprintf(&b, "This summary describes the %s information captured by the %s module.\n",
			strings.ReplaceAll(category, "_", " "), module)
	}
	if f.NProcs > 0 && f.RunTime > 0 {
		fmt.Fprintf(&b, "The application ran with %d processes for %.0f seconds.\n", f.NProcs, f.RunTime)
	}

	keys := make([]string, 0, len(f.Derived))
	for k := range f.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		val := f.Derived[k]
		if sentence := describeKey(k, val); sentence != "" {
			b.WriteString(sentence + "\n")
		}
	}
	return b.String()
}

// histBucketText maps histogram key suffixes to human phrasing.
var histBucketText = map[string]string{
	"0_100": "0 bytes to 100 bytes", "100_1K": "100 bytes to 1 KB",
	"1K_10K": "1 KB to 10 KB", "10K_100K": "10 KB to 100 KB",
	"100K_1M": "100 KB to 1 MB", "1M_4M": "1 MB to 4 MB",
	"4M_10M": "4 MB to 10 MB", "10M_100M": "10 MB to 100 MB",
	"100M_1G": "100 MB to 1 GB", "1G_PLUS": "over 1 GB",
}

func describeKey(key string, val float64) string {
	for suffix, text := range histBucketText {
		if strings.HasSuffix(key, suffix) && strings.Contains(key, "hist") {
			if val == 0 {
				return ""
			}
			op := "read"
			if strings.Contains(key, "write") {
				op = "write"
			}
			return fmt.Sprintf("The value of %.2f in the %s bin indicates that %.0f%% of the %s operations fall within the %s range.",
				val, text, val*100, op, text)
		}
	}
	switch key {
	case KeyBytesRead:
		return fmt.Sprintf("The application read a total of %.1f MiB of data.", val/(1<<20))
	case KeyBytesWrit:
		return fmt.Sprintf("The application wrote a total of %.1f MiB of data.", val/(1<<20))
	case KeySmallWriteFrac:
		return fmt.Sprintf("%.0f%% of write requests transfer fewer than 1 MB, which classifies them as small writes.", val*100)
	case KeySmallReadFrac:
		return fmt.Sprintf("%.0f%% of read requests transfer fewer than 1 MB, which classifies them as small reads.", val*100)
	case KeySeqWriteFrac:
		return fmt.Sprintf("%.0f%% of write operations are sequential; the remainder occur at out-of-order offsets suggesting a random write pattern.", val*100)
	case KeySeqReadFrac:
		return fmt.Sprintf("%.0f%% of read operations are sequential; the remainder occur at out-of-order offsets suggesting a random read pattern.", val*100)
	case KeyUnalignedWrite:
		return fmt.Sprintf("%.0f%% of write requests are not aligned with the file system stripe boundary.", val*100)
	case KeyUnalignedRead:
		return fmt.Sprintf("%.0f%% of read requests are not aligned with the file system stripe boundary.", val*100)
	case KeyMetaTimeFrac:
		return fmt.Sprintf("Metadata operations such as open and stat account for %.0f%% of the observed I/O time.", val*100)
	case KeyMetaOpsPerProc:
		return fmt.Sprintf("Each process performed about %.0f metadata operations (opens and stats).", val)
	case KeySharedFiles:
		return fmt.Sprintf("%.0f file(s) are shared: accessed concurrently by multiple MPI ranks.", val)
	case KeyCollWrites:
		return fmt.Sprintf("The application issued %.0f collective MPI-IO write operations.", val)
	case KeyCollReads:
		return fmt.Sprintf("The application issued %.0f collective MPI-IO read operations.", val)
	case KeyIndepWrites:
		return fmt.Sprintf("The application issued %.0f independent (non-collective) MPI-IO write operations.", val)
	case KeyIndepReads:
		return fmt.Sprintf("The application issued %.0f independent (non-collective) MPI-IO read operations.", val)
	case KeyStdioWriteByt:
		return fmt.Sprintf("%.1f MiB were written through the buffered STDIO library layer.", val/(1<<20))
	case KeyStdioReadByt:
		return fmt.Sprintf("%.1f MiB were read through the buffered STDIO library layer.", val/(1<<20))
	case KeyRereadFactor:
		return fmt.Sprintf("The most re-read file was read %.1f times over, indicating repetitive data access.", val)
	case KeyRankSlowRatio:
		return fmt.Sprintf("The slowest rank spent %.1fx the mean rank I/O time, a sign of rank load imbalance.", val)
	case KeyRankByteRatio:
		return fmt.Sprintf("The slowest rank moved %.1fx the bytes of the fastest rank.", val)
	case KeyStripeWidth:
		return fmt.Sprintf("Files on the Lustre mount use a stripe count (width) of %.0f.", val)
	case KeyStripeSize:
		return fmt.Sprintf("Files on the Lustre mount use a stripe size of %.0f KiB.", val/1024)
	case KeyNumOSTs:
		return fmt.Sprintf("The Lustre file system exposes %.0f object storage targets (OSTs).", val)
	case KeyOSTCoverage:
		return fmt.Sprintf("The job's files are striped over %.0f%% of the available storage targets.", val*100)
	case KeyWideFiles:
		if val == 0 {
			return ""
		}
		return fmt.Sprintf("%.0f large file(s) are confined to a single object storage target by a stripe count of 1.", val)
	case KeyLargestFile:
		return fmt.Sprintf("The largest file spans %.1f MiB.", val/(1<<20))
	case KeyAccessSize:
		return fmt.Sprintf("The dominant access size is %.0f KiB per request.", val/1024)
	case KeyWrites:
		return fmt.Sprintf("The application issued %.0f write operations in total.", val)
	case KeyReads:
		return fmt.Sprintf("The application issued %.0f read operations in total.", val)
	case KeyPosixShr:
		return fmt.Sprintf("%.0f%% of all bytes moved through the POSIX interface.", val*100)
	case KeyMpiioShr:
		return fmt.Sprintf("%.0f%% of all bytes moved through the MPI-IO interface.", val*100)
	case KeyStdioShr:
		return fmt.Sprintf("%.0f%% of all bytes moved through the STDIO interface.", val*100)
	}
	return ""
}

// filter implements the self-reflection relevance check: given a summary
// fragment and one retrieved source, answer whether the source is relevant.
func (s *SimLLM) filter(f *FactSet, spec ModelSpec, rng *rand.Rand) string {
	if len(f.Sources) == 0 {
		return "NO: no source provided"
	}
	src := f.Sources[0]
	sim := embed.Cosine(embed.Embed(f.Fragment), embed.Embed(src.Text))
	relevant := sim > 0.15
	// Imperfect judgment near the boundary for weaker models.
	if math.Abs(sim-0.15) < 0.04 && rng.Float64() < (1-spec.Capability)*0.5 {
		relevant = !relevant
	}
	if relevant {
		return fmt.Sprintf("YES: the source addresses the same behavior discussed in the fragment (similarity %.2f)", sim)
	}
	return fmt.Sprintf("NO: the source discusses a different aspect of I/O than the fragment (similarity %.2f)", sim)
}

// merge combines diagnosis summaries. Pairwise merges (within the model's
// merge capacity) are essentially lossless; one-shot merges of many
// summaries drop findings and references (paper Section IV-C / Fig. 6).
func (s *SimLLM) merge(f *FactSet, spec ModelSpec, rng *rand.Rand) string {
	n := len(f.Summaries)
	if n == 0 {
		return (&Report{Preamble: "Nothing to merge."}).Format()
	}
	reports := make([]*Report, n)
	for i, text := range f.Summaries {
		reports[i] = ParseReport(text)
	}

	pFind, pRef := 0.995, 0.99
	if n > spec.MergeCapacity && n > 2 {
		// One-shot merging beyond the model's capacity loses content
		// rapidly (Fig. 6).
		over := float64(n - spec.MergeCapacity)
		pFind = (0.95 - 0.15*over) * (0.5 + 0.5*spec.Capability)
		if pFind < 0.20 {
			pFind = 0.20
		}
		pRef = pFind * 0.65
	} else {
		// Pairwise merging is within every model's capacity, but merging
		// two *large* reports still carries cognitive load that weaker
		// models pay: findings drop with the total content being merged.
		total := 0
		for _, r := range reports {
			total += len(r.Findings)
		}
		if total > 4 {
			pFind -= float64(total-4) * 0.15 * (1 - spec.Capability) * (1 - spec.Capability)
			if pFind < 0.80 {
				pFind = 0.80
			}
			pRef = pFind * 0.98
		}
	}

	var retained []*Report
	for i, rep := range reports {
		posFactor := 1.0
		if n > 2 && i > 0 && i < n-1 {
			posFactor = 0.85 // middle summaries suffer extra loss
		}
		kept := &Report{Preamble: rep.Preamble}
		for _, fd := range rep.Findings {
			if rng.Float64() >= pFind*posFactor {
				continue
			}
			var refs []string
			for _, r := range fd.Refs {
				if rng.Float64() < pRef {
					refs = append(refs, r)
				}
			}
			fd.Refs = refs
			kept.Findings = append(kept.Findings, fd)
		}
		for _, note := range rep.Notes {
			if rng.Float64() < pFind*posFactor {
				kept.Notes = append(kept.Notes, note)
			}
		}
		retained = append(retained, kept)
	}
	return MergeReports(retained).Format()
}

// truncateTail cuts content to max tokens, keeping the head.
func truncateTail(content string, max int) (string, bool) {
	if CountTokens(content) <= max {
		return content, false
	}
	lines := strings.Split(content, "\n")
	var out []string
	used := 0
	for _, l := range lines {
		t := CountTokens(l) + 1
		if used+t > max {
			break
		}
		out = append(out, l)
		used += t
	}
	return strings.Join(out, "\n"), true
}
