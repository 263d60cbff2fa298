package ioagent

import (
	"fmt"
	"sync"

	"ioagent/internal/darshan"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
	"ioagent/internal/vectordb"
)

// Options tune the pipeline; zero values give the paper's configuration.
type Options struct {
	// Model is the main diagnosis model (default gpt-4o-sim).
	Model string
	// CheapModel runs the self-reflection filter (default gpt-4o-mini-sim).
	CheapModel string
	// TopK is the number of chunks retrieved per fragment (paper: 15).
	TopK int
	// DisableRAG skips retrieval entirely (ablation).
	DisableRAG bool
	// DisableReflection skips the self-reflection filter (ablation).
	DisableReflection bool
	// UseOneShotMerge replaces the tree merge with a single merge call
	// (the Fig. 6 ablation baseline).
	UseOneShotMerge bool
	// Index overrides the knowledge index (default: the built-in corpus,
	// built once per process and shared across agents).
	Index *vectordb.Index
	// Retriever, when set, replaces the embedded index on the retrieval
	// path: the agent asks it for the top-k sources per fragment instead
	// of searching Index. The fleet's knowledge plane implements this to
	// serve retrieval as a cluster service (epoch-versioned corpus, ANN
	// search, optional rerank). Retrieval falls back to Index when nil.
	Retriever Retriever
}

// Retriever serves top-k retrieval for the agent's RAG stage. Implementations
// must be safe for concurrent use; vectordb.Index satisfies the shape via
// Search, and internal/fleet/knowledge.Plane is the fleet-served form.
type Retriever interface {
	Retrieve(query string, k int) []vectordb.Hit
}

// WithDefaults returns a copy of o with every unset field replaced by the
// paper's default. Exposed so callers that key work on a configuration —
// the fleet result cache content-addresses (options, trace) pairs — see
// the same canonical form the agent will actually run with.
func (o Options) WithDefaults() Options {
	if o.Model == "" {
		o.Model = llm.GPT4o
	}
	if o.CheapModel == "" {
		o.CheapModel = llm.GPT4oMini
	}
	if o.TopK <= 0 {
		o.TopK = 15
	}
	return o
}

// Agent is the IOAgent pipeline bound to an LLM client and knowledge index.
// An Agent is safe for concurrent use: Diagnose may be called from many
// goroutines at once provided the llm.Client is itself concurrency-safe
// (see the package documentation).
type Agent struct {
	client     llm.Client
	model      string
	cheapModel string
	index      *vectordb.Index
	retriever  Retriever
	opts       Options

	mu      sync.Mutex
	total   ModelStats
	byModel map[string]ModelStats
}

// ModelStats is the accumulated usage of one model across an agent's
// calls, as reported by StatsByModel.
type ModelStats struct {
	Usage   llm.Usage
	CostUSD float64
	Calls   int
}

// Add accumulates o into m, field by field. Every per-model usage sum in
// the system — an agent's, the fleet's judge calls', the pool-wide merge —
// goes through here.
func (m *ModelStats) Add(o ModelStats) {
	m.Usage.PromptTokens += o.Usage.PromptTokens
	m.Usage.CompletionTokens += o.Usage.CompletionTokens
	m.CostUSD += o.CostUSD
	m.Calls += o.Calls
}

// defaultIndex memoizes the built-in corpus index: chunk embedding is the
// expensive part of agent construction, and every default-configured agent
// in a process (tests, tier-ladder rungs, multi-agent daemons) retrieves
// from the identical immutable corpus. Agents never mutate their index, so
// sharing is safe; callers that need a private or mutable index pass
// Options.Index explicitly.
var defaultIndex struct {
	once sync.Once
	ix   *vectordb.Index
}

func defaultCorpusIndex() *vectordb.Index {
	defaultIndex.once.Do(func() {
		defaultIndex.ix = knowledge.BuildIndex()
	})
	return defaultIndex.ix
}

// New builds an agent. A nil index in opts selects the built-in 66-document
// corpus index, built once per process and shared.
func New(client llm.Client, opts Options) *Agent {
	opts = opts.WithDefaults()
	ix := opts.Index
	if ix == nil && !opts.DisableRAG {
		ix = defaultCorpusIndex()
	}
	return &Agent{
		client:     client,
		model:      opts.Model,
		cheapModel: opts.CheapModel,
		index:      ix,
		retriever:  opts.Retriever,
		opts:       opts,
	}
}

// Model returns the main diagnosis model name.
func (a *Agent) Model() string { return a.model }

// Index returns the knowledge index the agent retrieves from (nil when RAG
// is disabled). Exposed so cooperating agents — e.g. the fleet's model-tier
// ladder — share one corpus index instead of each paying to rebuild it.
func (a *Agent) Index() *vectordb.Index { return a.index }

func (a *Agent) addCost(resp llm.Response) {
	a.mu.Lock()
	defer a.mu.Unlock()
	one := ModelStats{Usage: resp.Usage, CostUSD: resp.CostUSD, Calls: 1}
	a.total.Add(one)
	if a.byModel == nil {
		a.byModel = make(map[string]ModelStats)
	}
	ms := a.byModel[resp.Model]
	ms.Add(one)
	a.byModel[resp.Model] = ms
}

// Stats reports accumulated usage across all calls made by the agent.
func (a *Agent) Stats() (usage llm.Usage, costUSD float64, calls int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total.Usage, a.total.CostUSD, a.total.Calls
}

// StatsByModel breaks Stats down per model (the diagnosis model and the
// cheap self-reflection model accumulate separately). The returned map is
// a copy and safe to retain.
func (a *Agent) StatsByModel() map[string]ModelStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]ModelStats, len(a.byModel))
	for model, ms := range a.byModel {
		out[model] = ms
	}
	return out
}

// FragmentResult records the intermediate artifacts of one fragment's
// journey through the pipeline (useful for inspection and tests).
type FragmentResult struct {
	Fragment    *Fragment
	Description string
	Retrieved   int // sources retrieved from the index
	Kept        int // sources surviving self-reflection
	Diagnosis   string
}

// Result is a complete diagnosis.
type Result struct {
	// Text is the final merged diagnosis in the canonical report layout.
	Text string
	// Report is the parsed form of Text.
	Report *llm.Report
	// Fragments are the per-fragment intermediates in pipeline order.
	Fragments []FragmentResult
}

// Diagnose runs the full pipeline on a Darshan log.
func (a *Agent) Diagnose(log *darshan.Log) (*Result, error) {
	frags := Summarize(log)
	if len(frags) == 0 {
		return nil, fmt.Errorf("ioagent: trace contains no module data")
	}

	// Per-fragment describe -> retrieve -> reflect -> diagnose. Fragments
	// are independent, so they run in parallel like the paper's
	// per-source filtering.
	results := make([]FragmentResult, len(frags))
	errs := make([]error, len(frags))
	var wg sync.WaitGroup
	for i, frag := range frags {
		wg.Add(1)
		go func(i int, frag *Fragment) {
			defer wg.Done()
			fr := FragmentResult{Fragment: frag}
			js := frag.JSON()
			nl, _, err := a.describeFragment(frag, js)
			if err != nil {
				errs[i] = err
				return
			}
			fr.Description = nl
			sources := a.retrieve(nl)
			fr.Retrieved = len(sources)
			sources, err = a.selfReflect(nl, sources)
			if err != nil {
				errs[i] = err
				return
			}
			fr.Kept = len(sources)
			diag, err := a.diagnoseFragment(frag, js, nl, sources)
			if err != nil {
				errs[i] = err
				return
			}
			fr.Diagnosis = diag
			results[i] = fr
		}(i, frag)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	summaries := make([]string, len(results))
	for i, fr := range results {
		summaries[i] = fr.Diagnosis
	}
	var merged string
	var err error
	if a.opts.UseOneShotMerge {
		merged, err = a.OneShotMerge(summaries)
	} else {
		merged, err = a.TreeMerge(summaries)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Text:      merged,
		Report:    llm.ParseReport(merged),
		Fragments: results,
	}, nil
}
