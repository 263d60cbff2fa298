package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
	"ioagent/internal/vectordb"
)

// Span names. Layer = the module behind the seam the wrapper sits on.
const (
	spanClientJob  = "client.job"           // harness: submit → diagnosis in hand (the root)
	spanRouter     = "router.handle"        // router.Handler(), one per request
	spanSubmit     = "server.submit"        // server.NewMux, submission endpoints
	spanPoll       = "server.poll"          // server.NewMux, job status + diagnosis reads
	spanServer     = "server.other"         // server.NewMux, everything else (gossip, replica pushes)
	spanPoolJob    = "pool.job"             // OnJobEvent submitted → done
	spanLLM        = "llm.complete"         // llm.Client.Complete
	spanRetrieve   = "ioagent.retrieve"     // ioagent.Retriever.Retrieve
	spanJournal    = "store.journal_append" // time inside store.OnJobEvent
	spanCacheDirty = "store.cache_changed"  // time inside store.CacheChanged
	spanReplicate  = "roster.replicate"     // time inside roster.CacheInserted
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Parent and Trace are filled in by link once the pass
// is over: the traced pass drives one client, so spans nest by interval.
type span struct {
	ID     int    `json:"id"`
	Trace  int    `json:"trace"`  // 1-based job number; 0 = off the blocking path
	Parent int    `json:"parent"` // span ID; 0 = none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory while it is on. The wrappers below
// are installed only in a traced run; while the tracer is off they cost
// one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	pending map[string]time.Time // job ID → EventSubmitted time
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), pending: make(map[string]time.Time)}
}

func (t *tracer) record(name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// time runs fn inside a span when the tracer is on.
func (t *tracer) time(name string, fn func()) {
	if !t.on.Load() {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(name, start, time.Now())
}

// take returns the recorded spans and resets the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps an http.Handler; name classifies each request.
func (t *tracer) handler(name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.time(name(r), func() { h.ServeHTTP(w, r) })
	})
}

func routerSpanName(*http.Request) string { return spanRouter }

func serverSpanName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return spanPoll
	case strings.HasPrefix(p, "/v1/jobs"), strings.HasPrefix(p, "/v1/uploads"):
		return spanSubmit
	}
	return spanServer
}

type tracedLLM struct {
	t     *tracer
	inner llm.Client
}

func (c tracedLLM) Complete(req llm.Request) (resp llm.Response, err error) {
	c.t.time(spanLLM, func() { resp, err = c.inner.Complete(req) })
	return resp, err
}

// tracedRetriever serves retrieval from the same index the agent would
// search itself, so installing it changes timing only.
type tracedRetriever struct {
	t  *tracer
	ix *vectordb.Index
}

var _ ioagent.Retriever = tracedRetriever{}

func (r tracedRetriever) Retrieve(query string, k int) (hits []vectordb.Hit) {
	r.t.time(spanRetrieve, func() { hits = r.ix.Search(query, k) })
	return hits
}

// jobEvents wraps an OnJobEvent hook: the inner hook's time becomes a
// journal span, and submitted → terminal becomes the pool span.
func (t *tracer) jobEvents(inner func(fleet.Event)) func(fleet.Event) {
	return func(ev fleet.Event) {
		if !t.on.Load() {
			inner(ev)
			return
		}
		now := time.Now()
		terminal := ev.Job.Status == fleet.StatusDone || ev.Job.Status == fleet.StatusFailed
		t.mu.Lock()
		switch {
		case ev.Kind == fleet.EventSubmitted && !terminal:
			t.pending[ev.Job.ID] = now
		case ev.Kind != fleet.EventSubmitted:
			if start, ok := t.pending[ev.Job.ID]; ok {
				delete(t.pending, ev.Job.ID)
				t.spans = append(t.spans, span{Name: spanPoolJob, Start: int64(start.Sub(t.epoch)), End: int64(now.Sub(t.epoch))})
			}
		}
		t.mu.Unlock()
		t.time(spanJournal, func() { inner(ev) })
	}
}

// link assigns IDs, parents and trace numbers. A span's parent is the
// innermost span that contains it entirely; siblings may overlap (the
// pool span starts inside the submit request and outlives it; filter
// calls run in parallel). Spans under no client.job root keep trace 0:
// they ran off the blocking path (replication, gossip).
func link(spans []span) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End // the longer one is the parent
	})
	var open []int // indexes of spans that may still contain later ones
	jobs := 0
	for i := range spans {
		s := &spans[i]
		s.ID = i + 1
		keep := open[:0]
		for _, o := range open {
			if spans[o].End > s.Start {
				keep = append(keep, o)
			}
		}
		open = keep
		for k := len(open) - 1; k >= 0; k-- { // latest start first = innermost
			if p := spans[open[k]]; p.End >= s.End {
				s.Parent, s.Trace = p.ID, p.Trace
				break
			}
		}
		if s.Name == spanClientJob {
			jobs++
			s.Trace = jobs
		}
		open = append(open, i)
	}
	return spans
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	at := lo
	for _, s := range spans {
		start, end := max(s.Start, at), min(s.End, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
