package ioagent

import (
	"fmt"
	"strings"
	"sync"

	"ioagent/internal/llm"
	"ioagent/internal/vectordb"
)

// retrieved is one knowledge chunk that survived retrieval (and, when
// enabled, the self-reflection filter).
type retrieved struct {
	Key   string
	Title string
	Text  string
	Score float64
}

// describeFragment asks the model to transform a JSON fragment into natural
// language (paper Fig. 3) for embedding-based retrieval.
func (a *Agent) describeFragment(frag *Fragment) (string, llm.Usage, error) {
	prompt := "TASK: describe\n" +
		"Transform the following Darshan summary fragment into a natural-language description a domain scientist can read. " +
		"Explain every value, including histogram bins, in complete sentences.\n" +
		frag.JSON() + "\n"
	resp, err := a.client.Complete(llm.Prompt(a.model, prompt))
	if err != nil {
		return "", llm.Usage{}, fmt.Errorf("describe %s: %w", frag.ID(), err)
	}
	a.addCost(resp)
	return resp.Content, resp.Usage, nil
}

// retrieve queries the knowledge plane (when configured) or the embedded
// vector index with the natural-language description and returns the top-k
// chunks (paper: k = 15).
func (a *Agent) retrieve(nl string) []retrieved {
	if a.opts.DisableRAG {
		return nil
	}
	var hits []vectordb.Hit
	switch {
	case a.retriever != nil:
		hits = a.retriever.Retrieve(nl, a.opts.TopK)
	case a.index != nil:
		hits = a.index.Search(nl, a.opts.TopK)
	default:
		return nil
	}
	out := make([]retrieved, 0, len(hits))
	for _, h := range hits {
		out = append(out, retrieved{
			Key: h.Chunk.DocKey, Title: h.Chunk.DocTitle,
			Text: h.Chunk.Text, Score: h.Score,
		})
	}
	return out
}

// selfReflect filters the retrieved sources with the cheaper model, in
// parallel (paper Section IV-B3): each source is judged for relevance to
// the fragment and irrelevant ones are dropped. A failed filter call fails
// the whole pass — swallowing it would silently drop a source and let a
// transient backend error degrade the diagnosis (which the fleet layer
// would then cache), instead of surfacing as retryable.
func (a *Agent) selfReflect(nl string, sources []retrieved) ([]retrieved, error) {
	if a.opts.DisableReflection || len(sources) == 0 {
		return sources, nil
	}
	keep := make([]bool, len(sources))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prompt := "TASK: filter\n" +
				"Decide whether the SOURCE below is relevant to the FRAGMENT. Answer YES or NO with a reason.\n" +
				"FRAGMENT:\n" + nl + "\nEND FRAGMENT\n" +
				fmt.Sprintf("[SOURCE %s] %s\n", sources[i].Key, sources[i].Text)
			resp, err := a.client.Complete(llm.Prompt(a.cheapModel, prompt))
			if err == nil {
				a.addCost(resp)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			keep[i] = strings.HasPrefix(resp.Content, "YES")
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("filter: %w", firstErr)
	}
	var out []retrieved
	for i, k := range keep {
		if k {
			out = append(out, sources[i])
		}
	}
	return out, nil
}

// diagnoseFragment produces the grounded per-fragment diagnosis.
func (a *Agent) diagnoseFragment(frag *Fragment, nl string, sources []retrieved) (string, error) {
	var b strings.Builder
	b.WriteString("TASK: diagnose\n")
	b.WriteString("You are an expert HPC I/O analyst. Diagnose any I/O performance issues evidenced by this summary fragment. ")
	b.WriteString("Justify each issue with the concrete values and cite the supporting sources.\n\n")
	b.WriteString("Fragment (JSON):\n" + frag.JSON() + "\n\n")
	b.WriteString("Fragment (description):\n" + nl + "\n")
	if len(sources) > 0 {
		b.WriteString("\nRetrieved domain knowledge:\n")
		for _, s := range sources {
			fmt.Fprintf(&b, "[SOURCE %s] %s\n", s.Key, s.Text)
		}
	}
	resp, err := a.client.Complete(llm.Prompt(a.model, b.String()))
	if err != nil {
		return "", fmt.Errorf("diagnose %s: %w", frag.ID(), err)
	}
	a.addCost(resp)
	return resp.Content, nil
}
