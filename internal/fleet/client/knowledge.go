package client

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"

	"ioagent/internal/fleet/api"
)

// Knowledge-plane calls (api 1.4). On a single Client they address one
// daemon's plane; on a Cluster, mutations broadcast to every member (each
// node stages and promotes its own shard of the corpus) and searches
// scatter-gather.

// KnowledgeStatus fetches the daemon's knowledge-plane status. Daemons
// running without a plane answer api.CodeKnowledgeDisabled.
func (c *Client) KnowledgeStatus(ctx context.Context) (api.KnowledgeStatus, error) {
	var ks api.KnowledgeStatus
	err := c.do(ctx, "GET", "/v1/knowledge", nil, &ks)
	return ks, err
}

// KnowledgeUpsert stages document additions and removals on the daemon.
// Staged changes stay invisible to retrieval until KnowledgeSwap promotes
// them. Safe to retry: re-staging the same mutation is idempotent.
func (c *Client) KnowledgeUpsert(ctx context.Context, req api.KnowledgeUpsertRequest) (api.KnowledgeStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.KnowledgeStatus{}, err
	}
	var ks api.KnowledgeStatus
	err = c.do(ctx, "POST", "/v1/knowledge/docs", body, &ks)
	return ks, err
}

// KnowledgeSwap atomically promotes the daemon's staged corpus changes to
// a new serving epoch. With nothing staged it returns an *api.Error with
// api.CodeNothingStaged.
func (c *Client) KnowledgeSwap(ctx context.Context) (uint64, error) {
	var resp api.KnowledgeSwapResponse
	err := c.do(ctx, "POST", "/v1/knowledge/swap", []byte("{}"), &resp)
	return resp.Epoch, err
}

// KnowledgeSearch probes the daemon's serving corpus directly, bypassing
// the diagnosis pipeline.
func (c *Client) KnowledgeSearch(ctx context.Context, req api.KnowledgeSearchRequest) (api.KnowledgeSearchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.KnowledgeSearchResponse{}, err
	}
	var resp api.KnowledgeSearchResponse
	err = c.do(ctx, "POST", "/v1/knowledge/search", body, &resp)
	return resp, err
}

// KnowledgeUpsert broadcasts the staged mutation to every member: in a
// sharded fleet each node indexes only its ring shard of the documents,
// so all of them must see the full mutation. Members that refuse or are
// unreachable are reported as one error; the caller retries the broadcast
// (idempotent) until it lands everywhere, then swaps.
func (cl *Cluster) KnowledgeUpsert(ctx context.Context, req api.KnowledgeUpsertRequest) error {
	_, errs := fanOut(cl.cur.Load(), func(member string, c *Client) (struct{}, error) {
		_, err := c.KnowledgeUpsert(ctx, req)
		return struct{}{}, err
	})
	return broadcastError("knowledge upsert", errs)
}

// KnowledgeSwap broadcasts the epoch promotion and returns the minimum
// epoch reported by members that swapped. A partial failure leaves the
// fleet on mixed epochs — visible as KnowledgeEpochSkew in Health — and
// is surfaced as an error so the caller re-runs the sync.
func (cl *Cluster) KnowledgeSwap(ctx context.Context) (uint64, error) {
	epochs, errs := fanOut(cl.cur.Load(), func(member string, c *Client) (uint64, error) {
		return c.KnowledgeSwap(ctx)
	})
	var minEpoch uint64
	for i, e := range epochs {
		if errs[i] != nil {
			continue
		}
		if minEpoch == 0 || e < minEpoch {
			minEpoch = e
		}
	}
	return minEpoch, broadcastError("knowledge swap", errs)
}

// KnowledgeStatus aggregates every reachable member's plane status:
// counters sum, Epoch is the minimum across healthy planes (the corpus
// version every retrieval is guaranteed to reflect), Docs is the largest
// full-corpus view, and the latency percentile takes the worst node.
func (cl *Cluster) KnowledgeStatus(ctx context.Context) (api.KnowledgeStatus, error) {
	ms := cl.cur.Load()
	all, errs := fanOut(ms, func(member string, c *Client) (api.KnowledgeStatus, error) {
		return c.KnowledgeStatus(ctx)
	})
	// The status is the knowledge block of the metrics document and
	// merges by the same rules.
	var snaps []api.Metrics
	var lastErr error
	for i := range all {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		snaps = append(snaps, api.Metrics{Knowledge: &all[i]})
	}
	if len(snaps) == 0 {
		if lastErr != nil {
			return api.KnowledgeStatus{}, lastErr
		}
		return api.KnowledgeStatus{}, api.Errorf(api.CodeNodeDown, "no fleet node reachable (%d tried)", len(ms.members))
	}
	return *api.MergeMetrics(snaps).Knowledge, nil
}

// KnowledgeSearch scatter-gathers a retrieval probe: every reachable
// member searches its shard, results merge by score with key#seq
// deduplication, and the answer reports the minimum contributing epoch.
func (cl *Cluster) KnowledgeSearch(ctx context.Context, req api.KnowledgeSearchRequest) (api.KnowledgeSearchResponse, error) {
	k := req.K
	if k <= 0 {
		k = api.DefaultKnowledgeK
	}
	ms := cl.cur.Load()
	all, errs := fanOut(ms, func(member string, c *Client) (api.KnowledgeSearchResponse, error) {
		return c.KnowledgeSearch(ctx, req)
	})
	var resps []api.KnowledgeSearchResponse
	var lastErr error
	for i, r := range all {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		resps = append(resps, r)
	}
	if len(resps) == 0 {
		if lastErr != nil {
			return api.KnowledgeSearchResponse{}, lastErr
		}
		return api.KnowledgeSearchResponse{}, api.Errorf(api.CodeNodeDown, "no fleet node reachable (%d tried)", len(ms.members))
	}
	return MergeKnowledgeSearch(resps, k), nil
}

// broadcastError folds a fan-out's per-member errors into one. Knowledge
// mutations are all-or-retry: any member that missed the broadcast leaves
// the fleet inconsistent, so the first failure surfaces (with the member
// count) instead of being shrugged off as a partial success.
func broadcastError(op string, errs []error) error {
	failed := 0
	var first error
	for _, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if first == nil {
		return nil
	}
	code := api.ErrorCode(first)
	if code == "" {
		code = api.CodeNodeDown
	}
	return api.Errorf(code,
		"%s reached %d/%d members (first failure: %v); rebroadcast to converge",
		op, len(errs)-failed, len(errs), first)
}

// MergeKnowledgeSearch folds scatter-gathered search responses into one
// ranked top-k: duplicate chunks (the same key#seq served by replicas)
// keep their best score, survivors order by score descending with the
// same key/seq tie-break the index uses, and the merged answer reports
// the minimum contributing epoch. Exported for iofleet-router.
func MergeKnowledgeSearch(resps []api.KnowledgeSearchResponse, k int) api.KnowledgeSearchResponse {
	out := api.KnowledgeSearchResponse{}
	best := make(map[string]api.KnowledgeHit)
	for i, r := range resps {
		if i == 0 || r.Epoch < out.Epoch {
			out.Epoch = r.Epoch
		}
		for _, h := range r.Hits {
			id := h.Key + "#" + strconv.Itoa(h.Seq)
			if prev, ok := best[id]; !ok || h.Score > prev.Score {
				best[id] = h
			}
		}
	}
	merged := make([]api.KnowledgeHit, 0, len(best))
	for _, h := range best {
		merged = append(merged, h)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		if merged[i].Key != merged[j].Key {
			return merged[i].Key < merged[j].Key
		}
		return merged[i].Seq < merged[j].Seq
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	out.Hits = merged
	return out
}
