package client

import (
	"sync"
	"time"
)

// Per-endpoint backoff for the cluster's forward paths (buffered Submit,
// the router's spool/stream path, and upload opens). Each member client
// already widens its OWN retry delays by its recent failure rate, but
// that memory only shapes retries inside one call: a fresh submission
// still walks the ring from the owner, so while a member is down every
// request pays that member's full retry schedule before failing over.
// The endpoint window remembers across calls — a member that just failed
// transiently is deferred (tried last, never skipped) until its backoff
// deadline passes, and the deadline widens with the endpoint's observed
// failure rate and its consecutive-failure streak. It lives on the
// member's Client, so it survives roster swaps for members that stay and
// goes with the client of a member that leaves.
const (
	// endpointBackoffBase is the deferral after a first transient
	// failure; consecutive failures double it up to endpointBackoffMax.
	endpointBackoffBase = 100 * time.Millisecond
	endpointBackoffMax  = 5 * time.Second
	// endpointStreakCap bounds the doubling (100ms << 5 = 3.2s, before
	// rate widening).
	endpointStreakCap = 5
)

// widen stretches a backoff delay by the recent failure rate — rate 0
// leaves it untouched, a fully failing window quadruples it (1+3·rate) —
// and caps it at limit. Client.nextDelay and endpointBackoff.observe
// share this one shape.
func widen(d time.Duration, rate float64, limit time.Duration) time.Duration {
	if d = time.Duration(float64(d) * (1 + 3*rate)); d > limit {
		d = limit
	}
	return d
}

// endpointBackoff is one member's cross-call failure memory. Safe for
// concurrent use.
type endpointBackoff struct {
	mu     sync.Mutex
	window outcomeWindow // recent forward outcomes (shared ring type with Client)
	streak int           // consecutive transient failures
	until  time.Time     // deferred before this instant
}

// observe records one forward attempt's outcome. A success clears the
// deferral immediately; a transient failure schedules one, doubling with
// the streak and widening with the window's failure rate.
func (b *endpointBackoff) observe(fail bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.window.record(fail)
	if !fail {
		b.streak = 0
		b.until = time.Time{}
		return
	}
	b.streak++
	shift := b.streak - 1
	if shift > endpointStreakCap {
		shift = endpointStreakCap
	}
	b.until = now.Add(widen(endpointBackoffBase<<shift, b.window.rate(), endpointBackoffMax))
}

// deferred reports whether the endpoint is inside its backoff window.
func (b *endpointBackoff) deferred(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.until)
}

// orderByBackoff stably partitions a failover order: members currently
// deferred move behind the eligible ones. Nothing is ever dropped — when
// the whole fleet is backing off, the original order stands and every
// member is still tried (deferral shapes order, availability decides
// outcomes). When no member is deferred, the normal case, members is
// returned as it is, without allocating.
func (ms *membership) orderByBackoff(members []string) []string {
	now := time.Now()
	var eligible, held []string
	for i, m := range members {
		switch {
		case ms.clients[m].backoff.deferred(now):
			if held == nil {
				eligible = append(make([]string, 0, len(members)), members[:i]...)
			}
			held = append(held, m)
		case held != nil:
			eligible = append(eligible, m)
		}
	}
	if len(held) == 0 || len(eligible) == 0 {
		return members
	}
	return append(eligible, held...)
}
