package llm

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// A textTable memoises a pure function of a text: the simulator's
// embedding of fragments and corpus chunks (SimLLM.embed), and the labels
// a diagnosis claims (ClaimedLabels). Both recur: a filter fragment is
// asked about ~15 times in a row and each corpus chunk on every job; the
// reuse gate and the tier self-check read the same cached diagnosis once
// for their label F1 and once per judge permutation.
//
// The table is tableSlots direct-mapped slots indexed by maphash of the
// text. A slot holds one immutable entry, replaced whole on a miss, so
// readers need no lock. Its invariants:
//
//   - a hit counts only when the entry's text equals the asked text, so a
//     slot collision costs a recompute and never a wrong value;
//   - there is no eviction order and no invalidation, because the value
//     is a pure function of the text;
//   - the key is cloned, so an entry never pins the prompt it was cut from;
//   - texts over maxTableText are computed on every call and never kept;
//   - a value is shared by every caller that hits it, so no caller may
//     mutate it.
//
// The zero value is an empty table.
type textTable[V any] struct {
	slots [tableSlots]atomic.Pointer[textEntry[V]]
}

type textEntry[V any] struct {
	text string
	val  V
}

// tableSlots is the slot count of every textTable. A slot costs 8 bytes
// empty; filled, it holds one text of at most maxTableText bytes and its
// value. The built-in corpus has 66 chunks, and the gate's sources are
// the fleet's cached diagnoses, so 512 slots hold a working set with few
// collisions.
const tableSlots = 512

// maxTableText is the longest text a textTable keeps. Corpus chunks and
// fragment descriptions are under a few KB; the longest diagnosis of the
// 40 TraceBench traces and the scenario matrix is 4 232 bytes (gpt-4o-sim;
// 2 985 on gpt-4o-mini-sim), so every reuse-gate source fits with room to
// spare. It keeps an unusual prompt from pinning a large key, and bounds a
// full table near 512 × 8 KB = 4 MB; the texts the fleet asks about
// average ~2 KB.
const maxTableText = 8 << 10

// tableSeed keys every table's slot hash. It is set once at init and only
// read afterwards.
var tableSeed = maphash.MakeSeed()

// slot is the slot text maps to.
func (t *textTable[V]) slot(text string) *atomic.Pointer[textEntry[V]] {
	return &t.slots[maphash.String(tableSeed, text)%tableSlots]
}

// get returns compute(text) through the table.
func (t *textTable[V]) get(text string, compute func(string) V) V {
	if len(text) > maxTableText {
		return compute(text)
	}
	slot := t.slot(text)
	if e := slot.Load(); e != nil && e.text == text {
		return e.val
	}
	e := &textEntry[V]{text: strings.Clone(text), val: compute(text)}
	slot.Store(e)
	return e.val
}
