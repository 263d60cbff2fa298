package ingest

import (
	"sync"
	"testing"
)

// TestMemoSharedAcrossGoroutines: eight goroutines key twelve distinct
// bodies (and one refused one) through a memo of capacity four, so hits,
// misses, duplicate puts and evictions all interleave. Every answer is
// the front door's, the memo never outgrows its capacity, and a refusal
// is never stored. Run with -race -count=10.
func TestMemoSharedAcrossGoroutines(t *testing.T) {
	const capacity, bodies, workers, rounds = 4, 12, 8, 6
	wires := make([][]byte, bodies)
	want := make([]string, bodies)
	for i := range wires {
		log := testTrace(t, i)
		if i%2 == 0 {
			wires[i] = binaryRendering(t, log)
		} else {
			wires[i] = textRendering(t, log)
		}
		var err error
		if _, want[i], err = Decode(wires[i]); err != nil {
			t.Fatal(err)
		}
	}
	refused := wires[0][:len(wires[0])/2]

	m := newMemo(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < bodies; k++ {
					i := (k*(w+1) + r) % bodies // a different walk per goroutine
					log, digest, _, err := m.Decode(wires[i])
					if err != nil || digest != want[i] {
						t.Errorf("body %d: digest %q err %v, want %q", i, digest, err, want[i])
						return
					}
					if log != nil {
						if _, redo, _ := Decode(wires[i]); redo != digest {
							t.Errorf("body %d: miss returned a log with another digest", i)
						}
					}
				}
				if _, _, _, err := m.Decode(refused); err == nil {
					t.Error("truncated body accepted")
				}
				if n := m.Stats().Len; n > capacity {
					t.Errorf("memo holds %d entries, capacity %d", n, capacity)
				}
			}
		}(w)
	}
	wg.Wait()

	st := m.Stats()
	if st.Len != capacity {
		t.Errorf("memo holds %d entries after %d distinct bodies, want it full at %d", st.Len, bodies, capacity)
	}
	if total := int64(workers * rounds * (bodies + 1)); st.Hits+st.Misses != total {
		t.Errorf("hits %d + misses %d != %d calls", st.Hits, st.Misses, total)
	}
	if st.Misses < bodies {
		t.Errorf("only %d misses for %d distinct bodies", st.Misses, bodies)
	}
}
