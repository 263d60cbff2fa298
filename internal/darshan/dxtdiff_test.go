package darshan_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/scenario"
)

// randomDXT draws an event stream that exercises every branch of the
// derivation: all three derived modules and an unknown spelling, files
// touched by one rank and by many, both directions, Length 0, offsets on
// and off the alignment boundary, exact sequential and consecutive
// chains, events that end before they start, equal start times, and
// timestamps with more digits than the text precision. With nan set, some
// start times are NaN, which breaks the canonical order.
func randomDXT(rng *rand.Rand, nan bool) *dxt.Trace {
	modules := []string{"X_POSIX", "X_POSIX", "X_MPIIO", "X_STDIO", "X_FUTURE"}
	nranks := 1 + rng.Intn(6)
	nfiles := 1 + rng.Intn(5)
	t := &dxt.Trace{NProcs: rng.Intn(nranks + 2)}
	next := map[[3]int]int64{} // (file, rank, op) -> where a consecutive access starts
	for i, n := 0, rng.Intn(120); i < n; i++ {
		file := rng.Intn(nfiles)
		rank := rng.Intn(nranks)
		if file%2 == 0 {
			rank = file % nranks // even files belong to one rank
		}
		e := dxt.Event{
			Module: modules[(file+rng.Intn(2))%len(modules)], Rank: rank,
			File: fmt.Sprintf("/scratch/f%d", file), Op: dxt.OpKind(rng.Intn(2)), Seq: i,
		}
		switch rng.Intn(4) {
		case 0:
			e.Length = 0
		case 1:
			e.Length = 4096
		default:
			e.Length = rng.Int63n(1 << uint(rng.Intn(32)))
		}
		key := [3]int{file, rank, int(e.Op)}
		switch rng.Intn(3) {
		case 0:
			e.Offset = next[key] // consecutive
		case 1:
			e.Offset = next[key] + rng.Int63n(1<<20) // sequential
		default:
			e.Offset = rng.Int63n(1<<30) &^ int64(rng.Intn(2)*4095) // anywhere, half of them aligned
		}
		next[key] = e.Offset + e.Length
		e.Start = float64(rng.Intn(2000)) / 1000 // ties are common
		if rng.Intn(3) == 0 {
			e.Start += rng.Float64() * 1e-3
		}
		e.End = e.Start + (rng.Float64()-0.1)*0.01 // one in ten ends before it starts
		if nan && rng.Intn(8) == 0 {
			e.Start = math.NaN()
		}
		t.Events = append(t.Events, e)
	}
	return t
}

// TestFromDXTMatchesOracle: the derivation against the map-based one it
// replaced, counter for counter and event for event, over the scenario
// matrix's DXT renderings and 1 000 seeded random streams, each both as
// drawn and as its text rendering parses back.
func TestFromDXTMatchesOracle(t *testing.T) {
	check := func(name string, tr *dxt.Trace) {
		t.Helper()
		if diff := darshan.DiffLogs(darshan.FromDXT(tr), darshan.OracleFromDXT(tr)); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
	}

	for _, sc := range scenario.Matrix() {
		if sc.Modality != "dxt" {
			continue
		}
		_, l := sc.Build()
		check(sc.Name, l.DXT)
		shuffled := &dxt.Trace{NProcs: l.DXT.NProcs, Events: append([]dxt.Event(nil), l.DXT.Events...)}
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Events), func(i, j int) {
			shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
		})
		check(sc.Name+"/shuffled", shuffled)
	}
	for seed := int64(0); seed < 1000; seed++ {
		tr := randomDXT(rand.New(rand.NewSource(seed)), seed%10 == 9)
		check(fmt.Sprintf("seed %d", seed), tr)
		back, err := dxt.ParseText(strings.NewReader(dxt.TextString(tr)))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d/text", seed), back)
	}
}
