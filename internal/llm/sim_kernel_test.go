package llm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ioagent/internal/embed"
)

// Seeds where math/rand's seeding takes a special branch: zero (replaced
// by a constant), the modulus 2³¹−1 and its multiples (reduce to zero),
// negatives (the remainder is lifted), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, 89482311, -89482311,
	1<<31 - 1, 1<<31 - 2, 1 << 31, -(1<<31 - 1), 2 * (1<<31 - 1), -3 * (1<<31 - 1),
	(1<<31 - 1) * (1<<31 - 1), math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
}

// drawCounts cross the first-draw jump, the switch to the real generator,
// and the 607-word register's wrap.
var drawCounts = []int{0, 1, 2, 3, 272, 273, 334, 606, 607, 608, 1213, 1214, 1300}

// lazyAt returns a lazySource whose seed is exactly seed: ExtraSeed is
// XORed into the prompt hash, so it can aim the hash anywhere.
func lazyAt(seed int64, model, prompt string) *lazySource {
	sim := &SimLLM{}
	sim.ExtraSeed = sim.seed(model, prompt) ^ seed
	return &lazySource{sim: sim, model: model, prompt: prompt}
}

// checkLazySource draws n values from l and from rand.NewSource(seed),
// mixing the Rand methods the simulator uses as ops says, and fails on
// the first difference.
func checkLazySource(t *testing.T, l *lazySource, seed int64, n int, ops []byte) {
	t.Helper()
	got, want := rand.New(l), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		op := byte(i)
		if len(ops) > 0 {
			op = ops[i%len(ops)]
		}
		var g, w any
		switch op % 5 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.Intn(5), want.Intn(5)
		case 2:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 3:
			g, w = got.Uint64(), want.Uint64()
		default:
			g, w = got.Int63(), want.Int63()
		}
		if g != w {
			t.Fatalf("seed %d draw %d (op %d): lazySource gives %v, rand.NewSource %v", seed, i, op%5, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand: the jump-ahead first draw and everything
// after it are rand.NewSource(seed)'s sequence, for every seeding branch.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, n := range drawCounts {
			checkLazySource(t, lazyAt(seed, GPT4o, "p"), seed, n, nil)
			checkLazySource(t, lazyAt(seed, GPT4o, "p"), seed, n, []byte{0})
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		seed := int64(r.Uint64())
		if got, want := firstDraw(seed), rand.NewSource(seed).(rand.Source64).Uint64(); got != want {
			t.Fatalf("firstDraw(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestLazySourceReseed: Seed switches to rand.NewSource(seed) whatever was
// drawn before.
func TestLazySourceReseed(t *testing.T) {
	for _, drawn := range []int{0, 1, 2} {
		l := lazyAt(5, GPT4o, "p")
		for i := 0; i < drawn; i++ {
			l.Uint64()
		}
		l.Seed(-9)
		checkLazySource(t, l, -9, 700, nil)
	}
}

// FuzzLazySourceMatchesMathRand: any prompt, any ExtraSeed, up to 1300
// draws in any mix of Rand methods.
func FuzzLazySourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add("p", (&SimLLM{}).seed(GPT4o, "p")^seed, uint16(drawCounts[i%len(drawCounts)]), []byte{byte(i)})
	}
	f.Add("TASK: filter\n", int64(0), uint16(1300), []byte{0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, prompt string, extra int64, n uint16, ops []byte) {
		sim := &SimLLM{ExtraSeed: extra}
		l := &lazySource{sim: sim, model: GPT4o, prompt: prompt}
		checkLazySource(t, l, sim.seed(GPT4o, prompt), int(n)%1301, ops)
	})
}

// TestVecTableCollision: two texts that share a slot each get their own
// vector, however their lookups interleave.
func TestVecTableCollision(t *testing.T) {
	a, b := collidingPair("stripe width confines traffic to one storage target", " on a wide file")
	if embed.Embed(a) == embed.Embed(b) {
		t.Fatalf("%q and %q embed alike; the test needs distinct vectors", a, b)
	}
	s := NewSim()
	for i, text := range []string{a, b, a, a, b, b, a} {
		if got, want := s.embed(text), embed.Embed(text); got != want {
			t.Fatalf("lookup %d of %q: vector differs from embed.Embed", i, text)
		}
	}
	// An over-cap text is embedded and not kept; a miss keys its entry
	// with a copy, never the prompt it was cut from.
	s = NewSim()
	long := strings.Repeat("x ", maxTableText)
	if got := s.embed(long); got != embed.Embed(long) {
		t.Fatal("an over-cap text: vector differs from embed.Embed")
	}
	prompt := "[SOURCE k] " + a + " tail\n"
	sub := prompt[len("[SOURCE k] ") : len("[SOURCE k] ")+len(a)]
	s.embed(sub)
	checkTableKeeps(t, &s.vecs, sub)
}

func filterPrompt(fragment, key, text string) string {
	return "TASK: filter\nDecide whether the SOURCE below is relevant to the FRAGMENT. Answer YES or NO with a reason.\n" +
		"FRAGMENT:\n" + fragment + "\nEND FRAGMENT\n[SOURCE " + key + "] " + text + "\n"
}

// TestFilterConcurrentMatchesReference: goroutines sharing one SimLLM, and
// so one table, over texts that recur and collide, get the answer a
// table-free embedding gives. Run under -race in CI.
func TestFilterConcurrentMatchesReference(t *testing.T) {
	var frags, srcs []string
	for i := 0; i < 12; i++ {
		// Numbers are not embedding terms; the fN/sN words make every
		// text's vector its own.
		frags = append(frags, fmt.Sprintf("%d%% of write requests transfer fewer than 1 MB, which classifies them as small writes f%d.", 10+7*i, i))
		srcs = append(srcs, fmt.Sprintf("small write requests amplify latency s%d; aggregate writes into larger buffers or raise the stripe count", i))
	}
	type call struct{ prompt, want string }
	var calls []call
	for i, fr := range frags {
		for j, src := range srcs {
			// The answer the parent computed: both texts embedded afresh.
			sim := embed.Cosine(embed.Embed(fr), embed.Embed(src))
			ref, err := (&SimLLM{}).Complete(Prompt(GPT4oMini, filterPrompt(fr, fmt.Sprintf("k%d", j), src)))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(ref.Content, fmt.Sprintf("(similarity %.2f)", sim)) {
				t.Fatalf("fragment %d source %d: %q does not carry similarity %.2f", i, j, ref.Content, sim)
			}
			calls = append(calls, call{filterPrompt(fr, fmt.Sprintf("k%d", j), src), ref.Content})
		}
	}
	s := NewSim()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range calls {
				c := calls[(k*(2*g+1)+g)%len(calls)]
				resp, err := s.Complete(Prompt(GPT4oMini, c.prompt))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Content != c.want {
					t.Errorf("goroutine %d: %q, want %q", g, resp.Content, c.want)
					return
				}
			}
		}(g)
	}
	// Overwrite slots while the filters run: more texts than slots.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tableSlots+tableSlots/2; i++ {
				text := fmt.Sprintf("churn g%d i%d", g, i)
				if s.embed(text) != embed.Embed(text) {
					t.Errorf("churn text %q: vector differs from embed.Embed", text)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFilterAllocFence: a filter call whose texts are in the table
// allocates only its answer, and a first draw builds no generator.
func TestFilterAllocFence(t *testing.T) {
	s := NewSim()
	spec, _ := LookupModel(GPT4oMini)
	facts := ExtractFacts(filterPrompt(frags0, "k", srcs0))
	rng := rand.New(rand.NewSource(1))
	s.filter(facts, spec, rng)
	// fmt.Sprintf: the boxed similarity and the answer string.
	if got := testing.AllocsPerRun(100, func() { s.filter(facts, spec, rng) }); got > 2 {
		t.Errorf("a warm filter call allocates %.0f times, want at most 2", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		l := lazySource{sim: s, model: GPT4oMini, prompt: srcs0}
		l.Uint64()
		if l.src != nil {
			t.Fatal("the first draw built a generator")
		}
	}); got != 0 {
		t.Errorf("a first draw allocates %.0f times, want 0", got)
	}
}

const (
	frags0 = "90% of write requests transfer fewer than 1 MB, which classifies them as small writes."
	srcs0  = "small write requests under 1 MB amplify latency; aggregate small writes into larger transfer size buffers"
)
