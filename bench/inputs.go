package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/fleet"
	"ioagent/internal/scenario"
	"ioagent/internal/tracebench"
)

// smallWire is the size rule of the buffered workloads: never-seen
// variants are made only of bases whose text rendering fits it. The text
// renderings of the five large TraceBench logs (0.7–2.4 MB) belong to
// stream_large, and their binary renderings cost milliseconds of gzip
// each to re-encode, which set-up cannot afford thousands of times.
const smallWire = 64 << 10

// base is one named trace of a committed corpus (TraceBench or the
// scenario matrix) in every rendering the harness submits. Bases do not
// depend on the seed; variants, order and chunk sizes do.
type base struct {
	name     string
	modality string       // "darshan" or "dxt"
	log      *darshan.Log // what the renderings decode to
	trace    *dxt.Trace   // dxt modality only
	bin      []byte       // binary rendering (darshan modality only)
	text     []byte       // darshan-parser text, or DXT text
	scenario *scenario.Scenario
}

type submitMode int

const (
	buffered submitMode = iota // POST /v1/jobs
	streamed                   // SubmitStream: one chunked POST
	chunked                    // SubmitChunked: open, PATCH×n, complete
)

// provenance is what a response must say about how it was served.
type provenance int

const (
	wantHit   provenance = iota // cache_hit: exact digest reuse (or coalesced onto one)
	wantFresh                   // neither flag: the pipeline ran
	wantNew                     // never seen: similarity_hit xor fresh, never cache_hit
)

// input is one submission. Text variants share their base's rendering
// and carry only the distinguishing line, so thousands of them cost no
// memory; the bytes are joined when the request is built.
type input struct {
	base   *base
	tag    string // variant tag; "" for the base itself
	wire   []byte // the rendering, or its shared prefix when suffix is set
	suffix []byte // trailing metadata line of a text variant
	jitter int64  // a DXT variant's nudges are drawn from this seed; 0 = none
	chunk  int    // SubmitChunked chunk size
	digest string // expected job digest; computed on first use
}

func (in *input) size() int { return len(in.wire) + len(in.suffix) }

func (in *input) bytes() []byte {
	if in.suffix == nil {
		return in.wire
	}
	out := make([]byte, 0, in.size())
	return append(append(out, in.wire...), in.suffix...)
}

func (in *input) name() string {
	if in.tag == "" {
		return in.base.name
	}
	return in.base.name + "+" + in.tag
}

// decoded rebuilds the log the input must parse to from the harness's
// own description of it, not from the wire bytes.
func (in *input) decoded() *darshan.Log {
	switch {
	case in.jitter != 0:
		return darshan.FromDXT(jittered(in.base.trace, in.jitter))
	case in.tag != "":
		return tagged(in.base.log, in.tag)
	}
	return in.base.log
}

// wantDigest is the job digest the fleet must echo: the pipeline options
// hashed over the harness's own darshan.ContentDigest of the trace.
func (in *input) wantDigest() (string, error) {
	if in.digest == "" {
		d, err := fleet.Digest(agentOptions, in.decoded())
		if err != nil {
			return "", fmt.Errorf("%s: %w", in.name(), err)
		}
		in.digest = d
	}
	return in.digest, nil
}

const variantKey = "bench_variant"

// tagged returns a copy of l carrying the variant tag as job metadata —
// a new content digest over an unchanged I/O profile.
func tagged(l *darshan.Log, tag string) *darshan.Log {
	c := l.ShallowClone()
	c.Job.Metadata = make(map[string]string, len(l.Job.Metadata)+1)
	for k, v := range l.Job.Metadata {
		c.Job.Metadata[k] = v
	}
	c.Job.Metadata[variantKey] = tag
	return c
}

// gen derives a workload's inputs from the seed. Tags embed workload and
// seed, so no two (workload, seed) pairs share a variant digest.
type gen struct {
	workload string
	seed     int64
	rng      *rand.Rand
	serial   int
}

func newGen(workload string, seed int64) *gen {
	// Mix the workload name in so workloads draw different streams.
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return &gen{workload: workload, seed: seed, rng: rand.New(rand.NewSource(seed ^ h<<17))}
}

func (g *gen) nextTag() string {
	g.serial++
	return fmt.Sprintf("%s-s%d-%06d", g.workload, g.seed, g.serial)
}

func (g *gen) shuffled(bases []*base) []*base {
	out := append([]*base(nil), bases...)
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// textVariant appends a metadata line to the base's parser text.
func (g *gen) textVariant(b *base) *input {
	tag := g.nextTag()
	return &input{base: b, tag: tag, wire: b.text,
		suffix: []byte(fmt.Sprintf("# metadata: %s = %s\n", variantKey, tag))}
}

// binVariant encodes the tagged log in the binary rendering.
func (g *gen) binVariant(b *base) (*input, error) {
	tag := g.nextTag()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, tagged(b.log, tag)); err != nil {
		return nil, fmt.Errorf("encode %s: %w", b.name, err)
	}
	return &input{base: b, tag: tag, wire: buf.Bytes()}, nil
}

// dxtVariant nudges every event by its own small multiple of 2 µs (the
// text precision is 1 µs; comments do not survive canonicalization, so a
// metadata line would not change the digest). Durations are preserved
// and the profile is unchanged; 16 choices per event make a repeated
// pattern impossible in practice, and a repeat would surface as an
// unexpected cache hit. Only the seed of the nudges is kept: the event
// stream is rebuilt from it when the expected digest is worked out.
func (g *gen) dxtVariant(b *base) *input {
	seed := g.rng.Int63() | 1
	return &input{base: b, tag: g.nextTag(), jitter: seed, wire: []byte(dxt.TextString(jittered(b.trace, seed)))}
}

func jittered(t *dxt.Trace, seed int64) *dxt.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := &dxt.Trace{NProcs: t.NProcs, Events: append([]dxt.Event(nil), t.Events...)}
	for i := range out.Events {
		d := float64(1+rng.Intn(16)) * 2e-6
		out.Events[i].Start += d
		out.Events[i].End += d
	}
	return out
}

// fitsSmall reports whether variants of b stay within smallWire.
func fitsSmall(b *base) bool {
	const tagLine = 96 // the metadata line a tag adds
	return len(b.text)+tagLine <= smallWire
}

// smallVariant is a never-seen variant of a base that fitsSmall: DXT
// bases jitter; counter logs render as parser text or as binary.
func (g *gen) smallVariant(b *base, asText bool) (*input, error) {
	switch {
	case b.modality == "dxt":
		return g.dxtVariant(b), nil
	case asText:
		return g.textVariant(b), nil
	}
	return g.binVariant(b)
}

// The base corpora are rendered once per process: they do not depend on
// the seed and nothing mutates them afterwards (variants and encoders
// work on shallow clones), so repeated set-ups share them.
var (
	traceBenchBases = sync.OnceValues(renderTraceBench)
	scenarioBases   = sync.OnceValues(renderScenarios)
)

// renderTraceBench renders TraceBench's 40 labeled logs.
func renderTraceBench() ([]*base, error) {
	var out []*base
	for _, tr := range tracebench.Suite() {
		b, err := darshanBase(tr.Name, tr.Log())
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func darshanBase(name string, l *darshan.Log) (*base, error) {
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, l.ShallowClone()); err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	text, err := darshan.TextString(l)
	if err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	return &base{name: name, modality: "darshan", log: l, bin: buf.Bytes(), text: []byte(text)}, nil
}

// renderScenarios renders the scored scenario matrix; every base keeps
// its scenario so set-up can score the diagnosis against the committed
// baseline.
func renderScenarios() ([]*base, error) {
	var out []*base
	for _, sc := range scenario.Matrix() {
		wire, l := sc.Build()
		var b *base
		if sc.Modality == "dxt" {
			b = &base{name: sc.Name, modality: "dxt", log: l, trace: l.DXT, text: wire}
		} else {
			var err error
			if b, err = darshanBase(sc.Name, l); err != nil {
				return nil, err
			}
		}
		b.scenario = &sc
		out = append(out, b)
	}
	return out, nil
}
