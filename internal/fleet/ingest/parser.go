package ingest

import (
	"bytes"
	"errors"
	"fmt"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
)

// ErrTooLarge marks a trace that exceeded the parser's byte bound. The
// serving layer maps it onto api.CodeTraceTooLarge.
var ErrTooLarge = errors.New("ingest: trace exceeds the configured size limit")

// maxLineLen bounds one text line (matching ParseText's scanner buffer),
// so a newline-free garbage stream cannot grow the carry buffer without
// bound.
const maxLineLen = 16 << 20

// Stats is a point-in-time view of a Parser's progress, safe to report
// mid-stream (upload-session status, time-to-first-parse benchmarks).
type Stats struct {
	// Bytes is the total input consumed so far.
	Bytes int64
	// Lines is the number of complete text lines parsed so far (zero in
	// binary mode, where decoding happens at Finish).
	Lines int64
	// Modules is the number of distinct modules pre-parsed so far (zero
	// in binary mode until Finish).
	Modules int
	// Binary reports the sniffed rendering; meaningful once Decided.
	Binary bool
	// DXT reports that the sniffed rendering is a DXT per-operation text
	// trace (dxt.TextMagic); meaningful once Decided.
	DXT bool
	// Decided reports whether enough bytes arrived to sniff the
	// rendering (at most len(dxt.TextMagic) are held).
	Decided bool
}

// Parser decodes one trace incrementally from arbitrarily chunked
// writes. The rendering is sniffed from the first few bytes: the gzip
// magic selects the binary codec (which must buffer — the container only
// decodes whole); the dxt.TextMagic prefix selects the line-oriented DXT
// per-operation parser; anything else streams through the line-oriented
// darshan-parser text parser. Both text modes start pre-processing
// before the body has finished arriving.
//
// Write any number of times, then Finish exactly once. A Parser is not
// safe for concurrent use; upload sessions serialize access to theirs.
type Parser struct {
	maxBytes int64

	n       int64
	sniff   []byte // first bytes held until the rendering is decided
	decided bool
	binary  bool
	dxtMode bool

	lp    *darshan.LineParser
	dlp   *dxt.TextParser
	carry []byte // trailing partial text line awaiting its newline

	bin []byte // binary mode: the whole (bounded) body

	err error // sticky: first failure poisons the parser
}

// NewParser returns a parser that refuses inputs over maxBytes
// (ErrTooLarge); maxBytes <= 0 means unbounded.
func NewParser(maxBytes int64) *Parser {
	return &Parser{maxBytes: maxBytes}
}

// Decode is the whole-input front door: one complete trace in any of
// the three renderings in, the decoded log and its canonical content
// digest out — exactly what a Parser fed the same bytes in any chunking
// returns. It borrows trace instead of copying it (a binary body decodes
// straight from the caller's slice), so a hop that already holds the
// bounded body pays no second buffer.
func Decode(trace []byte) (*darshan.Log, string, error) {
	p := &Parser{n: int64(len(trace)), sniff: trace}
	if p.decide() {
		p.sniff = nil
		if p.binary {
			p.bin = trace
		} else if err := p.feed(trace); err != nil {
			return nil, "", err
		}
	}
	return p.Finish()
}

// Write consumes the next chunk. It implements io.Writer, so a Parser
// drops into io.Copy, io.TeeReader, and io.MultiWriter pipelines. A
// parse error surfaces immediately — mid-body — letting a server abort
// a doomed upload without reading the rest.
func (p *Parser) Write(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.maxBytes > 0 && p.n+int64(len(b)) > p.maxBytes {
		p.err = ErrTooLarge
		return 0, p.err
	}
	p.n += int64(len(b))

	if !p.decided {
		p.sniff = append(p.sniff, b...)
		if !p.decide() {
			return len(b), nil // cannot sniff yet; hold and wait
		}
		held := p.sniff
		p.sniff = nil
		if err := p.feed(held); err != nil {
			p.err = err
			return 0, err
		}
		return len(b), nil
	}
	if err := p.feed(b); err != nil {
		p.err = err
		return 0, err
	}
	return len(b), nil
}

// decide sniffs the rendering from the held bytes, returning false while
// more bytes are needed. Two bytes settle binary-vs-text; the DXT text
// rendering is only distinguishable from darshan-parser text once the
// held bytes diverge from (or complete) the dxt.TextMagic prefix.
func (p *Parser) decide() bool {
	magic := []byte(dxt.TextMagic)
	if len(p.sniff) >= 2 && p.sniff[0] == 0x1f && p.sniff[1] == 0x8b { // gzip magic
		p.decided, p.binary = true, true
		return true
	}
	if len(p.sniff) < 2 {
		return false
	}
	switch {
	case bytes.HasPrefix(p.sniff, magic):
		p.decided, p.dxtMode = true, true
		p.dlp = dxt.NewTextParser()
	case bytes.HasPrefix(magic, p.sniff):
		return false // still a prefix of the DXT magic; hold and wait
	default:
		p.decided = true
		p.lp = darshan.NewLineParser()
	}
	return true
}

func (p *Parser) feed(b []byte) error {
	if p.binary {
		p.bin = append(p.bin, b...)
		return nil
	}
	data := b
	if len(p.carry) > 0 {
		p.carry = append(p.carry, b...)
		data = p.carry
	}
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		// ParseLine trims whitespace, so a trailing \r (CRLF input) is
		// handled there.
		if err := p.parseLine(string(data[:i])); err != nil {
			return err
		}
		data = data[i+1:]
	}
	if len(data) > maxLineLen {
		return fmt.Errorf("ingest: text line exceeds %d bytes", maxLineLen)
	}
	// data may alias p.carry's backing array; append-to-truncated is a
	// left-moving copy, which is safe for overlapping slices.
	p.carry = append(p.carry[:0], data...)
	return nil
}

// parseLine routes one complete line to the active text-mode parser.
func (p *Parser) parseLine(line string) error {
	if p.dxtMode {
		return p.dlp.ParseLine(line)
	}
	return p.lp.ParseLine(line)
}

// Stats reports progress so far.
func (p *Parser) Stats() Stats {
	s := Stats{Bytes: p.n, Binary: p.binary, DXT: p.dxtMode, Decided: p.decided}
	if p.lp != nil {
		s.Lines = int64(p.lp.Lines())
		s.Modules = len(p.lp.Log().ModuleList())
	}
	if p.dlp != nil {
		s.Lines = int64(p.dlp.Lines())
	}
	return s
}

// Finish flushes any trailing partial line, decodes a buffered binary
// body, and returns the decoded log together with its canonical content
// digest. A trace with no module data is an error — it would only become
// a doomed job downstream.
func (p *Parser) Finish() (*darshan.Log, string, error) {
	if p.err != nil {
		return nil, "", p.err
	}
	var log *darshan.Log
	var digest string // set by the rendering that digests as it decodes
	switch {
	case !p.decided:
		// Fewer than two bytes total: trivially not a trace, but run the
		// held bytes through the text path so the error is the uniform
		// "no module data" below rather than a special case.
		lp := darshan.NewLineParser()
		if len(p.sniff) > 0 {
			if err := lp.ParseLine(string(p.sniff)); err != nil {
				p.err = err
				return nil, "", err
			}
		}
		log = lp.Log()
	case p.binary:
		var err error
		log, err = darshan.Decode(bytes.NewReader(p.bin))
		if err != nil {
			p.err = err
			return nil, "", err
		}
	case p.dxtMode:
		if len(p.carry) > 0 {
			if err := p.dlp.ParseLine(string(p.carry)); err != nil {
				p.err = err
				return nil, "", err
			}
			p.carry = nil
		}
		// The counter log is derived from the event stream and digested
		// in the same step: this hop made the log, so it need not derive
		// it a second time to trust it. An event stream naming no known
		// module derives no modules and falls into the uniform "no
		// module data" rejection below.
		var err error
		if log, digest, err = darshan.FromDXTDigest(p.dlp.Trace()); err != nil {
			p.err = err
			return nil, "", err
		}
	default:
		if len(p.carry) > 0 {
			if err := p.lp.ParseLine(string(p.carry)); err != nil {
				p.err = err
				return nil, "", err
			}
			p.carry = nil
		}
		log = p.lp.Log()
	}
	if len(log.ModuleList()) == 0 {
		p.err = fmt.Errorf("ingest: trace contains no module data")
		return nil, "", p.err
	}
	if digest == "" {
		var err error
		if digest, err = darshan.ContentDigest(log); err != nil {
			p.err = err
			return nil, "", err
		}
	}
	return log, digest, nil
}
