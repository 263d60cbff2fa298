package darshan

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format compatible in structure with upstream darshan-parser output:
// a commented header followed by one line per counter:
//
//	<module> <rank> <record id> <counter> <value> <file name> <mount pt> <fs type>
//
// File names containing spaces are not supported by the upstream format and
// are rejected here as well.

// WriteText renders the log in darshan-parser text form.
func WriteText(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# darshan log version: %s\n", l.Version)
	fmt.Fprintf(bw, "# exe: %s\n", l.Job.Exe)
	fmt.Fprintf(bw, "# uid: %d\n", l.Job.UID)
	fmt.Fprintf(bw, "# jobid: %d\n", l.Job.JobID)
	fmt.Fprintf(bw, "# start_time: %d\n", l.Job.StartTime)
	fmt.Fprintf(bw, "# end_time: %d\n", l.Job.EndTime)
	fmt.Fprintf(bw, "# nprocs: %d\n", l.Job.NProcs)
	fmt.Fprintf(bw, "# run time: %.4f\n", l.Job.RunTime)
	for _, k := range sortedKeys(l.Job.Metadata) {
		fmt.Fprintf(bw, "# metadata: %s = %s\n", k, l.Job.Metadata[k])
	}
	for _, m := range l.Job.Mounts {
		fmt.Fprintf(bw, "# mount entry:\t%s\t%s\n", m.Point, m.FSType)
	}

	for _, m := range l.ModuleList() {
		md := l.Modules[m]
		md.SortRecords()
		fmt.Fprintf(bw, "\n# %s module data\n", m)
		fmt.Fprintf(bw, "#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\t<mount pt>\t<fs type>\n")
		for _, r := range md.Records {
			if strings.ContainsAny(r.Name, " \t") {
				return fmt.Errorf("darshan: file name %q contains whitespace", r.Name)
			}
			for _, name := range CounterNames(m) {
				v, ok := r.Counters[name]
				if !ok {
					continue
				}
				fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%s\t%s\t%s\n",
					m, r.Rank, r.RecordID, name, v, r.Name, r.MountPt, r.FSType)
			}
			for _, name := range FCounterNames(m) {
				v, ok := r.FCounters[name]
				if !ok {
					continue
				}
				fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
					m, r.Rank, r.RecordID, name, formatFloat(v), r.Name, r.MountPt, r.FSType)
			}
		}
	}
	return bw.Flush()
}

// TextString is a convenience wrapper around WriteText.
func TextString(l *Log) (string, error) {
	var sb strings.Builder
	if err := WriteText(&sb, l); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 6, 64)
}

// ParseText decodes darshan-parser text form back into a Log.
func ParseText(r io.Reader) (*Log, error) {
	lp := NewLineParser()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if err := lp.ParseLine(sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return lp.Log(), nil
}

// LineParser is the incremental core of ParseText: it consumes
// darshan-parser text one complete line at a time and accumulates the
// decoded Log as it goes. Callers that receive the text in arbitrary
// chunks (a streaming HTTP body, a resumable upload) split their input on
// newlines and feed each line here, so module and counter pre-processing
// starts before the full body has arrived. Feeding the same lines in the
// same order always yields the same Log as a whole-body ParseText.
type LineParser struct {
	log    *Log
	lineno int

	// A counter line names its record in its first three fields (module,
	// rank, record id). Consecutive lines of one record repeat them, so
	// a line whose three match the previous line's goes straight to last;
	// any other is looked up in index, which holds every record by what
	// its lines say.
	last    *FileRecord
	lastMod ModuleID
	lastKey [3]string
	index   map[recordKey]*FileRecord
	// sizes holds how many integer and float counters the record last
	// left had, per module: a renderer prints every record of a module
	// with the same set, so the next record's maps start at that size
	// instead of growing through every power of two.
	sizes [numModules][2]int
}

// recordKey is a record's identity as the text states it. The record id
// is taken as printed: upstream darshan-parser prints its own hash of the
// file name there, not this package's HashRecordID.
type recordKey struct {
	mod  ModuleID
	id   uint64
	rank int
}

// NewLineParser returns a parser accumulating into an empty Log.
func NewLineParser() *LineParser {
	return &LineParser{log: NewLog(), index: make(map[recordKey]*FileRecord)}
}

// ParseLine consumes one complete input line (without its trailing
// newline). Blank lines are skipped; errors name the 1-based line number.
func (lp *LineParser) ParseLine(raw string) error {
	lp.lineno++
	line := strings.TrimSpace(raw)
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		if err := parseHeaderLine(lp.log, line); err != nil {
			return fmt.Errorf("darshan: line %d: %w", lp.lineno, err)
		}
		return nil
	}
	if err := lp.parseCounterLine(line); err != nil {
		return fmt.Errorf("darshan: line %d: %w", lp.lineno, err)
	}
	return nil
}

// Lines returns the number of lines consumed so far (blank lines
// included).
func (lp *LineParser) Lines() int { return lp.lineno }

// Log returns the accumulated log. It is live: further ParseLine calls
// keep mutating it, so streaming callers may inspect it mid-parse (for
// progress reporting) but must stop feeding before handing it off.
func (lp *LineParser) Log() *Log { return lp.log }

func parseHeaderLine(l *Log, line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	if body == "" || strings.HasPrefix(body, "<module>") {
		return nil
	}
	key, val, found := strings.Cut(body, ":")
	if !found {
		return nil // free-form comment (e.g. "# POSIX module data")
	}
	val = strings.TrimSpace(val)
	var err error
	switch strings.TrimSpace(key) {
	case "darshan log version":
		l.Version = val
	case "exe":
		l.Job.Exe = val
	case "uid":
		l.Job.UID, err = strconv.Atoi(val)
	case "jobid":
		l.Job.JobID, err = strconv.ParseInt(val, 10, 64)
	case "start_time":
		l.Job.StartTime, err = strconv.ParseInt(val, 10, 64)
	case "end_time":
		l.Job.EndTime, err = strconv.ParseInt(val, 10, 64)
	case "nprocs":
		l.Job.NProcs, err = strconv.Atoi(val)
	case "run time":
		l.Job.RunTime, err = strconv.ParseFloat(val, 64)
	case "metadata":
		k, v, ok := strings.Cut(val, "=")
		if !ok {
			return fmt.Errorf("bad metadata entry %q", val)
		}
		l.Job.Metadata[strings.TrimSpace(k)] = strings.TrimSpace(v)
	case "mount entry":
		fields := strings.Fields(val)
		if len(fields) != 2 {
			return fmt.Errorf("bad mount entry %q", val)
		}
		l.Job.Mounts = append(l.Job.Mounts, Mount{Point: fields[0], FSType: fields[1]})
	}
	return err
}

func (lp *LineParser) parseCounterLine(line string) error {
	fields := strings.Fields(line)
	if len(fields) != 8 {
		return fmt.Errorf("expected 8 fields, got %d in %q", len(fields), line)
	}
	if key := [3]string(fields[:3]); lp.last == nil || key != lp.lastKey {
		if err := lp.seekRecord(fields); err != nil {
			return err
		}
		lp.lastKey = key
	}
	m, r, counter, valStr := lp.lastMod, lp.last, fields[3], fields[4]

	switch {
	case IsCounter(m, counter):
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bad integer value %q for %s", valStr, counter)
		}
		r.Counters[counter] = v
	case IsFCounter(m, counter):
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("bad float value %q for %s", valStr, counter)
		}
		r.FCounters[counter] = v
	default:
		return fmt.Errorf("unknown counter %q for module %s", counter, m)
	}
	return nil
}

// seekRecord makes the record a counter line names the current one,
// creating it on first sight.
func (lp *LineParser) seekRecord(fields []string) error {
	m, err := ParseModuleID(fields[0])
	if err != nil {
		return err
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("bad rank %q", fields[1])
	}
	recID, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return fmt.Errorf("bad record id %q", fields[2])
	}
	if lp.last != nil {
		lp.sizes[lp.lastMod] = [2]int{len(lp.last.Counters), len(lp.last.FCounters)}
	}
	key := recordKey{m, recID, rank}
	r := lp.index[key]
	if r == nil {
		r = &FileRecord{
			RecordID: recID, Rank: rank, // the id as printed, not a hash of the name
			Name: fields[5], MountPt: fields[6], FSType: fields[7],
			Counters:  make(map[string]int64, lp.sizes[m][0]),
			FCounters: make(map[string]float64, lp.sizes[m][1]),
		}
		md := lp.log.Module(m)
		md.Records = append(md.Records, r)
		lp.index[key] = r
	}
	lp.last, lp.lastMod = r, m
	return nil
}
