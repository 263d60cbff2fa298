package ioagent

import (
	"fmt"
	"sort"
	"strings"

	"ioagent/internal/darshan"
)

// ModuleCSV renders one module's records as a CSV table
// (file,rank,counter,value), the intermediate representation the paper's
// pre-processor writes per module before summary extraction.
func ModuleCSV(log *darshan.Log, m darshan.ModuleID) string {
	md, ok := log.Modules[m]
	if !ok || len(md.Records) == 0 {
		return ""
	}
	md.SortRecords()
	var b strings.Builder
	b.WriteString("file,rank,counter,value\n")
	for _, r := range md.Records {
		for _, name := range darshan.CounterNames(m) {
			if v, ok := r.Counters[name]; ok {
				fmt.Fprintf(&b, "%s,%d,%s,%d\n", r.Name, r.Rank, name, v)
			}
		}
		for _, name := range darshan.FCounterNames(m) {
			if v, ok := r.FCounters[name]; ok {
				fmt.Fprintf(&b, "%s,%d,%s,%.6f\n", r.Name, r.Rank, name, v)
			}
		}
	}
	return b.String()
}

// Fragment is one categorized JSON summary fragment (Table I cell).
type Fragment struct {
	Module   darshan.ModuleID
	Category string
	// Data holds the numeric derived metrics (keys from internal/llm's
	// derived-key vocabulary plus category-specific extras).
	Data map[string]float64
	// Strs holds string-valued fields (mount points etc.).
	Strs map[string]string
}

// JSON renders the fragment deterministically (sorted keys) with module and
// category first, matching the structure the describe/diagnose prompts use.
func (f *Fragment) JSON() string {
	var b strings.Builder
	b.WriteString("{")
	fmt.Fprintf(&b, "%q: %q, %q: %q", "module", f.Module.String(), "category", f.Category)

	skeys := make([]string, 0, len(f.Strs))
	for k := range f.Strs {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	for _, k := range skeys {
		fmt.Fprintf(&b, ", %q: %q", k, f.Strs[k])
	}

	nkeys := make([]string, 0, len(f.Data))
	for k := range f.Data {
		nkeys = append(nkeys, k)
	}
	sort.Strings(nkeys)
	for _, k := range nkeys {
		v := f.Data[k]
		if v == float64(int64(v)) {
			fmt.Fprintf(&b, ", %q: %d", k, int64(v))
		} else {
			fmt.Fprintf(&b, ", %q: %.4f", k, v)
		}
	}
	b.WriteString("}")
	return b.String()
}

// ID returns a stable fragment identifier like "POSIX/io_size".
func (f *Fragment) ID() string {
	return f.Module.String() + "/" + f.Category
}
