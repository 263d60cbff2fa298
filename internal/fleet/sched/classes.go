package sched

import (
	"fmt"
	"sort"
	"time"
)

// Class is one SLO service class: the DRR weight its tenants dequeue
// at, and the queue-age target admission control enforces (zero means
// no admission target — weight-only classes are legal).
type Class struct {
	// Weight is the DRR quantum: over a busy interval a tenant's share
	// of dequeues converges to Weight / Σ active weights.
	Weight int `json:"weight"`
	// MaxQueueAge is the admission target: with Config.Admission on, a
	// submission whose projected queue age exceeds it is refused with
	// ErrSLOExceeded instead of admitted to rot.
	MaxQueueAge time.Duration `json:"max_queue_age_ns"`
}

// BuiltinClasses returns the standard gold/silver/bronze ladder:
// gold is 8x bronze's dequeue weight with a 2s queue-age target,
// silver 4x with 10s, bronze 1x with 60s. The map is fresh per call —
// callers may extend it before handing it to Config.ClassDefs.
func BuiltinClasses() map[string]Class {
	return map[string]Class{
		"gold":   {Weight: 8, MaxQueueAge: 2 * time.Second},
		"silver": {Weight: 4, MaxQueueAge: 10 * time.Second},
		"bronze": {Weight: 1, MaxQueueAge: 60 * time.Second},
	}
}

// SetTenantClass assigns (or with class "", clears) a tenant's SLO
// class at runtime. Unknown class names are rejected so a typo cannot
// silently demote a tenant to the default weight.
func (s *Scheduler[T]) SetTenantClass(tenant, class string) error {
	if tenant == "" {
		return fmt.Errorf("sched: empty tenant")
	}
	if class != "" {
		if _, ok := s.cfg.ClassDefs[class]; !ok {
			return fmt.Errorf("sched: unknown SLO class %q (have %v)", class, s.classNames())
		}
	}
	s.mu.Lock()
	if class == "" {
		delete(s.classes, tenant)
	} else {
		s.classes[tenant] = class
	}
	s.mu.Unlock()
	return nil
}

// TenantClasses returns the current tenant→class assignments (a copy).
func (s *Scheduler[T]) TenantClasses() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.classes))
	for t, c := range s.classes {
		out[t] = c
	}
	return out
}

// ClassDefs returns the scheduler's class definitions (a copy).
func (s *Scheduler[T]) ClassDefs() map[string]Class {
	out := make(map[string]Class, len(s.cfg.ClassDefs))
	for name, c := range s.cfg.ClassDefs {
		out[name] = c
	}
	return out
}

// Admission reports whether SLO admission control is enabled.
func (s *Scheduler[T]) Admission() bool { return s.cfg.Admission }

func (s *Scheduler[T]) classNames() []string {
	names := make([]string, 0, len(s.cfg.ClassDefs))
	for name := range s.cfg.ClassDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// classDefLocked resolves a tenant's class definition. Caller holds
// s.mu.
func (s *Scheduler[T]) classDefLocked(tenant string) (Class, bool) {
	name, ok := s.classes[tenant]
	if !ok {
		return Class{}, false
	}
	cls, ok := s.cfg.ClassDefs[name]
	return cls, ok
}

// weightOfLocked resolves a tenant's effective DRR weight: an explicit
// Config.Weights entry wins, then the tenant's class weight, then
// DefaultWeight; never below 1. Caller holds s.mu.
func (s *Scheduler[T]) weightOfLocked(tenant string) int {
	w := 0
	if ew, ok := s.cfg.Weights[tenant]; ok {
		w = ew
	} else if cls, ok := s.classDefLocked(tenant); ok {
		w = cls.Weight
	} else {
		w = s.cfg.DefaultWeight
	}
	if w < 1 {
		w = 1
	}
	return w
}
