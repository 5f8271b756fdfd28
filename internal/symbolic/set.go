package symbolic

import (
	"sort"
	"strings"
)

// Set is a finite set of fields keyed by canonical encoding.
type Set struct {
	m map[string]*Field
}

// NewSet returns a set containing the given fields.
func NewSet(fields ...*Field) Set {
	s := Set{m: make(map[string]*Field, len(fields))}
	for _, f := range fields {
		s.m[f.canon] = f
	}
	return s
}

// Add inserts f and reports whether it was newly added.
func (s Set) Add(f *Field) bool {
	if _, ok := s.m[f.canon]; ok {
		return false
	}
	s.m[f.canon] = f
	return true
}

// Contains reports membership.
func (s Set) Contains(f *Field) bool {
	_, ok := s.m[f.canon]
	return ok
}

// Len returns the number of elements.
func (s Set) Len() int { return len(s.m) }

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{m: make(map[string]*Field, len(s.m))}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

// Fields returns the elements in canonical order.
func (s Set) Fields() []*Field {
	out := make([]*Field, 0, len(s.m))
	for _, v := range s.m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].canon < out[j].canon })
	return out
}

// Each calls fn for every element in unspecified order; if fn returns false
// iteration stops early.
func (s Set) Each(fn func(*Field) bool) {
	for _, v := range s.m {
		if !fn(v) {
			return
		}
	}
}

// Subset reports whether every element of s is in t.
func (s Set) Subset(t Set) bool {
	for k := range s.m {
		if _, ok := t.m[k]; !ok {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same fields.
func (s Set) Equal(t Set) bool {
	return len(s.m) == len(t.m) && s.Subset(t)
}

// String renders the set in canonical order.
func (s Set) String() string {
	fields := s.Fields()
	strs := make([]string, len(fields))
	for i, f := range fields {
		strs[i] = f.String()
	}
	return "{" + strings.Join(strs, "; ") + "}"
}
