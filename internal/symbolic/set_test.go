package symbolic

import (
	"strings"
	"testing"
)

func TestSetBasicOps(t *testing.T) {
	s := NewSet(Agent("A"), Nonce(1))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(Agent("A")) || !s.Contains(Nonce(1)) {
		t.Error("Contains missing initial members")
	}
	if s.Contains(Nonce(2)) {
		t.Error("Contains reports absent member")
	}
	if !s.Add(Nonce(2)) {
		t.Error("Add of new element returned false")
	}
	if s.Add(Nonce(2)) {
		t.Error("Add of existing element returned true")
	}
}

func TestSetCloneIsIndependent(t *testing.T) {
	s := NewSet(Agent("A"))
	c := s.Clone()
	c.Add(Nonce(1))
	if s.Contains(Nonce(1)) {
		t.Error("Clone shares storage with original")
	}
	s.Add(Nonce(2))
	if c.Contains(Nonce(2)) {
		t.Error("original shares storage with clone")
	}
}

func TestSetSubsetEqual(t *testing.T) {
	s := NewSet(Agent("A"), Nonce(1))
	bigger := NewSet(Agent("A"), Nonce(1), Nonce(2))
	if !s.Subset(bigger) {
		t.Error("Subset false for genuine subset")
	}
	if bigger.Subset(s) {
		t.Error("Subset true for superset")
	}
	if s.Equal(bigger) {
		t.Error("Equal true for different sets")
	}
	if !s.Equal(NewSet(Nonce(1), Agent("A"))) {
		t.Error("Equal false for same sets in different order")
	}
}

func TestSetFieldsSorted(t *testing.T) {
	s := NewSet(Nonce(2), Agent("A"), Nonce(1))
	fields := s.Fields()
	for i := 1; i < len(fields); i++ {
		if fields[i-1].Canon() >= fields[i].Canon() {
			t.Fatalf("Fields not sorted: %v", fields)
		}
	}
}

func TestSetEachEarlyStop(t *testing.T) {
	s := NewSet(Nonce(1), Nonce(2), Nonce(3))
	count := 0
	s.Each(func(*Field) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("Each visited %d elements after early stop, want 1", count)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(Agent("A"), Nonce(1))
	str := s.String()
	if !strings.Contains(str, "A") || !strings.Contains(str, "N1") {
		t.Errorf("String = %q, missing members", str)
	}
}
