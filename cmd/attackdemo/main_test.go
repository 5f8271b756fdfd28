package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestAttackDemoRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if got := strings.Count(s, "ATTACK FOUND"); got != 4 {
		t.Errorf("legacy model traces = %d, want 4\n%s", got, s)
	}
	if got := strings.Count(s, "ATTACK FAILED"); got != 5 {
		t.Errorf("improved failures = %d, want 5\n%s", got, s)
	}
	if strings.Contains(s, "DISAGREES WITH PAPER") {
		t.Errorf("disagreement reported:\n%s", s)
	}
	if !strings.Contains(s, "All outcomes match the paper") {
		t.Error("missing summary line")
	}
}
