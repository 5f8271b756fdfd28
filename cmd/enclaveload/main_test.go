package main

import (
	"testing"
	"time"
)

// TestRunLoadSelfHost drives the whole load machine in-process: a self-hosted
// multi-tenant directory, G x M member sessions over real loopback TCP, full
// join/traffic/leave churn — and pins the acceptance invariants the CI smoke
// job asserts: zero errors and monotone epochs in every group.
func TestRunLoadSelfHost(t *testing.T) {
	cfg := loadConfig{
		Groups:    6,
		Members:   3,
		Conns:     12,
		Rate:      30,
		Payload:   64,
		Duration:  1500 * time.Millisecond,
		Churn:     400 * time.Millisecond,
		JoinBurst: 16,
		Password:  "bench",
		Logf:      t.Logf,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("errors = %d, samples: %v", rep.Errors, rep.ErrorSamples)
	}
	if rep.EpochRegressions > 0 {
		t.Fatalf("epoch regressions = %d", rep.EpochRegressions)
	}
	if rep.Sessions != cfg.Groups*cfg.Members {
		t.Fatalf("sessions = %d, want %d", rep.Sessions, cfg.Groups*cfg.Members)
	}
	if rep.MsgsRecv == 0 {
		t.Fatal("no multicast traffic received during the window")
	}
	// Churn runs through the whole window, so the rekey counter must move.
	if rep.Rekeys == 0 {
		t.Fatal("churn produced no rekeys during the window")
	}
	if rep.Joins < uint64(cfg.Groups*cfg.Members) {
		t.Fatalf("joins = %d, want >= %d", rep.Joins, cfg.Groups*cfg.Members)
	}
	if rep.LatencySamples == 0 {
		t.Fatal("no latency samples collected")
	}
	if rep.GoroutinesPeak == 0 || rep.RSSMB == 0 {
		t.Fatalf("resource sampling missing: goroutines=%d rss=%.1f", rep.GoroutinesPeak, rep.RSSMB)
	}
}

// TestLoadConfigValidate pins flag validation for the generator.
func TestLoadConfigValidate(t *testing.T) {
	base := func() loadConfig {
		return loadConfig{Groups: 1, Members: 1, Conns: 1, Rate: 1, Payload: 64,
			Duration: time.Second, JoinBurst: 1}
	}
	ok := base()
	if err := ok.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	small := base()
	small.Payload = 1
	if err := small.validate(); err != nil || small.Payload != 8 {
		t.Fatalf("payload not clamped to timestamp size: %d, %v", small.Payload, err)
	}
	for name, mutate := range map[string]func(*loadConfig){
		"groups":     func(c *loadConfig) { c.Groups = 0 },
		"members":    func(c *loadConfig) { c.Members = 0 },
		"conns":      func(c *loadConfig) { c.Conns = 0 },
		"rate":       func(c *loadConfig) { c.Rate = -1 },
		"duration":   func(c *loadConfig) { c.Duration = 0 },
		"churn":      func(c *loadConfig) { c.Churn = -time.Second },
		"join-burst": func(c *loadConfig) { c.JoinBurst = 0 },
	} {
		c := base()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}
