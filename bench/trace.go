//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one traced interval of the generator's own calls into member and
// transport. Times are ns since the run origin; Parent is 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

const spanSampling = 16 // one delivery root in this many multicasts

// spanLog keeps the traced pass's spans in memory until the run ends.
// Roots: "delivery" (children member.SendData and one wait.daemon_and_wire
// per receiver), "join" (transport.Mux.Open, member.JoinOpts,
// member.WaitReady) and "rekey_converge" (member.Leave, and one rekey.recv
// mark per member). Joins and rekeys are all kept; deliveries are sampled.
type spanLog struct {
	mu       sync.Mutex
	salt     uint32
	spans    []span
	delivery map[uint64]*deliveryRoot
	rekey    map[int]int // group -> index of its open rekey_converge root
}

type deliveryRoot struct {
	idx     int // of the root in spans
	sendEnd int64
}

func newSpanLog(salt uint32) *spanLog {
	return &spanLog{salt: salt, delivery: make(map[uint64]*deliveryRoot), rekey: make(map[int]int)}
}

// sampled picks the seeded 1-in-16 subset of multicasts that get a root.
func (l *spanLog) sampled(group, seq int) bool {
	h := (uint32(group)*2654435761 ^ uint32(seq)*40503 ^ l.salt) * 2246822519
	return (h>>16)%spanSampling == 0
}

func (l *spanLog) addLocked(name string, parent uint64, start, end int64) uint64 {
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (l *spanLog) add(name string, parent uint64, start, end int64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addLocked(name, parent, start, end)
}

// mark records an instant under parent; without a parent it is dropped.
func (l *spanLog) mark(name string, parent uint64, at int64) {
	if parent != 0 {
		l.add(name, parent, at, at)
	}
}

func deliveryKey(group, seq int) uint64 { return uint64(group)<<32 | uint64(uint32(seq)) }

// deliveryBegin opens a delivery root at its intended send time, before the
// send, so that a receipt can never find it missing.
func (l *spanLog) deliveryBegin(group, seq int, due int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked("delivery", 0, due, due)
	l.delivery[deliveryKey(group, seq)] = &deliveryRoot{idx: len(l.spans) - 1}
}

func (l *spanLog) deliverySent(group, seq int, t1, t2 int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.delivery[deliveryKey(group, seq)]
	d.sendEnd = t2
	root := &l.spans[d.idx]
	l.addLocked("member.SendData", root.ID, t1, t2)
	if l.spans[d.idx].End < t2 {
		l.spans[d.idx].End = t2
	}
}

// deliveryRecv records the remainder of one receiver's delivery: from the
// end of SendData to Member.Next returning the payload.
func (l *spanLog) deliveryRecv(group, seq int, now int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.delivery[deliveryKey(group, seq)]
	if d == nil {
		return
	}
	start := d.sendEnd
	if start == 0 || start > now {
		start = now // received before SendData returned
	}
	l.addLocked("wait.daemon_and_wire", l.spans[d.idx].ID, start, now)
	if l.spans[d.idx].End < now {
		l.spans[d.idx].End = now
	}
}

func (l *spanLog) openRekey(group int, start int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked("rekey_converge", 0, start, start)
	l.rekey[group] = len(l.spans) - 1
}

// rekeyRoot returns the ID of the group's open rekey_converge root, or 0.
func (l *spanLog) rekeyRoot(group int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.rekey[group]; ok {
		return l.spans[i].ID
	}
	return 0
}

func (l *spanLog) closeRekey(group int, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.rekey[group]; ok {
		l.spans[i].End = end
		delete(l.rekey, group)
	}
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize computes, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its children cover.
func summarize(spans []span) map[string]spanSummary {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e6
		out[s.Name] = sum
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, v := range iv {
		s, e := max(v[0], at), min(v[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// writeTrace writes the spans and their summary to out/trace-<workload>.json
// beside the benchmark's sources.
func writeTrace(workload string, seed int64, env environment, l *spanLog) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Env      environment            `json:"env"`
		Sampling int                    `json:"delivery_sampling"`
		Summary  map[string]spanSummary `json:"summary"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, env, spanSampling, summarize(l.spans), l.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
