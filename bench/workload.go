//go:build linux

package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// workload is one frozen traffic shape. Nothing here is tuned per run: the
// rates were calibrated once on the 2-core reference box (see README.md)
// so that daemon and generator each sit at 0.3-0.6 of a core in the paced
// phase where the shape allows it, and are constants since.
type workload struct {
	Name    string
	Why     string
	Groups  int
	Members int // per group
	Payload int // multicast payload bytes
	LKH     bool
	Senders int     // members 0..Senders-1 of each group multicast
	Rate    float64 // paced multicasts/s over the whole workload

	// Churn in the paced phase. The last member of each group is its
	// churner: it is never a sender and never an expected receiver.
	// ChurnPeriod > 0: every group's churner cycles leave -> rejoin on this
	// period, groups staggered by seed. ChurnPause > 0 (churn_lkh): one
	// serial loop, leave -> converge -> pause -> rejoin -> converge -> pause.
	ChurnPeriod time.Duration
	ChurnPause  time.Duration

	// Shares of the measured window. Paced: open loop, latency from the
	// intended send time. Sat: closed loop, one multicast outstanding per
	// group. Member: serial leave/rejoin cycles on a quiet daemon, for the
	// workloads whose paced phase has no churn, so that every workload
	// reports join and rekey-convergence figures.
	PacedShare, SatShare, MemberShare float64
}

func (w workload) churns() bool { return w.ChurnPeriod > 0 || w.ChurnPause > 0 }

func (w workload) sessions() int { return w.Groups * w.Members }

var workloads = []workload{
	{
		Name:   "tenants_small",
		Why:    "128 groups x 4 members, 32 B: per-message cost (wire, queue, mux, directory, wake-ups) dominates; crypto bytes and fan-out do almost nothing",
		Groups: 128, Members: 4, Payload: 32, Senders: 4, Rate: 4000,
		PacedShare: 0.55, SatShare: 0.25, MemberShare: 0.20,
	},
	{
		Name:   "fanout_bulk",
		Why:    "1 group x 256 members, 4 KiB, 8 senders: per-byte cost and 255-way fan-out dominate (seal/open, encode-once, fan-out pool, writer batching); bypass partner of tenants_small",
		Groups: 1, Members: 256, Payload: 4096, Senders: 8, Rate: 40,
		PacedShare: 0.55, SatShare: 0.25, MemberShare: 0.20,
	},
	{
		Name:   "churn_flat",
		Why:    "32 groups x 16 members, flat rekey on join+leave, one churner per group on a 200 ms period beside 15 multicasts/s/group: control plane through the same per-member writer as data",
		Groups: 32, Members: 16, Payload: 128, Senders: 15, Rate: 480,
		ChurnPeriod: 200 * time.Millisecond,
		PacedShare:  0.75, SatShare: 0.25,
	},
	{
		Name:   "churn_lkh",
		Why:    "1 group x 512 members, daemon -lkh, serial leave/rejoin beside 20 multicasts/s: the same membership operations through the O(log n) rekey path; pairs with churn_flat",
		Groups: 1, Members: 512, Payload: 128, LKH: true, Senders: 4, Rate: 20,
		ChurnPause: 100 * time.Millisecond,
		PacedShare: 0.75, SatShare: 0.25,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sendEvent is one scheduled multicast of the paced phase.
type sendEvent struct {
	At     time.Duration // intended send time, from the start of the phase
	Group  uint16
	Sender uint16
}

// schedule is everything --seed decides: the paced send times (Poisson
// arrivals of a fixed count), who sends, the payload filler, and each
// group's churn stagger.
// The daemon only ever sees the traffic generated from it.
type schedule struct {
	Sends   []sendEvent
	Filler  []byte          // payload bytes are a window into this block
	Stagger []time.Duration // per group, offset of its first churn cycle
	Tag     uint32          // folded into every payload checksum
}

const fillerSlack = 256 // payload windows start at offsets 0..fillerSlack-1

// buildSchedule lays out rounds paced phases of the given length back to
// back. Each round gets the same number of sends, rate x length, at times
// drawn uniformly within it: a Poisson process conditioned on its count, so
// arrivals are as bursty as Poisson ones while the offered load is the same
// in every round and for every seed.
func buildSchedule(w workload, seed int64, rounds int, paced time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	s := schedule{
		Filler:  make([]byte, w.Payload+fillerSlack),
		Stagger: make([]time.Duration, w.Groups),
		Tag:     rng.Uint32(),
	}
	rng.Read(s.Filler)
	for g := range s.Stagger {
		if w.ChurnPeriod > 0 {
			s.Stagger[g] = time.Duration(rng.Int63n(int64(w.ChurnPeriod)))
		}
	}
	perRound := int(w.Rate*paced.Seconds() + 0.5)
	at := make([]time.Duration, perRound)
	for k := 0; k < rounds && perRound > 0; k++ {
		for i := range at {
			at[i] = time.Duration(k)*paced + time.Duration(rng.Int63n(int64(paced)))
		}
		sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
		for _, t := range at {
			s.Sends = append(s.Sends, sendEvent{
				At:     t,
				Group:  uint16(rng.Intn(w.Groups)),
				Sender: uint16(rng.Intn(w.Senders)),
			})
		}
	}
	return s
}

// bytes serialises the schedule, for the self-test that equal seeds give
// identical inputs.
func (s schedule) bytes() []byte {
	out := binary.BigEndian.AppendUint32(nil, s.Tag)
	out = append(out, s.Filler...)
	for _, d := range s.Stagger {
		out = binary.BigEndian.AppendUint64(out, uint64(d))
	}
	for _, e := range s.Sends {
		out = binary.BigEndian.AppendUint64(out, uint64(e.At))
		out = binary.BigEndian.AppendUint16(out, e.Group)
		out = binary.BigEndian.AppendUint16(out, e.Sender)
	}
	return out
}

func groupID(g int) string { return fmt.Sprintf("g%d", g) }
func userID(m int) string  { return fmt.Sprintf("m%d", m) }
