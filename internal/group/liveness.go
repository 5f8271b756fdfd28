package group

import (
	"errors"
	"time"

	"enclaves/internal/queue"
	"enclaves/internal/wire"
)

// Liveness configures the leader's failure detector. The paper's model
// assumes "messages can be lost or delayed" (Section 3.1) but the on-leave
// rekey — the forward-secrecy mechanism — only fires when the leader learns
// of a departure. A member that silently dies (crash, partition, half-open
// TCP) would otherwise stay in the membership forever with its last group
// key still considered live. This detector closes that hole: it probes idle
// members with authenticated heartbeats over the verified AdminMsg pipeline
// and expels any member that leaves an AdminMsg unacknowledged past its
// deadline, exactly like a voluntary leave (mem_removed + on-leave rekey).
//
// The zero value disables all liveness machinery, preserving the purely
// event-driven behavior the formal model describes.
type Liveness struct {
	// HeartbeatInterval is how long a member's admin pipeline may sit idle
	// before the leader probes it with a wire.Heartbeat admin message.
	// Because the probe rides the ack-gated pipeline under K_a, the ack is
	// an authenticated, fresh proof of liveness — an attacker who cannot
	// forge acks cannot keep a dead member looking alive. Zero disables
	// probing.
	HeartbeatInterval time.Duration
	// AckTimeout is the deadline for acknowledging an outstanding AdminMsg
	// (heartbeat or otherwise). A member that misses it is evicted: removed
	// from the membership, announced to the survivors, rekeyed per the
	// on-leave policy, and surfaced as an EventEvicted audit event. Zero
	// disables eviction.
	AckTimeout time.Duration
	// RetransmitInterval is how often the outstanding AdminMsg is resent
	// while unacknowledged, recovering from a dropped delivery (a duplicate
	// reaching the member is rejected by its nonce check without state
	// change, so retransmission is always safe). Zero defaults to
	// AckTimeout/4; negative disables retransmission.
	RetransmitInterval time.Duration
}

// enabled reports whether any liveness machinery is configured.
func (lv Liveness) enabled() bool {
	return lv.HeartbeatInterval > 0 || lv.AckTimeout > 0
}

// retransmitEvery resolves the effective retransmission interval.
func (lv Liveness) retransmitEvery() time.Duration {
	if lv.RetransmitInterval < 0 {
		return 0
	}
	if lv.RetransmitInterval == 0 {
		return lv.AckTimeout / 4
	}
	return lv.RetransmitInterval
}

// tickEvery picks the detector's polling granularity: a quarter of the
// tightest configured deadline, clamped to [1ms, 1s].
func (lv Liveness) tickEvery() time.Duration {
	tightest := time.Duration(0)
	for _, d := range []time.Duration{lv.HeartbeatInterval, lv.AckTimeout, lv.retransmitEvery()} {
		if d > 0 && (tightest == 0 || d < tightest) {
			tightest = d
		}
	}
	tick := tightest / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	return tick
}

// livenessTick performs one detector pass: evict deadline violators,
// retransmit the head of each unacked FIFO, probe idle members. Per-member
// bookkeeping runs under each member's own lock against a snapshot of the
// membership; evictions — which mutate the membership and broadcast — are
// collected and applied under the group lock afterwards.
func (g *Leader) livenessTick(now time.Time) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	// The probe sweep reads only the registry: a tick never blocks
	// joins, rekeys, or broadcasts, it just walks a snapshot.
	sessions := g.reg.appendAll(nil, "")

	lv := g.liveness
	var expired []*memberConn
	for _, s := range sessions {
		s.mu.Lock()
		switch {
		case len(s.unacked) > 0 && lv.AckTimeout > 0 && now.Sub(s.unacked[0].sentAt) > lv.AckTimeout:
			expired = append(expired, s)
		case len(s.unacked) > 0:
			if rt := lv.retransmitEvery(); rt > 0 && now.Sub(s.unacked[0].resentAt) >= rt {
				// Re-push the identical head envelope; a duplicate reaching
				// the member is re-acked by its nonce cache without state
				// change, so retransmission is always safe. The pacing stamp
				// advances only when the enqueue succeeds — a full outbox
				// retries next tick until the ack deadline decides. The
				// frame points at a copy: an ack zeroes the FIFO slot.
				env := s.unacked[0].env
				switch err := s.pushOut(outFrame{env: &env}); {
				case err == nil:
					s.unacked[0].resentAt = now
					mRetransmits.Inc()
				case !errors.Is(err, queue.ErrFull) && !errors.Is(err, queue.ErrClosed):
					g.logf("group: retransmit to %s: %v", s.user, err)
				}
			}
		case lv.HeartbeatInterval > 0 && now.Sub(s.lastAdmin) >= lv.HeartbeatInterval:
			if s.pushOut(outFrame{body: wire.Heartbeat{}}) == nil {
				s.lastAdmin = now
				mHeartbeats.Inc()
			}
		}
		s.mu.Unlock()
	}
	if len(expired) > 0 {
		g.mu.Lock()
		for _, s := range expired {
			g.evictLocked(s, "ack deadline exceeded")
		}
		g.mu.Unlock()
	}
}

// evictLocked expels a member the failure detector (ack deadline) or the
// slow-consumer policy (outbox overflow) has given up on. The group-level
// effect is identical to a voluntary leave — the announcement plus the
// on-leave rekey — so forward secrecy holds against dead members exactly as
// it does against departed ones.
func (g *Leader) evictLocked(s *memberConn, detail string) {
	if !g.reg.remove(s) {
		return // already gone (raced with leave/expel/another eviction)
	}
	mEvictions.Inc()
	g.dropLocked(s.conn, s)
	g.logf("group: evicted %s: %s", s.user, detail)
	g.departedLocked(s.user, changeEvicted, detail)
}
