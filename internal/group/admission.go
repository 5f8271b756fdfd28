package group

// Admission: how a connection becomes a member. The first frame selects the
// role — AuthInitReq opens the password join (Section 3.2), Resume the
// failover resumption sub-protocol (internal/core/resume.go), a sealed
// ReplState hello subscribes a standby — and both member routes end in the
// one admitLocked. The paper's leader keeps exactly one authoritative state
// per user (Fig. 3); admitting through a single function is what keeps the
// runtime's registry, key tree, replica stream and resumable table agreeing
// on it.

import (
	"enclaves/internal/core"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// ServeConn serves one already-accepted connection (Directory routes here)
// and returns: the connection's reader calls the leader with each frame
// (Conn.Consume), so a session holds no goroutine. The first frame picks
// the role; a member's later frames drive its session, a standby's are
// ignored (its stream is one-way), and the end of the stream is a leave.
func (g *Leader) ServeConn(conn transport.Conn) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		conn.Close()
		return errLeaderClosed
	}
	g.conns[conn] = true
	g.mu.Unlock()
	var s *memberConn
	opened, over := false, false
	conn.Consume(func(env wire.Envelope, ok bool) {
		if !g.running.enter() {
			return
		}
		defer g.running.leave()
		end := !ok
		switch {
		case over:
			return
		case end:
		case s != nil:
			end = g.handle(s, env)
		case !opened:
			opened = true
			s, end = g.open(conn, env)
		}
		if end {
			over = true
			g.mu.Lock()
			g.hangUpLocked(conn, s)
			g.mu.Unlock()
		}
	})
	return nil
}

// open starts the role the first frame names: a join's or a resumption's
// member session, or a standby's subscription; end reports a failure.
func (g *Leader) open(conn transport.Conn, first wire.Envelope) (s *memberConn, end bool) {
	switch first.Type {
	case wire.TypeAuthInitReq:
		s = g.joinHandshake(conn, first)
	case wire.TypeResume:
		s = g.resumeHandshake(conn, first)
	case wire.TypeReplState:
		return nil, !g.serveReplica(conn, first)
	default:
		g.logf("group: connection opened with %s, dropping", first.Type)
	}
	return s, s == nil
}

// newMemberConn wraps an authenticating connection and attaches its outbox;
// it is not a member until admitLocked registers it.
func (g *Leader) newMemberConn(conn transport.Conn, engine *core.LeaderSession) *memberConn {
	s := &memberConn{
		user:   engine.User(),
		conn:   conn,
		engine: engine,
		out:    queue.NewBounded[outFrame](g.outboxCap),
	}
	conn.Attach(func(buf []transport.Outgoing) []transport.Outgoing { return g.drain(s, buf) })
	return s
}

// joinHandshake answers the first message of the password join: the frame's
// (unauthenticated) sender name selects the long-term key, and the encrypted
// identities inside then authenticate the claim. The member's AuthAckKey —
// the handshake's third message — arrives like any other protocol frame,
// and handleProtocol admits on the engine's acceptance.
func (g *Leader) joinHandshake(conn transport.Conn, first wire.Envelope) *memberConn {
	g.mu.Lock()
	longTerm, known := g.users[first.Sender]
	g.mu.Unlock()
	if !known {
		g.logf("group: join from unknown user %q", first.Sender)
		return nil
	}
	engine, err := core.NewLeaderSession(g.name, first.Sender, longTerm)
	if err != nil {
		return nil
	}
	ev, err := engine.Handle(first)
	if err != nil {
		g.logf("group: auth of %q failed: %v", first.Sender, err)
		return nil
	}
	if err := conn.Send(*ev.Reply); err != nil {
		return nil
	}
	return g.newMemberConn(conn, engine)
}

// resumeHandshake runs the failover resumption sub-protocol: the member proves
// possession of its replicated session key and latest chained nonce, and is
// admitted with no password re-handshake. On any failure the connection
// drops and the member falls back to the full join.
func (g *Leader) resumeHandshake(conn transport.Conn, first wire.Envelope) *memberConn {
	user := first.Sender
	reject := func(detail string) *memberConn {
		g.logf("group: resume of %q rejected: %s", user, detail)
		mResumeRejected.Inc()
		mRejected.Inc()
		g.log.record(change{kind: changeRejected, user: user, epoch: g.Epoch(), detail: "resume: " + detail})
		return nil
	}

	g.mu.Lock()
	st, ok := g.resumable[user]
	longTerm, known := g.users[user]
	g.mu.Unlock()
	if !ok || !known {
		return reject("no resumable session")
	}
	engine, err := core.ResumeLeaderSession(g.name, user, longTerm, st)
	if err != nil {
		return reject(err.Error())
	}
	if _, err := engine.HandleResume(first); err != nil {
		// Authentication or freshness failure: the resumable entry stays, so
		// a replayed Resume cannot burn a member's one shot at resumption.
		return reject(err.Error())
	}

	// Claim the entry (one-shot: admitLocked consumes it, so a second resume
	// for the same user must re-handshake) and admit in the same critical
	// section, so no rekey can slip between the two.
	s := g.newMemberConn(conn, engine)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	_, claimed := g.resumable[user]
	if claimed {
		g.admitLocked(s, true)
	}
	g.mu.Unlock()
	if !claimed {
		return reject("session already resumed")
	}
	return s
}

// admitLocked makes an authenticated session the member's one live session:
// register it, inform the group, and bring it up to date. Both routes end
// here; resumed selects the only intended differences — the audit kind and
// counter, and how the key material travels. A password join gets keys per
// the rekey policy over the AdminMsg pipeline. A resumption gets the current
// keys inside the ResumeAck that completes its handshake and triggers no
// rotation: Promote already rotated once, and the member held the earlier
// keys legitimately. Caller holds g.mu.
//
//enclavelint:guardedby Leader.mu
func (g *Leader) admitLocked(s *memberConn, resumed bool) {
	// Whichever route admits the user, any replicated pre-promotion session
	// is superseded: left in place, a Resume frame an adversary withheld in
	// flight would still be fresh against its untouched nonce and, replayed,
	// would displace the live session.
	delete(g.resumable, s.user)
	if displaced := g.reg.insert(s); displaced != nil {
		// Out of the registry, neither the liveness sweep nor eviction would
		// ever reach the old session again; end it here.
		g.dropLocked(displaced.conn, displaced)
	} else {
		mMembers.Add(1)
		g.tm.memberDelta(1)
	}
	kind, counter, verb := changeJoined, mJoins, "joined"
	if resumed {
		kind, counter, verb = changeResumed, mResumes, "resumed"
	}
	counter.Inc()
	g.tm.joined()
	g.logf("group: %s %s (members: %d)", s.user, verb, g.reg.size())
	g.joinTreeLocked(s.user, resumed)
	// The engine state is read under s.mu but recorded after releasing it:
	// the log's mutex orders before memberConn.mu.
	s.mu.Lock()
	es, _ := s.engine.ExportState()
	s.mu.Unlock()
	g.log.record(change{kind: kind, user: s.user, epoch: g.epoch,
		repl: wire.ReplDeltaPayload{Session: es.SessionKey, Nonce: es.Nonce, Seq: es.Seq}})

	// Inform the rest of the group first, then bring the new member up to
	// date. Admin messages to each member are totally ordered by the
	// verified pipeline, so every member sees a consistent history. A
	// rotation skips the joiner, flat or LKH: its view comes from MemberList,
	// and its keys, its whole path under LKH, from the current keys sent
	// just below.
	g.announceLocked(wire.Joined(s.user), "join "+s.user, s.user, !resumed && g.rekey.OnJoin)
	// On a resumption this is the first body in the fresh outbox: the engine
	// seals it as the ResumeAck, and the rest queues behind the member's ack.
	g.sendCurrentKeysLocked(s)
	g.sendAdminLocked(s, wire.MemberList{Names: g.reg.names()}) // a set to the member: unsorted
}

// serveReplica authenticates a standby's subscription hello and attaches it
// to the replication sender with a snapshot of the current state, reporting
// whether it did. The snapshot is cut at a log position: it is built and
// the subscriber attached while holding both Leader.mu and the log's mutex,
// so every record up to the log's Seq is in the snapshot and every later
// one — a session sync recorded off Leader.mu included — queues behind it.
// Only the enqueue happens under the locks; the sender's writer goroutine
// seals and transmits.
func (g *Leader) serveReplica(conn transport.Conn, first wire.Envelope) bool {
	if g.repl == nil {
		g.logf("group: replication subscription without replication enabled, dropping")
		return false
	}
	standby, n0, err := g.repl.HandleHello(first)
	if err != nil {
		g.logf("group: %v", err)
		return false
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.log.mu.Lock()
	snap := g.snapshotLocked()
	g.repl.Attach(conn, standby, n0, snap)
	g.log.mu.Unlock()
	g.mu.Unlock()
	g.logf("group: standby %q subscribed (%d members)", standby, len(snap.Members))
	return true
}

// snapshotLocked captures the replicable group state in its wire form.
// Caller holds g.mu and g.log.mu; per-member engine state is read under
// each member's own lock (the permitted Leader.mu < changeLog.mu <
// memberConn.mu order).
func (g *Leader) snapshotLocked() wire.ReplStatePayload {
	st := wire.ReplStatePayload{
		Epoch:    g.epoch,
		GroupKey: g.groupKey,
		AuditSeq: g.log.seq,
	}
	if g.tree != nil {
		st.LKHArity = uint8(g.tree.Arity())
		for _, r := range g.tree.Records() {
			st.Tree = append(st.Tree, toReplNode(r))
		}
	}
	for _, s := range g.reg.appendAll(nil, "") {
		s.mu.Lock()
		es, ok := s.engine.ExportState()
		s.mu.Unlock()
		if ok {
			st.Members = append(st.Members, wire.ReplMember{
				User: s.user, SessionKey: es.SessionKey, Nonce: es.Nonce, Seq: es.Seq,
			})
		}
	}
	return st
}
