package member

import (
	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/transport"
)

// ResumeState snapshots the session state needed to resume this member's
// session against a promoted standby: the session key K_a and the latest
// chained nonce. It reports false while the engine is not in an established
// session (mid-handshake, or already left). The snapshot stays valid after
// the connection dies — connection loss does not touch engine state — which
// is exactly the failover case.
func (m *Member) ResumeState() (core.SessionState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.left {
		return core.SessionState{}, false
	}
	return m.engine.ExportState()
}

// Resume re-attaches a session to a (promoted) leader using the state of a
// previous connection: the two-message resumption sub-protocol replaces the
// password handshake, authenticating under the existing session key and the
// last chained nonce. The ResumeAck delivers the current (post-promotion)
// group key, so the returned Member is immediately ready — no WaitReady
// window, and no pre-promotion key ever held.
func Resume(conn transport.Conn, st core.SessionState, longTerm crypto.Key, opts Options) (*Member, error) {
	engine, err := core.ResumeMemberSession(st.User, st.Leader, longTerm, st)
	if err != nil {
		return nil, err
	}
	resumeEnv, err := engine.StartResume()
	if err != nil {
		return nil, err
	}
	return attach(conn, engine, resumeEnv, opts)
}
