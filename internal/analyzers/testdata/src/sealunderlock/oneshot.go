package sealunderlock

import (
	"sync"

	"enclaves/internal/crypto"
)

// baseline has the three shapes of the original protocol's leader: one-shot
// seals under the group key while the membership lock is held.
type baseline struct {
	mu       sync.Mutex
	groupKey crypto.Key
	sessions map[string]crypto.Key
	out      [][]byte
}

// sendKeyLocked seals once under the caller's lock.
func (g *baseline) sendKeyLocked(sessionKey crypto.Key, plain []byte) {
	box, err := crypto.Seal(sessionKey, plain, nil) // want `one-shot crypto\.Seal inside sendKeyLocked`
	if err == nil {
		g.out = append(g.out, box)
	}
}

// announceLocked seals one copy per member under the caller's lock.
func (g *baseline) announceLocked(plain []byte) {
	for range g.sessions {
		box, err := crypto.Seal(g.groupKey, plain, nil) // want `one-shot crypto\.Seal inside announceLocked`
		if err != nil {
			continue
		}
		g.out = append(g.out, box)
	}
}

// admit tells a newcomer who is already in, sealing each name in an if-init
// while it holds the lock it took itself.
func (g *baseline) admit(user string, sessionKey crypto.Key) {
	g.mu.Lock()
	for existing := range g.sessions {
		if box, err := crypto.Seal(g.groupKey, []byte(existing), nil); err == nil { // want `one-shot crypto\.Seal while holding g\.mu`
			g.out = append(g.out, box)
		}
	}
	g.sessions[user] = sessionKey
	g.mu.Unlock()
}
