// Package staleignore exercises directive hygiene end to end: one ignore
// that still earns its keep, one whose finding was fixed, one naming an
// analyzer that does not exist, a guardedby where it checks nothing, and a
// misspelled verb.
package staleignore

//enclavelint:ignore cryptorand deterministic jitter is the point of this package
import "math/rand"

import "sync"

var jitter = rand.Int63()

//enclavelint:ignore cryptorand the finding this once suppressed was fixed
var settled = 42

//enclavelint:ignore keyhygine typo that must be caught
var typoed = 43

// guarded carries a guardedby on a field, where no analyzer reads it.
type guarded struct {
	//enclavelint:guardedby guarded.mu
	mu sync.Mutex
	n  int
}

// bump misspells the verb, so its contract would go unchecked.
//
//enclavelint:guardby guarded.mu
func bump(g *guarded) { g.n++ }
