package group

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"enclaves/internal/queue"
	"enclaves/internal/transport"
)

// newTestConn is a member session outside any leader: its outbox holds
// capacity frames and nothing drains it, because its connection is a pipe
// end with no Pull attached.
func newTestConn(user string, capacity int) *memberConn {
	conn, _ := transport.Pipe()
	return &memberConn{user: user, conn: conn, out: queue.NewBounded[outFrame](capacity)}
}

func TestRegistryBasics(t *testing.T) {
	r := new(registry)
	if r.size() != 0 || len(r.names()) != 0 {
		t.Fatal("fresh registry not empty")
	}

	a := newTestConn("alice", 4)
	b := newTestConn("bob", 4)
	if displaced := r.insert(a); displaced != nil {
		t.Fatal("insert into empty registry displaced something")
	}
	r.insert(b)
	if r.size() != 2 {
		t.Fatalf("size = %d, want 2", r.size())
	}
	if got := r.get("alice"); got != a {
		t.Fatalf("get(alice) = %p, want %p", got, a)
	}
	if got := r.names(); len(got) != 2 || !slices.Contains(got, "alice") || !slices.Contains(got, "bob") {
		t.Fatalf("names = %v, want [alice bob]", got)
	}
	if got := r.appendAll(nil, "alice"); len(got) != 1 || got[0] != b {
		t.Fatalf("appendAll skipping alice = %v", got)
	}

	// Re-join displaces the stale session without double-counting.
	a2 := newTestConn("alice", 4)
	if displaced := r.insert(a2); displaced != a {
		t.Fatalf("insert(a2) displaced %p, want the stale %p", displaced, a)
	}
	if r.size() != 2 {
		t.Fatalf("size after displacement = %d, want 2", r.size())
	}
	// The stale session's conditional removal must be a no-op now.
	if r.remove(a) {
		t.Fatal("remove(stale) succeeded; it should only remove the current session")
	}
	if r.get("alice") != a2 {
		t.Fatal("stale removal took out the live session")
	}
	if !r.remove(a2) {
		t.Fatal("remove(current) failed")
	}
	if got := r.take("bob"); got != b {
		t.Fatalf("take(bob) = %p, want %p", got, b)
	}
	if r.take("bob") != nil {
		t.Fatal("second take(bob) returned a session")
	}
	if r.size() != 0 {
		t.Fatalf("final size = %d, want 0", r.size())
	}
}

// TestRegistryLookupsDoNotAllocate: the relay looks its sender up and
// snapshots the other members on every multicast, so sync.Map's boxing of
// keys and values must stay off that path — get, and appendAll into a
// buffer that already has the capacity, allocate nothing.
func TestRegistryLookupsDoNotAllocate(t *testing.T) {
	r := new(registry)
	for i := 0; i < 4; i++ {
		r.insert(newTestConn(fmt.Sprintf("m%d", i), 4))
	}
	if a := testing.AllocsPerRun(100, func() { r.get("m2") }); a != 0 {
		t.Errorf("get allocated %v times, want 0", a)
	}
	buf := make([]*memberConn, 0, 4)
	if a := testing.AllocsPerRun(100, func() { buf = r.appendAll(buf[:0], "m0") }); a != 0 {
		t.Errorf("appendAll allocated %v times, want 0", a)
	}
	if len(buf) != 3 {
		t.Fatalf("appendAll skipping m0 returned %d members, want 3", len(buf))
	}
}

// TestRegistryConcurrent is the -race workout: concurrent inserts, removes,
// gets, and snapshot walks. Correctness assertion is
// just the final count; the value of the test is the race detector seeing
// every code path interleave.
func TestRegistryConcurrent(t *testing.T) {
	r := new(registry)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				user := fmt.Sprintf("w%d-u%d", w, i%17)
				s := newTestConn(user, 4)
				r.insert(s)
				r.get(user)
				r.appendAll(nil, "")
				r.names()
				if i%3 == 0 {
					r.take(user)
				} else {
					r.remove(s)
				}
			}
		}(w)
	}
	wg.Wait()
	if r.size() != 0 {
		t.Fatalf("after balanced insert/remove: size = %d, want 0", r.size())
	}
}
