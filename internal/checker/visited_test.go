package checker

import (
	"fmt"
	"sync"
	"testing"
)

// visitedLen counts the distinct keys claimed so far.
func visitedLen(v *visitedSet) int {
	n := 0
	v.m.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// TestVisitedSetClaimSemantics pins the single-threaded contract: the first
// claim of a key creates a placeholder (State nil), later claims return the
// same node without allocating, and distinct keys get distinct nodes.
func TestVisitedSetClaimSemantics(t *testing.T) {
	v := new(visitedSet)

	n1, created := v.claim("alpha")
	if !created || n1 == nil || n1.State != nil {
		t.Fatalf("first claim: node=%v created=%t", n1, created)
	}
	n2, created := v.claim("alpha")
	if created || n2 != n1 {
		t.Fatalf("second claim returned created=%t node=%p want %p", created, n2, n1)
	}
	n3, created := v.claim("beta")
	if !created || n3 == n1 {
		t.Fatal("distinct key did not create a distinct node")
	}
	if got := visitedLen(v); got != 2 {
		t.Fatalf("len=%d want 2", got)
	}
	if a := testing.AllocsPerRun(100, func() { v.claim("alpha") }); a != 0 {
		t.Fatalf("a claim of a seen key allocated %v times, want 0", a)
	}
}

// TestVisitedSetConcurrentClaims is the -race stress test of the shared
// seen-set: many goroutines hammer a mix of shared and private keys;
// exactly one claim per key may report created=true, and every claimant of
// a key must observe the same node pointer.
func TestVisitedSetConcurrentClaims(t *testing.T) {
	const (
		goroutines = 8
		sharedKeys = 64
		rounds     = 200
	)
	v := new(visitedSet)

	var wg sync.WaitGroup
	createdBy := make([][]int, goroutines) // per-goroutine created counts per shared key
	nodes := make([][]*Node, goroutines)
	for g := 0; g < goroutines; g++ {
		createdBy[g] = make([]int, sharedKeys)
		nodes[g] = make([]*Node, sharedKeys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < sharedKeys; k++ {
					key := fmt.Sprintf("shared-%d", k)
					n, created := v.claim(key)
					if created {
						createdBy[g][k]++
					}
					if nodes[g][k] == nil {
						nodes[g][k] = n
					} else if nodes[g][k] != n {
						panic("claim returned different nodes for one key")
					}
				}
				// Private keys add churn beside the shared ones.
				if _, created := v.claim(fmt.Sprintf("private-%d-%d", g, r)); !created {
					panic("private key already claimed")
				}
			}
		}(g)
	}
	wg.Wait()

	for k := 0; k < sharedKeys; k++ {
		total := 0
		var node *Node
		for g := 0; g < goroutines; g++ {
			total += createdBy[g][k]
			if node == nil {
				node = nodes[g][k]
			} else if nodes[g][k] != node {
				t.Fatalf("key %d: goroutines observed different nodes", k)
			}
		}
		if total != 1 {
			t.Fatalf("key %d created %d times, want exactly 1", k, total)
		}
	}
	if got, want := visitedLen(v), sharedKeys+goroutines*rounds; got != want {
		t.Fatalf("len=%d want %d", got, want)
	}
}
