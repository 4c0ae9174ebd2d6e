package srdf

import (
	"errors"
	"testing"
)

// fuzzGraph decodes fuzz bytes into a graph of at most 8 actors: byte 0
// picks the actor count, the next byte per actor its duration in eighths,
// and every following (from, to, tokens) triple adds an edge with 0–3
// tokens, up to 16 edges. Missing bytes read as 0.
func fuzzGraph(data []byte) *Graph {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%8
	g := NewGraph()
	for a := 0; a < n; a++ {
		g.AddActor("", float64(at(1+a))/8)
	}
	for i, k := 1+n, 0; i+2 < len(data) && k < 16; i, k = i+3, k+1 {
		g.AddEdge("", ActorID(at(i)%n), ActorID(at(i+1)%n), at(i+2)%4)
	}
	return g
}

// FuzzMinPeriod checks MinPeriod against exact cycle enumeration: on a live
// graph the period matches bruteForceMCM within 1e-9 and passes the strict
// feasibility test; a deadlocked graph yields ErrDeadlock.
func FuzzMinPeriod(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		got, err := g.MinPeriod()
		if !g.DeadlockFree() {
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("deadlocked graph: MinPeriod = %v, %v; want ErrDeadlock", got, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("MinPeriod: %v", err)
		}
		if want := bruteForceMCM(g); !almostEqual(got, want, 1e-9) {
			t.Fatalf("MinPeriod = %v, cycle enumeration = %v", got, want)
		}
		if !g.feasibleExact(got) {
			t.Fatalf("MinPeriod %v fails the feasibility test", got)
		}
	})
}
