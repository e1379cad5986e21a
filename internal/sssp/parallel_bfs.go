package sssp

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// BFSParallel is the level-synchronous BFS with the frontier actually
// expanded by concurrent goroutines: workers claim unvisited vertices
// with a compare-and-swap, which is the shared-memory realization of
// the CRCW "arbitrary winner" writes the paper's BFS (Appendix A,
// [UY91]) assumes. Distances computed are identical to BFS; parent
// pointers may differ (any claiming neighbor is a valid BFS parent),
// matching the arbitrary-CRCW semantics.
//
// Cost accounting is the same as BFS: one depth unit per level, work
// equal to edges scanned. On a multi-core host this routine also
// yields real wall-clock parallelism; its benchmark against BFS is
// the "does the model translate" check.
func BFSParallel(g *graph.Graph, sources []graph.V, opt Options) *Result {
	n := g.NumVertices()
	res := newResultOn(opt.Exec, n)
	bound := opt.bound()

	// claimed[v] == 1 once some worker owns v. Separate from Dist so
	// that workers can claim with a single CAS.
	claimed := opt.Exec.MarksZero(int(n))
	defer opt.Exec.PutMarks(claimed)
	frontier := make([]graph.V, 0, len(sources))
	for _, s := range sources {
		if !opt.admits(s) {
			continue
		}
		if atomic.CompareAndSwapInt32(&claimed[s], 0, 1) {
			res.Dist[s] = 0
			frontier = append(frontier, s)
		}
	}

	level := graph.Dist(0)
	for len(frontier) > 0 && level < bound {
		if opt.Exec.Checkpoint() {
			return res // canceled: partial, invalid
		}
		level++
		var touched atomic.Int64
		var mu sync.Mutex
		var next []graph.V
		opt.Exec.For(len(frontier), 64, func(lo, hi int) {
			var local []graph.V
			var scanned int64
			for _, v := range frontier[lo:hi] {
				for _, a := range g.Arcs(v) {
					scanned++
					u := a.To
					if !opt.admits(u) {
						continue
					}
					if atomic.CompareAndSwapInt32(&claimed[u], 0, 1) {
						res.Dist[u] = level
						res.Parent[u] = v
						local = append(local, u)
					}
				}
			}
			touched.Add(scanned)
			if len(local) > 0 {
				mu.Lock()
				next = append(next, local...)
				mu.Unlock()
			}
		})
		opt.Cost.Round(touched.Load() + int64(len(frontier)))
		frontier = next
	}
	return res
}
