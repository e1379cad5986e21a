package dynamic

import (
	"container/heap"

	"repro/internal/graph"
)

// arc is one overlay edge live at some generation.
type arc struct {
	u, v graph.V
	w    graph.W
}

// ---------------------------------------------------------------------------
// Exact patched query, serving every dirty generation: bidirectional
// Dijkstra over the patched adjacency (base CSR with per-edge patch
// resolution plus net-inserted overlay arcs). Exact by construction;
// the search is sparse (maps, not O(n) arrays) so cost scales with
// the explored ball, not the graph.

type heapItem struct {
	v graph.V
	d graph.Dist
}

type distHeap []heapItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// side is one direction of the bidirectional search.
type side struct {
	dist    map[graph.V]graph.Dist
	settled map[graph.V]bool
	pq      distHeap
}

func newSide(src graph.V) *side {
	s := &side{
		dist:    map[graph.V]graph.Dist{src: 0},
		settled: map[graph.V]bool{},
	}
	heap.Push(&s.pq, heapItem{v: src, d: 0})
	return s
}

// top returns the smallest unsettled tentative distance (InfDist when
// the frontier is exhausted), popping stale heap entries.
func (s *side) top() graph.Dist {
	for len(s.pq) > 0 {
		it := s.pq[0]
		if s.settled[it.v] || s.dist[it.v] != it.d {
			heap.Pop(&s.pq)
			continue
		}
		return it.d
	}
	return graph.InfDist
}

// insAdjLocked builds the net-insert adjacency at generation gen:
// deleted/reweighted pairs resolve inline during CSR scans, but
// inserted arcs need explicit adjacency. Caller holds d.mu.
func (d *Oracle) insAdjLocked(gen uint64) map[graph.V][]arc {
	ins := map[graph.V][]arc{}
	for k, hist := range d.patch {
		i := 0
		for i < len(hist) && hist[i].gen <= gen {
			i++
		}
		if i == 0 {
			continue
		}
		v := hist[i-1]
		if v.deleted || d.basePairLocked(k).present {
			continue
		}
		ins[k.a] = append(ins[k.a], arc{u: k.a, v: k.b, w: v.w})
		ins[k.b] = append(ins[k.b], arc{u: k.b, v: k.a, w: v.w})
	}
	return ins
}

// exactPatchedLocked computes the exact s-t distance at generation
// gen over the patched graph. Caller holds d.mu (read).
func (d *Oracle) exactPatchedLocked(gen uint64, s, t graph.V) graph.Dist {
	// The common case (latest generation) reuses the adjacency that
	// refreshCurLocked precomputed; historical generations rebuild it.
	ins := d.curIns
	if gen != d.curGen || ins == nil {
		ins = d.insAdjLocked(gen)
	}

	// forEach visits v's patched neighbors. A patched pair with
	// parallel base copies yields its new weight for each copy —
	// harmless for Dijkstra.
	forEach := func(v graph.V, visit func(to graph.V, w graph.W)) {
		adj := d.baseG.Neighbors(v)
		wts := d.baseG.AdjWeights(v)
		for i, to := range adj {
			w := graph.W(1)
			if wts != nil {
				w = wts[i]
			}
			if hist := d.patch[keyOf(v, to)]; len(hist) > 0 {
				j := 0
				for j < len(hist) && hist[j].gen <= gen {
					j++
				}
				if j > 0 {
					pv := hist[j-1]
					if pv.deleted {
						continue
					}
					w = pv.w
				}
			}
			visit(to, w)
		}
		for _, a := range ins[v] {
			visit(a.v, a.w)
		}
	}

	fwd, bwd := newSide(s), newSide(t)
	best := graph.InfDist
	for {
		tf, tb := fwd.top(), bwd.top()
		if tf >= graph.InfDist && tb >= graph.InfDist {
			break
		}
		if tf >= graph.InfDist || tb >= graph.InfDist {
			// One side exhausted its whole component. If the searches
			// never met, s and t are disconnected — settling the rest of
			// the other component cannot change that. If they met, any
			// remaining two-sided path costs at least the live frontier's
			// top (the exhausted side contributes ≥ 0), so stop once that
			// passes best.
			if best >= graph.InfDist || min(tf, tb) >= best {
				break
			}
		} else if tf+tb >= best {
			break
		}
		// Expand the cheaper frontier; the other side's map is the
		// meeting detector.
		cur, other := fwd, bwd
		if tb < tf {
			cur, other = bwd, fwd
		}
		it := heap.Pop(&cur.pq).(heapItem)
		if cur.settled[it.v] || cur.dist[it.v] != it.d {
			continue
		}
		cur.settled[it.v] = true
		forEach(it.v, func(to graph.V, w graph.W) {
			nd := it.d + graph.Dist(w)
			if od, ok := cur.dist[to]; !ok || nd < od {
				cur.dist[to] = nd
				heap.Push(&cur.pq, heapItem{v: to, d: nd})
			}
			if bd, ok := other.dist[to]; ok {
				if cand := it.d + graph.Dist(w) + bd; cand < best {
					best = cand
				}
			}
		})
	}
	return best
}
