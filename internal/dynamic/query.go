package dynamic

import (
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// arc is one overlay edge live at some generation.
type arc struct {
	u, v graph.V
	w    graph.W
}

// scratch backs the exact search's per-query distance and queue
// buffers with the process-wide exec arenas.
var scratch = exec.Sequential()

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
		addArcs(ins, k, v.w)
	}
	return ins
}

// exactPatchedLocked computes the exact s-t distance at generation
// gen over the patched graph: a point-to-point Dijkstra on sssp's radix
// heap that stops when t settles. A vertex that no pair in d.patch
// touches is relaxed straight from the base CSR. A touched vertex
// resolves each arc to another touched vertex against the pair's
// history at gen (a patched pair with parallel base copies yields its
// new weight for each copy, harmless for Dijkstra) and adds its
// net-inserted arcs, so historical generations stay exact. cost (may
// be nil) gains the arcs scanned, as sssp.DijkstraTo counts them.
// Caller holds d.mu (read).
func (d *Oracle) exactPatchedLocked(gen uint64, s, t graph.V, cost *par.Cost) graph.Dist {
	// The common case (latest generation) reuses the adjacency Apply
	// keeps; historical generations rebuild it.
	ins := d.curIns
	if gen != d.curGen {
		ins = d.insAdjLocked(gen)
	}
	n := int(d.baseG.NumVertices())
	dist := scratch.Dists(n)
	buf := scratch.MarksZero(3 * n)
	q := sssp.NewRadixHeap(dist, buf)
	dist[s] = 0
	q.Update(s, 0)
	var work int64
	for !q.Empty() {
		v := q.Pop()
		if v == t {
			break
		}
		dv := dist[v]
		touched := d.touched[v]
		arcs := d.baseG.Arcs(v)
		wide := d.baseG.Wide(v)
		work += int64(len(arcs))
		for i, a := range arcs {
			u := a.To
			w := graph.W(a.W)
			if wide != nil {
				w = wide[i]
			}
			if touched && d.touched[u] {
				if hist := d.patch[keyOf(v, u)]; len(hist) > 0 {
					j := 0
					for j < len(hist) && hist[j].gen <= gen {
						j++
					}
					if j > 0 {
						if hist[j-1].deleted {
							continue
						}
						w = hist[j-1].w
					}
				}
			}
			// Weights are positive, so a settled u never passes.
			if nd := dv + w; nd < dist[u] {
				dist[u] = nd
				q.Update(u, nd)
			}
		}
		if !touched {
			continue
		}
		work += int64(len(ins[v]))
		for _, a := range ins[v] {
			if nd := dv + a.w; nd < dist[a.v] {
				dist[a.v] = nd
				q.Update(a.v, nd)
			}
		}
	}
	cost.AddWork(work)
	cost.AddDepth(work)
	ans := dist[t]
	scratch.PutMarks(buf)
	scratch.PutDists(dist)
	return ans
}
