// Package workload defines the named synthetic workloads every
// experiment runs on, so that bench targets, cmd/figures, and
// EXPERIMENTS.md all refer to the same inputs.
//
// The paper proves worst-case / with-high-probability bounds, so the
// reproduction sweeps structurally different families: low-diameter
// uniform graphs (ER), skewed-degree graphs (RMAT, preferential
// attachment), and high-diameter constant-degree graphs (grids) where
// hopsets matter most; weighted variants use uniform weights (single
// scale) and exponential weights (multi-scale, exercising the
// bucketing and Appendix B machinery).
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Spec names a workload and builds it on demand.
type Spec struct {
	Name string
	Gen  func() *graph.Graph
}

// ER returns a connected Erdős–Rényi workload with average degree
// 2m/n = 2·density.
func ER(n int32, density int, seed uint64) Spec {
	return Spec{
		Name: fmt.Sprintf("er-n%d-d%d", n, density),
		Gen: func() *graph.Graph {
			return graph.RandomConnectedGNM(n, int64(n)*int64(density), seed)
		},
	}
}

// RMATSpec returns a skewed-degree RMAT workload with 2^scale
// vertices.
func RMATSpec(scale int, degree int, seed uint64) Spec {
	return Spec{
		Name: fmt.Sprintf("rmat-s%d-d%d", scale, degree),
		Gen: func() *graph.Graph {
			n := int64(1) << scale
			return graph.RMAT(scale, n*int64(degree), 0.57, 0.19, 0.19, seed)
		},
	}
}

// Grid returns a side×side grid workload (high diameter).
func Grid(side int32) Spec {
	return Spec{
		Name: fmt.Sprintf("grid-%dx%d", side, side),
		Gen:  func() *graph.Graph { return graph.Grid2D(side, side) },
	}
}

// Hyper returns the d-dimensional hypercube workload.
func Hyper(d int) Spec {
	return Spec{
		Name: fmt.Sprintf("hypercube-%d", d),
		Gen:  func() *graph.Graph { return graph.Hypercube(d) },
	}
}

// WithUniformWeights wraps a spec with uniform integer weights in
// [1, maxW].
func WithUniformWeights(s Spec, maxW graph.W, seed uint64) Spec {
	return Spec{
		Name: fmt.Sprintf("%s-wU%d", s.Name, maxW),
		Gen:  func() *graph.Graph { return graph.UniformWeights(s.Gen(), maxW, seed) },
	}
}

// WithExponentialWeights wraps a spec with multi-scale weights
// spanning base^scales.
func WithExponentialWeights(s Spec, base, scales float64, seed uint64) Spec {
	return Spec{
		Name: fmt.Sprintf("%s-wExp%.0f^%.0f", s.Name, base, scales),
		Gen:  func() *graph.Graph { return graph.ExponentialWeights(s.Gen(), base, scales, seed) },
	}
}

// PA returns a preferential-attachment workload (heavy-tailed degrees
// without RMAT's disconnected fringe).
func PA(n int32, deg int, seed uint64) Spec {
	return Spec{
		Name: fmt.Sprintf("pa-n%d-d%d", n, deg),
		Gen:  func() *graph.Graph { return graph.PreferentialAttachment(n, deg, seed) },
	}
}

// ParseSpec parses a compact generator spec string into a Spec, so
// that the serving layer (POST /graphs) and cmd tools can name graphs
// without a file. The format is
//
//	family[:key=val,key=val,...]
//
// with families er (n, d), rmat (scale, d), grid (side), hyper (dim),
// path (n), cycle (n), pa (n, deg); optional weight keys w=uniform
// (maxw) or w=exp (base, scales); and an optional seed=N override of
// the seed argument. Examples:
//
//	er:n=4096,d=8
//	grid:side=64,w=uniform,maxw=50
//	rmat:scale=12,d=8,w=exp,base=10,scales=6,seed=7
//
// Generation is deterministic in (spec, seed), which is what lets
// cmd/loadgen rebuild a server-side graph locally and verify answers
// bit-for-bit.
func ParseSpec(s string, seed uint64) (Spec, error) {
	fam, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	kv := map[string]string{}
	if rest != "" {
		for _, f := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k == "" || v == "" {
				return Spec{}, fmt.Errorf("workload: bad spec field %q in %q", f, s)
			}
			kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	intKey := func(key string, def int64) (int64, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("workload: bad %s=%q in spec %q", key, v, s)
		}
		return n, nil
	}
	floatKey := func(key string, def float64) (float64, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("workload: bad %s=%q in spec %q", key, v, s)
		}
		return f, nil
	}

	if sd, err := intKey("seed", int64(seed)); err != nil {
		return Spec{}, err
	} else if sd < 0 {
		return Spec{}, fmt.Errorf("workload: negative seed in spec %q", s)
	} else {
		seed = uint64(sd)
	}

	var spec Spec
	var err error
	fail := func(e error) (Spec, error) { return Spec{}, e }
	// A spec can arrive over the network (POST /graphs), so every
	// family bounds both its vertex count and its total edge demand —
	// otherwise "d=2000000000" is a remote out-of-memory request that
	// no recover() can catch.
	const maxEdges = 1 << 28
	switch fam {
	case "er":
		var n, d int64
		if n, err = intKey("n", 1024); err != nil {
			return fail(err)
		}
		if d, err = intKey("d", 8); err != nil {
			return fail(err)
		}
		// Divide instead of multiplying: n*d overflows int64 for
		// attacker-sized d, sailing past the bound.
		if n < 1 || n > 1<<26 || d < 1 || d > maxEdges/n {
			return fail(fmt.Errorf("workload: er spec %q out of range", s))
		}
		spec = ER(int32(n), int(d), seed)
	case "rmat":
		var sc, d int64
		if sc, err = intKey("scale", 10); err != nil {
			return fail(err)
		}
		if d, err = intKey("d", 8); err != nil {
			return fail(err)
		}
		if sc < 1 || sc > 26 || d < 1 || d > maxEdges/(int64(1)<<sc) {
			return fail(fmt.Errorf("workload: rmat spec %q out of range", s))
		}
		spec = RMATSpec(int(sc), int(d), seed)
	case "grid":
		var side int64
		if side, err = intKey("side", 32); err != nil {
			return fail(err)
		}
		if side < 1 || side > 8192 {
			return fail(fmt.Errorf("workload: grid spec %q out of range", s))
		}
		spec = Grid(int32(side))
	case "hyper":
		var dim int64
		if dim, err = intKey("dim", 8); err != nil {
			return fail(err)
		}
		if dim < 1 || dim > 26 {
			return fail(fmt.Errorf("workload: hyper spec %q out of range", s))
		}
		spec = Hyper(int(dim))
	case "path", "cycle":
		var n int64
		if n, err = intKey("n", 1024); err != nil {
			return fail(err)
		}
		if n < 1 || n > 1<<26 {
			return fail(fmt.Errorf("workload: %s spec %q out of range", fam, s))
		}
		if fam == "path" {
			spec = Spec{Name: fmt.Sprintf("path-n%d", n), Gen: func() *graph.Graph { return graph.Path(int32(n)) }}
		} else {
			spec = Spec{Name: fmt.Sprintf("cycle-n%d", n), Gen: func() *graph.Graph { return graph.Cycle(int32(n)) }}
		}
	case "pa":
		var n, d int64
		if n, err = intKey("n", 1024); err != nil {
			return fail(err)
		}
		if d, err = intKey("deg", 3); err != nil {
			return fail(err)
		}
		if n < 2 || n > 1<<26 || d < 1 || d > maxEdges/n {
			return fail(fmt.Errorf("workload: pa spec %q out of range", s))
		}
		spec = PA(int32(n), int(d), seed)
	default:
		return fail(fmt.Errorf("workload: unknown family %q in spec %q", fam, s))
	}

	switch w := kv["w"]; w {
	case "":
	case "uniform":
		delete(kv, "w")
		maxw, err := intKey("maxw", 100)
		if err != nil {
			return fail(err)
		}
		if maxw < 1 {
			return fail(fmt.Errorf("workload: maxw in spec %q must be positive", s))
		}
		spec = WithUniformWeights(spec, maxw, seed+1)
	case "exp":
		delete(kv, "w")
		base, err := floatKey("base", 10)
		if err != nil {
			return fail(err)
		}
		scales, err := floatKey("scales", 6)
		if err != nil {
			return fail(err)
		}
		if base <= 1 || scales < 1 {
			return fail(fmt.Errorf("workload: exp weights in spec %q out of range", s))
		}
		spec = WithExponentialWeights(spec, base, scales, seed+1)
	default:
		return fail(fmt.Errorf("workload: unknown weight kind %q in spec %q", w, s))
	}
	if len(kv) != 0 {
		for k := range kv {
			return fail(fmt.Errorf("workload: unknown key %q in spec %q", k, s))
		}
	}
	return spec, nil
}

// ---------------------------------------------------------------------------
// Query mixes: deterministic s-t pair streams for the serving layer.

// Mix is a deterministic stream of s-t query pairs over [0, n). Not
// safe for concurrent use — give every load-generator worker its own
// Mix (vary the seed).
type Mix struct {
	Name string
	next func() [2]graph.V
}

// Next returns the next query pair.
func (m Mix) Next() [2]graph.V { return m.next() }

// pair draws s uniformly and t uniformly distinct from s (when n > 1).
func pair(r *rng.RNG, n graph.V) [2]graph.V {
	s := r.Int31n(n)
	t := r.Int31n(n)
	for n > 1 && t == s {
		t = r.Int31n(n)
	}
	return [2]graph.V{s, t}
}

// UniformMix queries uniformly random distinct pairs — the cache-cold
// worst case.
func UniformMix(n graph.V, seed uint64) Mix {
	if n < 1 {
		panic("workload: UniformMix needs n >= 1")
	}
	r := rng.New(seed)
	return Mix{Name: "uniform", next: func() [2]graph.V { return pair(r, n) }}
}

// HotspotMix sends pHot of the traffic to a small hot vertex set (the
// skewed popularity shape of real serving traffic; exercises the
// result cache).
func HotspotMix(n graph.V, hot graph.V, pHot float64, seed uint64) Mix {
	if n < 1 {
		panic("workload: HotspotMix needs n >= 1")
	}
	if hot < 1 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	r := rng.New(seed)
	return Mix{Name: "hotspot", next: func() [2]graph.V {
		if r.Bernoulli(pHot) {
			return pair(r, hot)
		}
		return pair(r, n)
	}}
}

// RepeatMix draws from a fixed pool of pre-sampled pairs — maximal
// cache-hit traffic.
func RepeatMix(n graph.V, pool int, seed uint64) Mix {
	if n < 1 {
		panic("workload: RepeatMix needs n >= 1")
	}
	if pool < 1 {
		pool = 1
	}
	r := rng.New(seed)
	pairs := make([][2]graph.V, pool)
	for i := range pairs {
		pairs[i] = pair(r, n)
	}
	return Mix{Name: "repeat", next: func() [2]graph.V { return pairs[r.Intn(pool)] }}
}

// ParseMix resolves a mix name ("uniform", "hotspot", "repeat") with
// serving-benchmark default parameters.
func ParseMix(name string, n graph.V, seed uint64) (Mix, error) {
	switch name {
	case "uniform":
		return UniformMix(n, seed), nil
	case "hotspot":
		hot := n / 64
		if hot < 2 {
			hot = 2
		}
		return HotspotMix(n, hot, 0.8, seed), nil
	case "repeat":
		return RepeatMix(n, 64, seed), nil
	default:
		return Mix{}, fmt.Errorf("workload: unknown query mix %q", name)
	}
}

// ---------------------------------------------------------------------------
// Mutation mixes: deterministic edge-mutation streams for the dynamic
// overlay (cmd/loadgen -mutate, the smoke test, and benchmarks).

// Mutator emits a deterministic stream of VALID mutations against an
// evolving graph: it tracks the pair state locally (seeded from the
// base graph), so applying its updates in order through
// DynamicOracle.ApplyUpdates (or POST /graphs/{id}/edges) never hits
// a validation error, and a second Mutator with the same (graph, mix,
// seed) reproduces the exact sequence — which is what lets a client
// replay the server's mutations locally and verify answers
// bit-for-bit. Not safe for concurrent use.
type Mutator struct {
	name     string
	r        *rng.RNG
	n        graph.V
	weighted bool
	maxW     graph.W

	// pInsert/pDelete split the op draw; the remainder is reweight.
	pInsert, pDelete float64

	state map[[2]graph.V]graph.W // present pairs → weight
	pairs [][2]graph.V           // present pairs, for O(1) delete sampling
	idx   map[[2]graph.V]int     // pair → position in pairs
}

// NewMutator builds a mutation stream over g. Mixes:
//
//   - "churn":    1/3 insert, 1/3 delete, 1/3 reweight (insert/delete
//     only on unweighted graphs) — steady-state read/write traffic.
//   - "grow":     insertions only; the overlay's exact patched search.
//   - "decay":    deletions only; the same exact search.
//   - "reweight": weight changes only (weighted graphs).
//
// Weights for inserts/reweights are uniform in [1, maxW] (maxW ≤ 1
// means unit weights; forced for unweighted graphs).
func NewMutator(g *graph.Graph, mix string, maxW graph.W, seed uint64) (*Mutator, error) {
	m := &Mutator{
		name:     mix,
		r:        rng.New(seed),
		n:        g.NumVertices(),
		weighted: g.Weighted(),
		maxW:     maxW,
		state:    make(map[[2]graph.V]graph.W, g.NumEdges()),
		idx:      make(map[[2]graph.V]int, g.NumEdges()),
	}
	if m.n < 2 {
		return nil, fmt.Errorf("workload: mutator needs n >= 2, got %d", m.n)
	}
	if !m.weighted {
		m.maxW = 1
	} else if m.maxW < 1 {
		m.maxW = 1
	}
	switch mix {
	case "churn":
		if m.weighted {
			m.pInsert, m.pDelete = 1.0/3, 1.0/3
		} else {
			m.pInsert, m.pDelete = 0.5, 0.5
		}
	case "grow":
		m.pInsert = 1
	case "decay":
		m.pDelete = 1
	case "reweight":
		if !m.weighted {
			return nil, fmt.Errorf("workload: reweight mix needs a weighted graph")
		}
	default:
		return nil, fmt.Errorf("workload: unknown mutation mix %q", mix)
	}
	for _, e := range g.Edges() {
		k := pairOf(e.U, e.V)
		if _, dup := m.state[k]; dup {
			continue // parallel edge: pair-level semantics keep one
		}
		m.state[k] = e.W
		m.idx[k] = len(m.pairs)
		m.pairs = append(m.pairs, k)
	}
	return m, nil
}

// Name returns the mix name.
func (m *Mutator) Name() string { return m.name }

func pairOf(u, v graph.V) [2]graph.V {
	if u > v {
		u, v = v, u
	}
	return [2]graph.V{u, v}
}

// Next returns the next mutation, already applied to the local state.
// ok is false when the mix can make no further move (e.g. "decay" on
// an empty graph, "grow" on a clique).
func (m *Mutator) Next() (up dynamic.Update, ok bool) {
	full := int64(len(m.pairs)) >= int64(m.n)*int64(m.n-1)/2
	for attempt := 0; attempt < 64; attempt++ {
		p := m.r.Float64()
		switch {
		case p < m.pInsert && !full:
			// Rejection-sample an absent pair.
			for tries := 0; tries < 64; tries++ {
				u, v := m.r.Int31n(m.n), m.r.Int31n(m.n)
				if u == v {
					continue
				}
				k := pairOf(u, v)
				if _, present := m.state[k]; present {
					continue
				}
				w := graph.W(1)
				if m.maxW > 1 {
					w = graph.W(m.r.Intn(int(m.maxW)) + 1)
				}
				m.state[k] = w
				m.idx[k] = len(m.pairs)
				m.pairs = append(m.pairs, k)
				return dynamic.Update{Op: dynamic.OpInsert, U: k[0], V: k[1], W: w}, true
			}
		case p < m.pInsert+m.pDelete && len(m.pairs) > 0:
			i := m.r.Intn(len(m.pairs))
			k := m.pairs[i]
			last := len(m.pairs) - 1
			m.pairs[i] = m.pairs[last]
			m.idx[m.pairs[i]] = i
			m.pairs = m.pairs[:last]
			delete(m.state, k)
			delete(m.idx, k)
			return dynamic.Update{Op: dynamic.OpDelete, U: k[0], V: k[1]}, true
		case p >= m.pInsert+m.pDelete && m.weighted && len(m.pairs) > 0:
			k := m.pairs[m.r.Intn(len(m.pairs))]
			w := graph.W(m.r.Intn(int(m.maxW)) + 1)
			if w == m.state[k] {
				w = w%m.maxW + 1 // force a visible change
			}
			if w == m.state[k] {
				continue // maxW == 1: no distinct weight exists
			}
			m.state[k] = w
			return dynamic.Update{Op: dynamic.OpReweight, U: k[0], V: k[1], W: w}, true
		}
	}
	return dynamic.Update{}, false
}

// Batch returns up to size mutations (fewer if the mix runs dry).
func (m *Mutator) Batch(size int) []dynamic.Update {
	out := make([]dynamic.Update, 0, size)
	for len(out) < size {
		up, ok := m.Next()
		if !ok {
			break
		}
		out = append(out, up)
	}
	return out
}

// SpannerFamilies returns the Figure 1 input sweep at the given size
// scale (1 = benchmark default).
func SpannerFamilies(seed uint64) []Spec {
	return []Spec{
		ER(4096, 8, seed),
		RMATSpec(12, 8, seed+1),
		Grid(64),
	}
}

// HopsetFamilies returns the Figure 2 input sweep.
func HopsetFamilies(seed uint64) []Spec {
	return []Spec{
		ER(4096, 4, seed),
		Grid(64),
		Hyper(12),
	}
}
