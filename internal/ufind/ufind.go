// Package ufind provides a union-find (disjoint set union) structure
// with path halving and union by rank. The weighted spanner
// construction uses it to maintain the hierarchical contraction state
// H_i of Algorithm 3, and the Appendix B weight-class decomposition
// uses it to build prefix-component trees.
package ufind

// UF is a disjoint-set forest over elements 0..n-1.
type UF struct {
	parent []int32
	rank   []int8
	sets   int32
}

// New returns a union-find with n singleton sets.
func New(n int32) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were
// previously distinct.
func (u *UF) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (u *UF) Same(a, b int32) bool { return u.Find(a) == u.Find(b) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int32 { return u.sets }

// Len returns the number of elements.
func (u *UF) Len() int32 { return int32(len(u.parent)) }

// DenseLabels returns a per-element label array relabeling set
// representatives to dense ids [0, Sets()) in order of first
// appearance, together with the label count.
func (u *UF) DenseLabels() ([]int32, int32) {
	labels := make([]int32, len(u.parent))
	next := int32(0)
	// of[r] is representative r's label plus one; 0 means unseen.
	of := make([]int32, len(u.parent))
	for i := range u.parent {
		r := u.Find(int32(i))
		if of[r] == 0 {
			next++
			of[r] = next
		}
		labels[i] = of[r] - 1
	}
	return labels, next
}
