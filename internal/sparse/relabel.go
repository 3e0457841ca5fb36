package sparse

import "sort"

// DegreeOrder computes the production relabeling for the tiled layout:
// within each 64Ki column window, rows are ordered lexicographically by
// their per-column-window entry counts (ascending), with ties broken by
// original id. The result is window-preserving by construction, so
// TiledRows accepts it directly.
//
// Why degree runs and not bandwidth: the tiled kernel runs one short
// dependent-add chain per row per column window, so its throughput is
// set by how well the core overlaps consecutive rows — and the limiter
// there is each gather loop's exit branch, which mispredicts on every
// row when trip counts vary, flushing the speculation that overlap
// depends on. A row's per-window entry counts are fixed by the ORIGINAL
// column ids (row relabeling cannot change them), so sorting rows by
// that count vector lines up long runs of identical trip counts and the
// exit branches become perfectly predictable; measured on the 100k
// benchmark graph this cuts the gather loop's ns/nnz by more than 2×. A
// reverse Cuthill–McKee tie-break inside the equal-count runs was
// measured too and bought no iteration time for ~3× the relabeling cost
// (DESIGN.md §13).
func (s *Stochastic) DegreeOrder() []int32 {
	m := s.m
	n := m.rows
	w := (n + windowSize - 1) / windowSize
	if w < 1 {
		w = 1
	}
	// cnt[r*w+j] = entries of row r whose original column is in window j.
	cnt := make([]int32, n*w)
	for c := 0; c < m.cols; c++ {
		j := c >> WindowBits
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			cnt[int(m.rowIdx[k])*w+j]++
		}
	}
	perm := make([]int32, n)
	idx := make([]int32, 0, windowSize)
	for lo := 0; lo < n; lo += windowSize {
		hi := lo + windowSize
		if hi > n {
			hi = n
		}
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, int32(i))
		}
		sort.Slice(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			ca, cb := cnt[int(ia)*w:int(ia)*w+w], cnt[int(ib)*w:int(ib)*w+w]
			for j := 0; j < w; j++ {
				if ca[j] != cb[j] {
					return ca[j] < cb[j]
				}
			}
			return ia < ib
		})
		for k, i := range idx {
			perm[i] = int32(lo + k)
		}
	}
	return perm
}

// IdentityPerm returns the identity permutation of size n, the layout
// used when relabeling is disabled or not yet computed.
func IdentityPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// InversePerm returns the inverse of a permutation: inv[perm[i]] = i.
func InversePerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for old, new := range perm {
		inv[new] = int32(old)
	}
	return inv
}
