package sparse

import (
	"math/rand"
	"sort"
	"testing"
)

// uniformMatrix builds an n×n matrix from nnz random coordinates, each
// with value 1, repeats dropped. Normalized, every column holds one value
// (1/k_j), the shape graph.Network.StochasticMatrix produces and the only
// one TiledRows accepts.
func uniformMatrix(t testing.TB, seed int64, n, nnz int) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, nnz)
	for i := range entries {
		entries[i] = Coord{Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: 1}
	}
	return mustMatrix2(t, n, n, distinct(entries))
}

// distinct drops every repeat of an earlier entry's (row, col), as the
// graph builder drops duplicate edges; NewMatrix would sum the repeats
// into a non-uniform column.
func distinct(entries []Coord) []Coord {
	seen := make(map[[2]int32]bool, len(entries))
	out := entries[:0]
	for _, e := range entries {
		if k := [2]int32{e.Row, e.Col}; !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// powerLawStochastic builds a column-stochastic matrix whose in-degree
// distribution is heavily skewed (a few rows receive most of the entries)
// and whose tail columns are dangling — the shape of a citation network.
// Repeated draws of one (row, col) are dropped, so every column stays
// uniform.
func powerLawStochastic(t testing.TB, seed int64, n, nnz int) *Stochastic {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, 0, nnz)
	for i := 0; i < nnz; i++ {
		// Quadratic preference: row ~ n·u² concentrates entries on low rows.
		u := rng.Float64()
		row := int32(float64(n) * u * u)
		if int(row) >= n {
			row = int32(n - 1)
		}
		// Only the first 2/3 of the columns cite; the rest stay dangling.
		col := int32(rng.Intn(2*n/3 + 1))
		entries = append(entries, Coord{Row: row, Col: col, Val: 1})
	}
	m, err := NewMatrix(n, n, distinct(entries))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewColumnStochastic(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceStep is the serial three-sweep iteration the tiled kernel must
// reproduce bit-for-bit: CSC SpMV with uniform dangling redistribution,
// dense combine, then a separate L1 residual pass.
func referenceStep(s *Stochastic, next, x, att, rec []float64, alpha, beta, gamma float64) float64 {
	s.MulVec(next, x)
	for i := range next {
		next[i] = alpha*next[i] + beta*att[i] + gamma*rec[i]
	}
	return L1Diff(next, x)
}

func randomVectors(rng *rand.Rand, n int) (x, att, rec []float64) {
	x = make([]float64, n)
	att = make([]float64, n)
	rec = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64()
		att[i] = rng.Float64()
		rec[i] = rng.Float64()
	}
	Normalize(x)
	Normalize(att)
	Normalize(rec)
	return x, att, rec
}

func mustStochastic(t testing.TB, m *Matrix) *Stochastic {
	t.Helper()
	s, err := NewColumnStochastic(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// emptySquare returns an n×n matrix with no entries: every column dangling.
func emptySquare(t testing.TB, n int) *Matrix {
	t.Helper()
	m, err := NewMatrix(n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// windowAlign projects an arbitrary ordering onto the window-preserving
// family TiledRows accepts: within each 64Ki block of original ids, rows
// are ranked by their position in perm; across blocks nothing moves.
func windowAlign(perm []int32) []int32 {
	n := len(perm)
	out := make([]int32, n)
	for lo := 0; lo < n; lo += windowSize {
		ids := make([]int32, 0, windowSize)
		for i := lo; i < n && i < lo+windowSize; i++ {
			ids = append(ids, int32(i))
		}
		sort.Slice(ids, func(a, b int) bool { return perm[ids[a]] < perm[ids[b]] })
		for rank, id := range ids {
			out[id] = int32(lo + rank)
		}
	}
	return out
}
