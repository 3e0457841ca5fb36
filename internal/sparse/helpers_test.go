package sparse

import (
	"math/rand"
	"testing"
)

func randomMatrix(t testing.TB, seed int64, n, nnz int) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, nnz)
	for i := range entries {
		entries[i] = Coord{
			Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: rng.Float64(),
		}
	}
	m, err := NewMatrix(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// powerLawStochastic builds a column-stochastic matrix whose in-degree
// distribution is heavily skewed (a few rows receive most of the entries)
// and whose tail columns are dangling — the shape of a citation network.
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
	m, err := NewMatrix(n, n, entries)
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
