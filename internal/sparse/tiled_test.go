package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPerm returns a uniformly random permutation of [0, n).
func randomPerm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// permuteF64 returns dst with dst[perm[i]] = src[i].
func permuteF64(src []float64, perm []int32) []float64 {
	dst := make([]float64, len(src))
	for i, v := range src {
		dst[perm[i]] = v
	}
	return dst
}

// TestTiledStepBitIdenticalAtIdentity pins the compressed layout against
// the serial CSC reference at the identity relabeling: scores
// bit-identical to the serial step for every partition count, residual
// exactly the serial sum at one partition. Small tile heights
// force multi-tile layouts even on these tiny matrices.
func TestTiledStepBitIdenticalAtIdentity(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		s    *Stochastic
	}{
		{"random", mustStochastic(t, uniformMatrix(t, 31, 120, 700))},
		{"power-law-dangling", powerLawStochastic(t, 32, 150, 900)},
		{"all-dangling", mustStochastic(t, emptySquare(t, 40))},
	} {
		for _, tileRows := range []int{DefaultTileRows, 16, 1} {
			s := tc.s
			n := s.N()
			rng := rand.New(rand.NewSource(44))
			x, att, rec := randomVectors(rng, n)
			want := make([]float64, n)
			wantResid := referenceStep(s, want, x, att, rec, 0.5, 0.3, 0.2)

			ti := s.TiledRows(pool, nil, tileRows)
			if ti.N() != n || ti.NNZ() != s.m.NNZ() {
				t.Fatalf("%s/h=%d: N/NNZ = %d/%d, want %d/%d",
					tc.name, tileRows, ti.N(), ti.NNZ(), n, s.m.NNZ())
			}
			for _, parts := range []int{1, 2, 3, 7, 16, n + 5} {
				got := make([]float64, n)
				resid := ti.Step(got, x, att, rec, 0.5, 0.3, 0.2, parts)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/h=%d parts=%d: next[%d] = %v, want %v (not bit-identical)",
							tc.name, tileRows, parts, i, got[i], want[i])
					}
				}
				if parts == 1 && resid != wantResid {
					t.Fatalf("%s/h=%d parts=1: resid = %v, want exactly %v",
						tc.name, tileRows, resid, wantResid)
				}
				if math.Abs(resid-wantResid) > 1e-12*(1+math.Abs(wantResid)) {
					t.Fatalf("%s/h=%d parts=%d: resid = %v, want ≈ %v",
						tc.name, tileRows, parts, resid, wantResid)
				}
			}
		}
	}
}

// TestTiledStepQuick is the randomized form of the identity check: on
// random matrices, tile heights and partition counts the tiled step
// reproduces the serial CSC step bit for bit.
func TestTiledStepQuick(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	f := func(seed int64, rawParts, rawRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		s := mustStochastic(t, uniformMatrix(t, seed, n, n*3))
		x, att, rec := randomVectors(rng, n)
		want := make([]float64, n)
		referenceStep(s, want, x, att, rec, 0.4, 0.35, 0.25)
		got := make([]float64, n)
		ti := s.TiledRows(pool, randomPerm(rng, n), 1+int(rawRows%32))
		xp, attP, recP := permuteF64(x, ti.Perm()), permuteF64(att, ti.Perm()), permuteF64(rec, ti.Perm())
		ti.Step(got, xp, attP, recP, 0.4, 0.35, 0.25, 1+int(rawParts%11))
		for i := range want {
			if got[ti.Perm()[i]] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTiledRelabelingInvariance is the metamorphic suite of the tentpole:
// compile the same matrix under random relabelings, feed the permuted
// kernel permuted inputs, and demand that un-permuting the output returns
// the identity layout's bits exactly — the canonical accumulation order
// makes the scores permutation-invariant, not merely close.
func TestTiledRelabelingInvariance(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		s    *Stochastic
	}{
		{"random", mustStochastic(t, uniformMatrix(t, 51, 140, 800))},
		{"power-law-dangling", powerLawStochastic(t, 52, 160, 1000)},
		{"all-dangling", mustStochastic(t, emptySquare(t, 33))},
	} {
		s := tc.s
		n := s.N()
		rng := rand.New(rand.NewSource(66))
		x, att, rec := randomVectors(rng, n)
		id := s.TiledRows(pool, nil, 16)
		want := make([]float64, n)
		wantResid := id.Step(want, x, att, rec, 0.5, 0.3, 0.2, 1)

		// Three random relabelings plus full reversal.
		perms := [][]int32{}
		for k := 0; k < 3; k++ {
			perms = append(perms, randomPerm(rng, n))
		}
		rev := make([]int32, n)
		for i := range rev {
			rev[i] = int32(n - 1 - i)
		}
		perms = append(perms, rev)

		for pi, perm := range perms {
			tp := s.TiledRows(pool, perm, 16)
			if &tp.Perm()[0] != &perm[0] {
				t.Fatalf("%s/perm%d: Perm() does not expose the compiled relabeling", tc.name, pi)
			}
			xp := permuteF64(x, perm)
			attP := permuteF64(att, perm)
			recP := permuteF64(rec, perm)
			for _, parts := range []int{1, 3, 7} {
				got := make([]float64, n)
				resid := tp.Step(got, xp, attP, recP, 0.5, 0.3, 0.2, parts)
				for i := range want {
					if got[perm[i]] != want[i] {
						t.Fatalf("%s/perm%d parts=%d: score of original row %d = %v, want %v (not bit-identical)",
							tc.name, pi, parts, i, got[perm[i]], want[i])
					}
				}
				// The residual sums the same |d| values in a different row
				// order, so it is ulp-close, not bit-equal, across layouts.
				if math.Abs(resid-wantResid) > 1e-12*(1+math.Abs(wantResid)) {
					t.Fatalf("%s/perm%d parts=%d: resid = %v, want ≈ %v",
						tc.name, pi, parts, resid, wantResid)
				}
			}
		}
	}
}

// TestTiledMultiWindow forces the multi-window paths: a 70k-node matrix
// needs two 64Ki column windows (the two-window kernel) and a 150k-node
// one three (the generic window loop), so rows whose entries straddle a
// window boundary carry split points and the kernel walks several window
// runs per row. Scores must match the serial reference bit for bit,
// under identity and window-aligned random relabelings alike, and a
// cross-window permutation must be rejected.
func TestTiledMultiWindow(t *testing.T) {
	for _, tc := range []struct{ n, windows int }{{70000, 2}, {150000, 3}} {
		n := tc.n
		entries := []Coord{
			{Row: 5, Col: 0, Val: 1},
			{Row: 5, Col: int32(n / 2), Val: 1},
			{Row: 5, Col: int32(n - 1), Val: 1}, // row 5 straddles every window
			{Row: 9, Col: 1, Val: 1},
			{Row: 9, Col: int32(n - 2), Val: 1},
			{Row: 2100, Col: 7, Val: 1}, // second tile, window 0 only
			{Row: 2101, Col: 9, Val: 1},
			{Row: 69000, Col: 68000, Val: 1}, // window 1 only
		}
		rng := rand.New(rand.NewSource(71))
		for i := 0; i < 400; i++ {
			entries = append(entries, Coord{
				Row: int32(rng.Intn(64)), Col: int32(rng.Intn(n)), Val: 1,
			})
		}
		s := mustStochastic(t, mustMatrix2(t, n, n, distinct(entries)))

		ti := s.Tiled(nil, nil)
		if st := ti.Stats(); st.Windows != tc.windows {
			t.Fatalf("n=%d: layout has %d windows, want %d", n, st.Windows, tc.windows)
		}

		x, att, rec := randomVectors(rng, n)
		want := make([]float64, n)
		wantResid := referenceStep(s, want, x, att, rec, 0.5, 0.3, 0.2)
		got := make([]float64, n)
		if resid := ti.Step(got, x, att, rec, 0.5, 0.3, 0.2, 1); resid != wantResid {
			t.Fatalf("n=%d: multi-window resid = %v, want exactly %v", n, resid, wantResid)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: multi-window next[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}

		// Relabeled within windows: windowAlign projects a fully random
		// ordering onto the window-preserving family the layout accepts.
		perm := windowAlign(randomPerm(rng, n))
		tp := s.Tiled(nil, perm)
		xp := permuteF64(x, perm)
		attP := permuteF64(att, perm)
		recP := permuteF64(rec, perm)
		gotP := make([]float64, n)
		tp.Step(gotP, xp, attP, recP, 0.5, 0.3, 0.2, 1)
		for i := range want {
			if gotP[perm[i]] != want[i] {
				t.Fatalf("n=%d: relabeled multi-window score of row %d not bit-identical", n, i)
			}
		}

		// A permutation that moves ids across the 64Ki boundary violates
		// the layout contract and must be refused loudly.
		bad := IdentityPerm(n)
		bad[0], bad[n-1] = bad[n-1], bad[0]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: cross-window permutation did not panic", n)
				}
			}()
			s.Tiled(nil, bad)
		}()
	}
}

// mustMatrix2 is mustMatrix for testing.TB (the wide-tile test builds a
// large matrix and also serves benchmarks).
func mustMatrix2(t testing.TB, rows, cols int, entries []Coord) *Matrix {
	t.Helper()
	m, err := NewMatrix(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWindowAlign pins the test helper that projects an ordering onto the
// window-preserving permutation family: below 64Ki ids it is the
// identity transform (any
// permutation is already window-preserving there), above it the result
// keeps every id in its original window while preserving the given
// ordering's relative ranks inside each window.
func TestWindowAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	// Small n: a single window — windowAlign must return the permutation
	// unchanged (ranks of a permutation of [0,n) are the values
	// themselves).
	small := randomPerm(rng, 1000)
	aligned := windowAlign(small)
	for i := range small {
		if aligned[i] != small[i] {
			t.Fatalf("n=1000: windowAlign changed perm[%d] from %d to %d", i, small[i], aligned[i])
		}
	}

	// Large n: a fully random ordering projects to a bijection that never
	// crosses its 64Ki window and orders each window by the given ranks.
	const n = 150000 // three windows, the last one partial
	p := windowAlign(randomPerm(rng, n))
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("windowAlign result is not a bijection at %d", i)
		}
		seen[v] = true
		if v>>16 != int32(i)>>16 {
			t.Fatalf("windowAlign moved id %d into window %d", i, v>>16)
		}
	}

	// Rank preservation inside a window: reversal must reverse each
	// window internally.
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(n - 1 - i)
	}
	ar := windowAlign(rev)
	for i := 0; i < 65536; i++ {
		if want := int32(65535 - i); ar[i] != want {
			t.Fatalf("aligned reversal: ar[%d] = %d, want %d", i, ar[i], want)
		}
	}
	lo := (n >> 16) << 16 // partial tail window reverses onto [lo, n)
	for i := lo; i < n; i++ {
		if want := int32(lo + n - 1 - i); ar[i] != want {
			t.Fatalf("aligned reversal tail: ar[%d] = %d, want %d", i, ar[i], want)
		}
	}
	if len(windowAlign(nil)) != 0 {
		t.Fatal("windowAlign(nil) not empty")
	}
}

// TestPartitionTilesNoEmptyRanges checks the tile partitioner's contract
// on real layouts: strictly increasing boundaries (no empty ranges), full
// coverage, and at most min(parts, tiles) ranges — including when parts
// far exceeds the tile count or the work is concentrated in few tiles.
func TestPartitionTilesNoEmptyRanges(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Stochastic
		h    int
	}{
		{"power-law-h4", powerLawStochastic(t, 81, 160, 1200), 4},
		{"power-law-h64", powerLawStochastic(t, 82, 160, 1200), 64},
		{"single-tile", powerLawStochastic(t, 83, 50, 200), DefaultTileRows},
		{"all-dangling", mustStochastic(t, emptySquare(t, 40)), 8},
	} {
		ti := tc.s.TiledRows(nil, nil, tc.h)
		nt := len(ti.tiles)
		for _, parts := range []int{1, 2, 3, 8, 64, 500} {
			b := PartitionTiles(ti.tiles, ti.rowPtr, parts)
			if b[0] != 0 || b[len(b)-1] != int32(nt) {
				t.Fatalf("%s parts=%d: bounds %v do not cover [0,%d]", tc.name, parts, b, nt)
			}
			want := parts
			if want > nt {
				want = nt
			}
			if want < 1 {
				want = 1
			}
			if got := len(b) - 1; got < 1 || got > want {
				t.Fatalf("%s parts=%d: %d ranges, want between 1 and %d", tc.name, parts, got, want)
			}
			for i := 1; i < len(b); i++ {
				if nt > 0 && b[i] <= b[i-1] {
					t.Fatalf("%s parts=%d: bounds %v contain an empty range", tc.name, parts, b)
				}
			}
		}
	}
}

// TestTiledStatsCompression pins the satellite telemetry: the compressed
// layout must beat the 12 bytes/nnz CSR floor on a narrow-tile graph, and
// the stats must be internally consistent.
func TestTiledStatsCompression(t *testing.T) {
	s := powerLawStochastic(t, 91, 300, 2000)
	ti := s.Tiled(nil, nil)
	st := ti.Stats()
	if st.Rows != 300 || st.NNZ != s.m.NNZ() {
		t.Fatalf("stats rows/nnz = %d/%d, want %d/%d", st.Rows, st.NNZ, 300, s.m.NNZ())
	}
	if st.Tiles != 1 || st.Windows != 1 {
		t.Fatalf("300 rows compiled to %d tiles / %d windows, want 1/1", st.Tiles, st.Windows)
	}
	if st.Occupancy <= 0 || st.Occupancy > 1 {
		t.Fatalf("occupancy %v out of (0,1]", st.Occupancy)
	}
	if st.BytesPerNNZ >= 12 {
		t.Fatalf("bytes/nnz = %v, want < 12 (the uncompressed CSR floor)", st.BytesPerNNZ)
	}
	if st.TotalBytes != st.IndexBytes+st.ValueBytes {
		t.Fatalf("total %d != index %d + values %d", st.TotalBytes, st.IndexBytes, st.ValueBytes)
	}
}

// TestTiledValueCompression pins the uniform-column value compression:
// an unweighted citation matrix (every column normalized to 1/out-degree)
// stores one value per column and reproduces the serial reference bit
// for bit, while a matrix with a non-uniform column — weighted entries,
// or a duplicate coordinate summed to 2 — is refused.
func TestTiledValueCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 140

	// Unweighted: distinct coords, Val 1 → uniform columns.
	var uent []Coord
	for c := 0; c < n; c++ {
		for _, r := range rng.Perm(n)[:rng.Intn(6)] {
			uent = append(uent, Coord{Row: int32(r), Col: int32(c), Val: 1})
		}
	}
	uniform := mustStochastic(t, mustMatrix2(t, n, n, uent))
	ti := uniform.TiledRows(nil, randomPerm(rng, n), 16)
	if st := ti.Stats(); st.ValueBytes != int64(n)*8 {
		t.Fatalf("value bytes = %d, want one float64 per column (%d)", st.ValueBytes, n*8)
	}
	x, att, rec := randomVectors(rng, n)
	want := make([]float64, n)
	referenceStep(uniform, want, x, att, rec, 0.5, 0.3, 0.2)
	perm := ti.Perm()
	got := make([]float64, n)
	ti.Step(got, permuteF64(x, perm), permuteF64(att, perm), permuteF64(rec, perm), 0.5, 0.3, 0.2, 1)
	for i := range want {
		if got[perm[i]] != want[i] {
			t.Fatalf("score of original row %d = %v, want %v (not bit-identical)", i, got[perm[i]], want[i])
		}
	}

	// Weighted: same pattern, random weights. Duplicate: one more copy of
	// an entry whose column holds others, so NewMatrix sums it to 2.
	went := make([]Coord, len(uent))
	copy(went, uent)
	for i := range went {
		went[i].Val = 0.25 + rng.Float64()
	}
	var dup Coord
	for i := 1; i < len(uent); i++ {
		if uent[i].Col == uent[i-1].Col {
			dup = uent[i]
			break
		}
	}
	for _, tc := range []struct {
		name    string
		entries []Coord
	}{{"weighted", went}, {"duplicate", append(append([]Coord(nil), uent...), dup)}} {
		s := mustStochastic(t, mustMatrix2(t, n, n, tc.entries))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: non-uniform matrix compiled without a panic", tc.name)
				}
			}()
			s.TiledRows(nil, nil, 16)
		}()
	}
}

// The benchmarks time one power-method iteration of the tiled kernel on a
// skewed 20k-row matrix, across the pool and on the calling goroutine.

func benchTiled(b *testing.B, pool *Pool, parts int) {
	s := powerLawStochastic(b, 7, 20000, 200000)
	ti := s.Tiled(pool, nil)
	n := s.N()
	next, x, att, rec := make([]float64, n), Uniform(n), Uniform(n), Uniform(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti.Step(next, x, att, rec, 0.5, 0.3, 0.2, parts)
	}
}

func BenchmarkIterationTiled(b *testing.B) {
	pool := NewPool(0)
	defer pool.Close()
	benchTiled(b, pool, pool.Size())
}

func BenchmarkIterationTiledSerial(b *testing.B) { benchTiled(b, nil, 1) }
