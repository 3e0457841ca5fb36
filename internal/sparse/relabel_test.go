package sparse

import "testing"

// TestIdentityPerm covers the trivial layout used when relabeling is
// disabled, and InversePerm on a non-trivial permutation.
func TestIdentityPerm(t *testing.T) {
	p := IdentityPerm(5)
	for i, v := range p {
		if v != int32(i) {
			t.Fatalf("IdentityPerm[%d] = %d", i, v)
		}
	}
	perm := []int32{2, 0, 3, 1}
	inv := InversePerm(perm)
	for i := range perm {
		if inv[perm[i]] != int32(i) {
			t.Fatalf("InversePerm(%v) = %v", perm, inv)
		}
	}
}

// TestDegreeOrder pins the production relabeling contract: the result is
// a window-preserving bijection that sorts rows within each 64Ki window
// lexicographically by per-column-window entry counts, breaking ties by
// original id.
func TestDegreeOrder(t *testing.T) {
	// Small single-window case with known counts: row r holds r%4 entries.
	n := 12
	var entries []Coord
	for r := 0; r < n; r++ {
		for k := 0; k < r%4; k++ {
			entries = append(entries, Coord{Row: int32(r), Col: int32((r + k + 1) % n), Val: 1})
		}
	}
	s := mustStochastic(t, mustMatrix2(t, n, n, entries))

	perm := s.DegreeOrder()
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("DegreeOrder not a bijection: %v", perm)
		}
		seen[p] = true
	}
	count := make([]int, n)
	for _, e := range entries {
		count[e.Row]++
	}
	inv := InversePerm(perm)
	for k := 1; k < n; k++ {
		a, b := inv[k-1], inv[k]
		if count[a] > count[b] {
			t.Fatalf("rows not sorted by entry count: storage %d (row %d, %d entries) before storage %d (row %d, %d entries)",
				k-1, a, count[a], k, b, count[b])
		}
		if count[a] == count[b] && a > b {
			t.Fatalf("equal-count tie not broken by id: row %d before row %d", a, b)
		}
	}

	// Two-window case: the result must be window-preserving and usable by
	// TiledRows directly.
	big := 70000
	bs := mustStochastic(t, uniformMatrix(t, 13, big, 8000))
	bperm := bs.DegreeOrder()
	for i, p := range bperm {
		if p>>WindowBits != int32(i)>>WindowBits {
			t.Fatalf("DegreeOrder crosses a window: perm[%d] = %d", i, p)
		}
	}
	bs.Tiled(nil, bperm) // must not panic
}
