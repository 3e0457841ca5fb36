package sparse

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// tiledBuilds counts tiled-layout compilations process-wide: the
// compile-once regression tests use it to prove that repeated ranks of
// one network cut the layout exactly once.
var tiledBuilds atomic.Int64

// TiledBuilds reports how many tiled layouts this process has compiled.
// Diagnostic hook for tests.
func TiledBuilds() int64 { return tiledBuilds.Load() }

// DefaultTileRows is the row-block height of the tiled layout. 2048 rows
// keep a tile's slice of the output vector L1-resident (16KB of next)
// while leaving dozens of tiles even on mid-sized corpora, so the
// nnz-balanced tile partitioner has granularity to work with.
const DefaultTileRows = 2048

// WindowBits fixes the column-window width of the tiled layout: columns
// are grouped into contiguous windows of 2^16 ORIGINAL ids, and every
// stored column word is a uint16 offset inside its window. 16 bits is
// the largest word that halves CSR's 4-byte column indices, and the
// 64Ki·8B = 512KB window of x it can address is the unit the relabeling
// optimizes within.
const WindowBits = 16

const windowSize = 1 << WindowBits

// TiledStochastic is the cache-aware compiled form of a column-stochastic
// matrix: one fused power-method step (SpMV, dangling share, combine and
// L1 residual in a single pass) over a row-blocked, index-compressed
// layout, optionally under a row/column relabeling (the same permutation
// applied to both sides, so the matrix stays column-stochastic).
//
// Uniform columns. Every column must hold one value: S[i,j] = 1/k_j for
// each reference of j (the paper's Eq. 4; the graph builder removes
// duplicate edges, so normalization yields bitwise-equal entries). The
// layout stores that value once per column in colVal instead of 8 bytes
// per entry, and the kernel gathers the premultiplied iterate
// y[c] = colVal[c]·x[c]. Each product is the same two bit patterns the
// reference multiplies, so every addend — and hence every score — is
// bit-identical to the per-entry form. TiledRows panics on a column with
// two different values.
//
// Layout. Rows are renumbered by perm (perm[old] = new) and grouped into
// contiguous blocks of tileRows rows — the unit of parallel partitioning.
// Entries are stored row-major; within a row they are ordered by
// ascending ORIGINAL column id, which segments them into runs per column
// window (window = original id >> WindowBits; the permutation is
// window-preserving, see below, so this is also the storage id's
// window). Each entry stores one uint16 word
//
//	word = storage column − wbase[window]
//
// where wbase[j] = min(j·64Ki, n−64Ki) so that x[wbase[j] : wbase[j]+64Ki]
// is always a full 64Ki slice of the iterate: the kernel gathers through
// a fixed-length window view, which both halves CSR's index bytes and
// lets the compiler drop the gather's bounds check (a uint16 cannot
// escape a 65536-long slice). splits[j−1][r] marks where row r's window-j
// run begins; with W = ⌈n/64Ki⌉ windows that is W−1 extra int32 planes,
// W−1 ≤ 1 for corpora up to 131k papers.
//
// Permutation contract. perm must be window-preserving: perm[i] >> 16 ==
// i >> 16 for every i (DegreeOrder produces one). Relabeling therefore
// reorders rows and columns freely WITHIN each 64Ki window but never
// across windows. That constraint is what keeps the kernel bit-exact, as
// follows.
//
// Accumulation order. The serial CSC reference kernel accumulates each
// row's dot product in ascending original-column order (CSC streams
// columns ascending). This layout canonicalizes on exactly that order
// regardless of perm: the builder scatters entries row by row while
// walking the CSC columns ascending, so row r's entries appear in
// ascending original-column order even when their storage ids are
// shuffled, and because the permutation is window-preserving the
// window-run segmentation is by original window too — walking the runs
// in window order IS walking the originals ascending. Each contribution
// val·x[col] is bitwise the value the identity layout reads (a permuted
// vector is a copy, not an arithmetic transform), so every score in
// permuted space equals the identity-layout score of the corresponding
// original row, bit for bit. The dangling-mass gather is kept in
// ascending original-column order for the same reason. Only the L1
// residual may differ in its final ulps, because per-partition partials
// group different row subsets; the residual is a stopping criterion,
// not an output.
type TiledStochastic struct {
	rows     int
	nnz      int
	windows  int     // W = ⌈rows/64Ki⌉ column windows
	rowPtr   []int32 // permuted-row entry pointers, len rows+1
	splits   [][]int32
	colVal   []float64 // per-storage-column value (see Uniform columns), len rows
	cols     []uint16  // one window-local word per entry
	wbase    []int32   // len W: x-offset of each window view
	tiles    []tileHeader
	dangling []int32 // permuted dangling columns, ascending ORIGINAL order
	perm     []int32 // old → new (shared, read-only; identity if nil given)
	pool     *Pool

	mu    sync.Mutex
	parts map[int][]int32 // partition count → tile-range boundaries

	scratch *VecPool // len-rows vectors, the per-step y buffer

	occupiedRow int // rows with ≥1 entry (for occupancy telemetry)
}

// tileHeader is one row block — the unit the partitioner schedules.
type tileHeader struct {
	rowLo, rowHi int32 // permuted row range [rowLo, rowHi)
}

// Tiled compiles the stochastic matrix into the tiled layout under the
// given relabeling (nil = identity) at the default tile height. The pool
// is owned by the caller; nil restricts Step to parts ≤ 1. perm must be
// window-preserving and every column uniform (see the type comment).
func (s *Stochastic) Tiled(pool *Pool, perm []int32) *TiledStochastic {
	return s.TiledRows(pool, perm, DefaultTileRows)
}

// TiledRows is Tiled with an explicit tile height, exposed for layout
// studies and the boundary-shape tests (single-tile graphs, many-tile
// partitions via tiny heights). It panics on a permutation that crosses
// a window or on a column holding two different values.
func (s *Stochastic) TiledRows(pool *Pool, perm []int32, tileRows int) *TiledStochastic {
	if tileRows < 1 {
		tileRows = DefaultTileRows
	}
	tiledBuilds.Add(1)
	m := s.m
	n := m.rows
	if perm == nil {
		perm = IdentityPerm(n)
	}
	for i, p := range perm {
		if p>>WindowBits != int32(i)>>WindowBits {
			panic(fmt.Sprintf("sparse: Tiled permutation is not window-preserving: perm[%d] = %d crosses a %d-id window", i, p, windowSize))
		}
	}
	w := (n + windowSize - 1) / windowSize
	if w < 1 {
		w = 1
	}
	t := &TiledStochastic{
		rows:    n,
		nnz:     len(m.val),
		windows: w,
		rowPtr:  make([]int32, n+1),
		cols:    make([]uint16, len(m.val)),
		colVal:  make([]float64, n),
		wbase:   make([]int32, w),
		perm:    perm,
		pool:    pool,
		parts:   make(map[int][]int32),
		scratch: NewVecPool(n),
	}
	for c := 0; c < m.cols; c++ {
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		if lo == hi {
			continue
		}
		v := m.val[lo]
		for k := lo + 1; k < hi; k++ {
			if m.val[k] != v {
				panic(fmt.Sprintf("sparse: Tiled column %d is not uniform: entries %v and %v", c, v, m.val[k]))
			}
		}
		t.colVal[perm[c]] = v
	}
	for j := range t.wbase {
		base := j << WindowBits
		if max := n - windowSize; base > max && max >= 0 {
			base = max
		}
		t.wbase[j] = int32(base)
	}

	// Pass 1: entry counts per permuted row.
	for _, r := range m.rowIdx {
		t.rowPtr[perm[r]+1]++
	}
	for i := 0; i < n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}

	// Pass 2: scatter window-local column words. Walking the
	// CSC columns ascending fills every row's entries in ascending
	// ORIGINAL column order — the canonical accumulation order — which,
	// under a window-preserving perm, also groups them into ascending
	// window runs.
	winAt := make([]uint16, len(m.val)) // transient: window id per entry
	cursor := make([]int32, n)
	for c := 0; c < m.cols; c++ {
		pc := perm[c]
		j := pc >> WindowBits
		word := uint16(pc - t.wbase[j])
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			nr := perm[m.rowIdx[k]]
			pos := t.rowPtr[nr] + cursor[nr]
			t.cols[pos] = word
			winAt[pos] = uint16(j)
			cursor[nr]++
		}
	}

	// Pass 3: per-row window split points. splits[j-1][r] is the first
	// entry of row r whose window is ≥ j; runs are contiguous because
	// entries are window-sorted within each row.
	if w > 1 {
		t.splits = make([][]int32, w-1)
		for j := range t.splits {
			t.splits[j] = make([]int32, n)
		}
		for r := 0; r < n; r++ {
			a, b := t.rowPtr[r], t.rowPtr[r+1]
			k := a
			for j := 1; j < w; j++ {
				for k < b && int(winAt[k]) < j {
					k++
				}
				t.splits[j-1][r] = k
			}
		}
	}

	// Pass 4: cut row blocks and count occupancy.
	for lo := 0; lo < n; lo += tileRows {
		hi := lo + tileRows
		if hi > n {
			hi = n
		}
		t.tiles = append(t.tiles, tileHeader{rowLo: int32(lo), rowHi: int32(hi)})
	}
	for r := 0; r < n; r++ {
		if t.rowPtr[r+1] > t.rowPtr[r] {
			t.occupiedRow++
		}
	}

	// Dangling columns: permuted ids kept in ascending original order so
	// the sequential mass gather matches the reference bit for bit.
	if len(s.dangling) > 0 {
		t.dangling = make([]int32, len(s.dangling))
		for i, c := range s.dangling {
			t.dangling[i] = perm[c]
		}
	}
	return t
}

// N returns the matrix dimension.
func (t *TiledStochastic) N() int { return t.rows }

// NNZ returns the number of stored entries.
func (t *TiledStochastic) NNZ() int { return t.nnz }

// Perm returns the relabeling this layout was compiled under (old → new).
// Callers must treat it as read-only.
func (t *TiledStochastic) Perm() []int32 { return t.perm }

// LayoutStats describes the compiled layout for telemetry and benches.
type LayoutStats struct {
	Rows      int     // matrix dimension
	NNZ       int     // stored entries
	Tiles     int     // row blocks
	Windows   int     // 64Ki column windows (W−1 split planes)
	Occupancy float64 // fraction of rows holding at least one entry
	// BytesPerNNZ is the layout's total footprint (values, column words,
	// row pointers, window splits, tile headers) divided by nnz — the
	// bytes the kernel must move per nonzero. The CSR baseline is 12
	// bytes/nnz of val+colIdx plus 4 bytes/row of rowPtr; the tiled
	// layout stores values once per column, leaving ~2 bytes of column
	// word per entry.
	BytesPerNNZ float64
	IndexBytes  int64 // column words + row pointers + splits + tile headers
	ValueBytes  int64 // colVal: one float64 per column
	TotalBytes  int64
}

// Stats computes the layout statistics.
func (t *TiledStochastic) Stats() LayoutStats {
	const tileHeaderBytes = 8 // 2×int32
	idx := int64(len(t.cols))*2 + int64(len(t.rowPtr))*4 + int64(len(t.tiles))*tileHeaderBytes
	for _, sp := range t.splits {
		idx += int64(len(sp)) * 4
	}
	vals := int64(len(t.colVal)) * 8
	total := idx + vals
	st := LayoutStats{
		Rows:       t.rows,
		NNZ:        t.nnz,
		Tiles:      len(t.tiles),
		Windows:    t.windows,
		IndexBytes: idx,
		ValueBytes: vals,
		TotalBytes: total,
	}
	if t.rows > 0 {
		st.Occupancy = float64(t.occupiedRow) / float64(t.rows)
	}
	if t.nnz > 0 {
		st.BytesPerNNZ = float64(total) / float64(t.nnz)
	}
	return st
}

// partition returns (building and caching on first use) the tile-range
// boundaries for the given partition count.
func (t *TiledStochastic) partition(parts int) []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.parts[parts]; ok {
		return b
	}
	b := PartitionTiles(t.tiles, t.rowPtr, parts)
	t.parts[parts] = b
	return b
}

// PartitionTiles splits tiles into at most parts contiguous ranges of
// near-equal work (entries + rows). It never returns an empty range:
// when parts exceeds the number of tiles — or a handful of tiles hold
// all the work — the boundary list is compacted, so len(bounds)−1 is the
// true partition count.
func PartitionTiles(tiles []tileHeader, rowPtr []int32, parts int) []int32 {
	nt := len(tiles)
	if parts > nt {
		parts = nt
	}
	if parts < 1 {
		parts = 1
	}
	// work[i] = cumulative entries+rows before tile i.
	work := make([]int64, nt+1)
	for i, h := range tiles {
		work[i+1] = work[i] + int64(rowPtr[h.rowHi]-rowPtr[h.rowLo]) + int64(h.rowHi-h.rowLo)
	}
	total := work[nt]
	bounds := make([]int32, 1, parts+1)
	prev := 0
	for k := 1; k < parts; k++ {
		target := total * int64(k) / int64(parts)
		b := prev
		for b < nt && work[b] < target {
			b++
		}
		if b > prev { // skip would-be empty ranges
			bounds = append(bounds, int32(b))
			prev = b
		}
	}
	if nt > 0 && prev == nt {
		// The last recorded cut already reached the end; the final range
		// would be empty. Drop the duplicate boundary.
		bounds = bounds[:len(bounds)-1]
	}
	return append(bounds, int32(nt))
}

// Step computes next = α·S·x + β·att + γ·rec in one tiled pass and
// returns the L1 residual Σ|next[i] − x[i]|, scores bit-identical to the
// serial CSC step (Stochastic.MulVec plus the combine). All vectors are
// in the layout's storage (permuted) space. parts selects the number of
// tile ranges; with parts ≤ 1 the pass runs on the calling goroutine.
// next must not alias x. Safe for concurrent use with distinct next/x.
func (t *TiledStochastic) Step(next, x, att, rec []float64, alpha, beta, gamma float64, parts int) float64 {
	// Dangling mass first, sequentially, in ascending original-column
	// order (see the accumulation-order note on the type).
	hasDangling := len(t.dangling) > 0
	share := 0.0
	if hasDangling {
		mass := 0.0
		for _, c := range t.dangling {
			mass += x[c]
		}
		share = mass / float64(t.rows)
	}
	// Fold the per-column value into the iterate once:
	// y[c] = colVal[c]·x[c]. Every per-entry product val·x[col] the
	// reference computes is the identical multiplication of the identical
	// bit patterns, so gathering y preserves every addend bitwise while
	// the hot loop streams no value bytes per entry.
	y := t.getY()
	cv := t.colVal
	for i, xi := range x[:len(cv)] {
		y[i] = cv[i] * xi
	}
	defer t.putY(y)
	if parts <= 1 || t.pool == nil {
		return t.stepTiles(0, len(t.tiles), next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
	}
	// Even a single compacted range goes through the pool: treeSum of one
	// partial is that partial, so the bits match the direct call, and a
	// caller that asked for parallelism always exercises the workers
	// (small graphs collapse to one tile, and the pool-lifecycle tests
	// rely on parallel ranks scheduling them).
	bounds := t.partition(parts)
	partial := make([]float64, len(bounds)-1)
	t.pool.Run(len(partial), func(i int) {
		partial[i] = t.stepTiles(int(bounds[i]), int(bounds[i+1]),
			next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
	})
	return treeSum(partial)
}

// treeSum reduces the worker partials by pairwise halving — deterministic
// for a fixed partition count regardless of worker scheduling.
func treeSum(p []float64) float64 {
	switch len(p) {
	case 0:
		return 0
	case 1:
		return p[0]
	}
	mid := len(p) / 2
	return treeSum(p[:mid]) + treeSum(p[mid:])
}

// getY leases the per-step y buffer (len rows); putY returns it. The
// VecPool keeps concurrent Steps on one layout race-free without
// allocating a fresh vector per iteration.
func (t *TiledStochastic) getY() []float64 { return t.scratch.Get() }

func (t *TiledStochastic) putY(y []float64) { t.scratch.Put(y) }

// stepTiles is the per-worker kernel over tiles [tLo, tHi): the fused
// update plus a partial L1 residual, arithmetic mirrored expression for
// expression on the serial reference's combine. y is the premultiplied
// iterate. This generic loop serves three or more windows; one and two
// windows take the specializations below.
func (t *TiledStochastic) stepTiles(tLo, tHi int, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	if t.rows < windowSize {
		return t.stepTilesSmall(tLo, tHi, next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
	}
	if t.windows == 2 {
		return t.stepTilesW2(tLo, tHi, next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
	}
	resid := 0.0
	rowPtr, colw := t.rowPtr, t.cols
	for ti := tLo; ti < tHi; ti++ {
		h := &t.tiles[ti]
		for r := int(h.rowLo); r < int(h.rowHi); r++ {
			k := int(rowPtr[r])
			end := int(rowPtr[r+1])
			s := 0.0
			for j := 0; j < len(t.wbase); j++ {
				segEnd := end
				if j < len(t.splits) {
					segEnd = int(t.splits[j][r])
				}
				if segEnd > k {
					// A fixed-length 64Ki view of y: the uint16 word
					// indexes it with the bounds check compiled away.
					yw := y[t.wbase[j]:]
					yw = yw[:windowSize:windowSize]
					cs := colw[k:segEnd]
					for _, c := range cs {
						s += yw[c]
					}
					k = segEnd
				}
			}
			if hasDangling {
				s += share
			}
			v := alpha*s + beta*att[r] + gamma*rec[r]
			next[r] = v
			d := v - x[r]
			if d < 0 {
				d = -d
			}
			resid += d
		}
	}
	return resid
}

// stepTilesW2 is the two-window specialization — the common shape for
// corpora between 64Ki and 128Ki papers (the benchmark's 100k network).
// The window views of y and the single split plane hoist out of the row
// loop, so each row runs two back-to-back bounds-check-free gather-add
// loops with nothing rebuilt in between.
func (t *TiledStochastic) stepTilesW2(tLo, tHi int, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	resid := 0.0
	rowPtr, colw := t.rowPtr, t.cols
	yw0 := y[t.wbase[0]:]
	yw0 = yw0[:windowSize:windowSize]
	yw1 := y[t.wbase[1]:]
	yw1 = yw1[:windowSize:windowSize]
	split := t.splits[0]
	for ti := tLo; ti < tHi; ti++ {
		h := &t.tiles[ti]
		for r := int(h.rowLo); r < int(h.rowHi); r++ {
			a, m, b := rowPtr[r], split[r], rowPtr[r+1]
			s := 0.0
			for _, c := range colw[a:m] {
				s += yw0[c]
			}
			for _, c := range colw[m:b] {
				s += yw1[c]
			}
			if hasDangling {
				s += share
			}
			v := alpha*s + beta*att[r] + gamma*rec[r]
			next[r] = v
			d := v - x[r]
			if d < 0 {
				d = -d
			}
			resid += d
		}
	}
	return resid
}

// stepTilesSmall is the single-window path for matrices under 64Ki rows:
// no split planes, column words are absolute storage ids.
func (t *TiledStochastic) stepTilesSmall(tLo, tHi int, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	resid := 0.0
	rowPtr, colw := t.rowPtr, t.cols
	for ti := tLo; ti < tHi; ti++ {
		h := &t.tiles[ti]
		for r := int(h.rowLo); r < int(h.rowHi); r++ {
			a, b := rowPtr[r], rowPtr[r+1]
			s := 0.0
			for _, c := range colw[a:b] {
				s += y[c]
			}
			if hasDangling {
				s += share
			}
			v := alpha*s + beta*att[r] + gamma*rec[r]
			next[r] = v
			d := v - x[r]
			if d < 0 {
				d = -d
			}
			resid += d
		}
	}
	return resid
}
