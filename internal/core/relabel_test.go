package core

import (
	"math"
	"math/rand"
	"testing"

	"attrank/internal/sparse"
)

// TestRankRelabelingInvariance is the operator-level metamorphic suite
// for the cache-aware relabeling: however the kernel's rows are
// relabeled, Rank must return — in original paper-id order — exactly the
// bits the identity layout and the serial CSC reference return. Ranking
// order, scores, iteration counts and convergence are all pinned; only
// the residuals (stopping criterion, summed in storage order) may move
// in their last ulps.
func TestRankRelabelingInvariance(t *testing.T) {
	net := randomNet(t, 777, 400)
	n := net.N()
	now := net.MaxYear()

	rng := rand.New(rand.NewSource(13))
	warm := make([]float64, n)
	for i := range warm {
		warm[i] = rng.Float64()
	}
	grid := []Params{
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 1},
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 3},
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: -1},
		{Alpha: 0.3, Beta: 0.3, Gamma: 0.4, AttentionYears: 2, W: -0.3, Workers: 2, Start: warm},
		{Alpha: 0.85, Beta: 0.1, Gamma: 0.05, AttentionYears: 1, W: -0.2, Workers: 2, MaxIter: 4},
	}

	// Baselines per cell: the identity layout and the serial reference.
	idOp := Compile(net)
	idOp.forcePermutation(sparse.IdentityPerm(n))
	defer idOp.Close()
	serial := make([]*Result, len(grid))
	baseline := make([]*Result, len(grid))
	for i, p := range grid {
		q := p
		q.Workers = 0
		var err error
		if serial[i], err = idOp.Rank(now, q); err != nil {
			t.Fatal(err)
		}
		if baseline[i], err = idOp.Rank(now, p); err != nil {
			t.Fatal(err)
		}
		// The identity layout itself must match the serial ground truth.
		for r := range serial[i].Scores {
			if baseline[i].Scores[r] != serial[i].Scores[r] {
				t.Fatalf("cell %d: identity layout score[%d] differs from serial reference", i, r)
			}
		}
	}

	perms := make([][]int32, 0, 4)
	for k := 0; k < 3; k++ {
		perm := make([]int32, n)
		for i, v := range rng.Perm(n) {
			perm[i] = int32(v)
		}
		perms = append(perms, perm)
	}
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(n - 1 - i)
	}
	perms = append(perms, rev)

	for pi, perm := range perms {
		op := Compile(net)
		op.forcePermutation(perm)
		for i, p := range grid {
			got, err := op.Rank(now, p)
			if err != nil {
				t.Fatal(err)
			}
			want := baseline[i]
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("perm %d cell %d: iters/converged = %d/%v, want %d/%v",
					pi, i, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			for r := range want.Scores {
				if got.Scores[r] != want.Scores[r] {
					t.Fatalf("perm %d cell %d: score[%d] = %v, want %v (not bit-identical)",
						pi, i, r, got.Scores[r], want.Scores[r])
				}
			}
			for k := range want.Residuals {
				w := want.Residuals[k]
				if math.Abs(got.Residuals[k]-w) > 1e-12*(1+math.Abs(w)) {
					t.Fatalf("perm %d cell %d: residual %d = %v, want ≈ %v",
						pi, i, k, got.Residuals[k], w)
				}
			}
		}
		op.Close()
	}
}

// TestForcePermutationAfterCompilePanics pins the test hook's contract:
// relabelings are compile-time only.
func TestForcePermutationAfterCompilePanics(t *testing.T) {
	net := randomNet(t, 778, 60)
	op := Compile(net)
	defer op.Close()
	if _, err := op.Rank(net.MaxYear(), Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 2, W: -0.2, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("forcePermutation after kernel compile did not panic")
		}
	}()
	op.forcePermutation(sparse.IdentityPerm(net.N()))
}

// TestCompileStatsLayout: PrimeKernel must report the concurrent compile
// pipeline's timings and a layout whose shape matches the network.
func TestCompileStatsLayout(t *testing.T) {
	net := randomNet(t, 779, 500)
	op := Compile(net)
	defer op.Close()
	cs, err := op.PrimeKernel()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Layout.Rows != net.N() || cs.Layout.NNZ != net.Edges() {
		t.Fatalf("layout rows/nnz = %d/%d, want %d/%d",
			cs.Layout.Rows, cs.Layout.NNZ, net.N(), net.Edges())
	}
	if cs.Layout.Tiles < 1 || cs.Layout.BytesPerNNZ <= 0 {
		t.Fatalf("layout stats not populated: %+v", cs.Layout)
	}
	if cs.WallNS <= 0 || cs.TiledNS <= 0 {
		t.Fatalf("compile timings not populated: %+v", cs)
	}
	// Priming again must be a no-op returning the same stats.
	again, err := op.PrimeKernel()
	if err != nil {
		t.Fatal(err)
	}
	if again != cs {
		t.Fatalf("PrimeKernel recompiled: %+v then %+v", cs, again)
	}
}
