package main

import (
	"fmt"

	"attrank/internal/core"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// runSmoke is the bit-equality gate verify.sh ends with: on a seeded
// synthetic graph, the production kernel must reproduce the reference
// bit for bit. It drives two arms through the same power iterations —
// the serial CSC reference (three sweeps) and the production tiled
// kernel under its degree-run relabeling, partitioned across the pool —
// comparing every score of every iteration bitwise, then cross-checks
// the operator's parallel Rank against its serial Rank the same way. Any
// mismatch is an error, which main turns into a non-zero exit.
func runSmoke(papers int, profile string) error {
	prof, err := synth.ProfileByName(profile)
	if err != nil {
		return err
	}
	prof = prof.Scale(float64(papers) / float64(prof.Papers))
	net, err := synth.Generate(prof)
	if err != nil {
		return err
	}
	s, err := net.StochasticMatrix()
	if err != nil {
		return err
	}
	n := net.N()
	now := net.MaxYear()
	const alpha, beta, gamma = 0.5, 0.3, 0.2
	att := core.AttentionVector(net, now, 3)
	rec := core.RecencyVector(net, now, -0.16)

	pool := sparse.NewPool(0)
	defer pool.Close()
	perm := s.DegreeOrder()
	tiled := s.Tiled(pool, perm)
	permute := func(dst, src []float64) {
		for i, p := range perm {
			dst[p] = src[i]
		}
	}
	attP := make([]float64, n)
	recP := make([]float64, n)
	permute(attP, att)
	permute(recP, rec)

	x := sparse.Uniform(n)
	want := make([]float64, n)
	xp := make([]float64, n)
	nextP := make([]float64, n)
	permute(xp, x)
	const iters = 25
	for it := 0; it < iters; it++ {
		// Serial CSC reference: the ground truth every kernel reproduces.
		s.MulVec(want, x)
		for i := range want {
			want[i] = alpha*want[i] + beta*att[i] + gamma*rec[i]
		}
		// Tiled kernel in relabeled space; compare through the permutation.
		tiled.Step(nextP, xp, attP, recP, alpha, beta, gamma, pool.Size())
		for i := range want {
			if nextP[perm[i]] != want[i] {
				return fmt.Errorf("smoke: iter %d: tiled score[%d] = %v, serial %v (not bit-identical)",
					it, i, nextP[perm[i]], want[i])
			}
		}
		x, want = want, x
		xp, nextP = nextP, xp
	}

	// The operator boundary: parallel tiled Rank vs the serial reference
	// Rank, scores in original paper order.
	op := core.Compile(net)
	defer op.Close()
	p := core.Params{Alpha: alpha, Beta: beta, Gamma: gamma, AttentionYears: 3, W: -0.16, Workers: -1}
	par, err := op.Rank(now, p)
	if err != nil {
		return err
	}
	p.Workers = 0
	ser, err := op.Rank(now, p)
	if err != nil {
		return err
	}
	if par.Iterations != ser.Iterations || par.Converged != ser.Converged {
		return fmt.Errorf("smoke: rank iters/converged %d/%v parallel vs %d/%v serial",
			par.Iterations, par.Converged, ser.Iterations, ser.Converged)
	}
	for i := range ser.Scores {
		if par.Scores[i] != ser.Scores[i] {
			return fmt.Errorf("smoke: rank score[%d] = %v parallel, %v serial (not bit-identical)",
				i, par.Scores[i], ser.Scores[i])
		}
	}
	fmt.Printf("smoke: OK — %d iterations × %d papers bit-identical across serial and tiled kernels; parallel Rank == serial Rank (%d iters)\n",
		iters, n, ser.Iterations)
	return nil
}
