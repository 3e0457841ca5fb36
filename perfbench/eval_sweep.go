package main

import (
	"fmt"
	"math"
	"time"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/eval"
	"attrank/internal/metrics"
)

// sweepRatio is the temporal split's test ratio (the future state holds
// 1.6× the current papers, the paper's default).
const sweepRatio = 1.6

// sweepState is eval_sweep's set-up: the split, its ground truth and the
// primed operator on the current state.
type sweepState struct {
	split *eval.Split
	truth []float64
	op    *core.Operator
	cst   core.CompileStats
	setup time.Duration
}

// setupSweep loads the input, splits it, computes the ground truth and
// primes the kernel.
func setupSweep(input string, tr *tracer) (*sweepState, error) {
	t0 := time.Now()
	root := tr.start("setup", 0, 0)
	ls := tr.start("dataio.load", root, 0)
	net, err := dataio.LoadFile(input)
	tr.end(ls)
	if err != nil {
		return nil, err
	}
	ss := tr.start("eval.split", root, 0)
	s, err := eval.NewSplit(net, sweepRatio)
	var truth []float64
	if err == nil {
		truth = s.GroundTruth()
	}
	tr.end(ss)
	if err != nil {
		return nil, err
	}
	cs := tr.start("core.compile", root, 0)
	op := core.OperatorFor(s.Current)
	cst, err := op.PrimeKernel()
	tr.end(cs)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	return &sweepState{split: s, truth: truth, op: op, cst: cst, setup: time.Since(t0)}, nil
}

// gateCells are the grid indices re-scored through the serial reference
// kernel: spread over α, β and y.
var gateCells = []int{0, 37, 74, 111, 148, 185, 222, 249}

// evalSweep: the paper's Table-3 AttRank grid through eval.SweepAttRank
// on a temporal split, in process, with no HTTP. Full grid passes run
// until the next one would overrun the measured seconds (at least one);
// ops_per_s is cells per second, the median over passes. The sparse
// kernel, core ranking and metrics.Spearman do nearly all the work;
// service, ingest and impact do none.
func evalSweep(o options, input, dir string, tr *tracer) (*outcome, error) {
	setups, err := childSetups(o, input)
	if err != nil {
		return nil, err
	}
	st, err := setupSweep(input, tr)
	if err != nil {
		return nil, err
	}
	setups = append(setups, st.setup.Seconds())
	grid := eval.AttRankGrid(rankParams.W)
	m := eval.Rho()

	var rates []float64
	var cells []eval.AttRankCell
	attempted, failed := 0, 0
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for {
		t0 := time.Now()
		sp := tr.start("eval.sweep", 0, 0)
		cells = eval.SweepAttRank(st.split, st.truth, grid, m)
		tr.end(sp)
		d := time.Since(t0)
		for _, c := range cells {
			attempted++
			if c.Err != nil {
				failed++
			}
		}
		rates = append(rates, float64(len(cells))/d.Seconds())
		if time.Since(start)+d > budget {
			break
		}
	}
	rss := peakRSSMB()

	g := newGate()
	g.check(failed == 0, "%d of %d cells failed", failed, attempted)
	bad := 0
	for _, i := range gateCells {
		if i >= len(grid) {
			continue
		}
		p := grid[i]
		p.Workers = 0
		res, err := st.op.Rank(st.split.TN, p)
		if err != nil {
			g.check(false, "serial reference, cell %d: %v", i, err)
			return nil, err
		}
		v, err := metrics.Spearman(res.Scores, st.truth)
		if err != nil || math.Float64bits(v) != math.Float64bits(cells[i].Value) {
			bad++
		}
	}
	g.check(bad == 0, "%d of %d sampled cells equal the serial reference bit for bit", len(gateCells)-bad, len(gateCells))

	out := &outcome{e2e: map[string]metric{}, attempted: attempted, failed: failed}
	out.e2e["setup_s"] = setupMetric(setups)
	out.e2e["peak_rss_mb"] = metric{Value: rss, Unit: "MB", n: 1}
	out.e2e["ops_per_s"] = metric{Value: median(rates), Unit: "ops/s", n: len(rates)}
	fmt.Printf("eval_sweep: current state %d papers, %d cells per pass, %d passes\n", st.split.Current.N(), len(grid), len(rates))
	if tr != nil {
		if err := traceSweep(tr, st, grid); err != nil {
			return nil, err
		}
	}
	out.correct, out.gateNotes = g.ok, g.notes
	out.layers, err = traceLayers(tr, o, input, dir, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// traceSweep records the sweep's layers on its set-up: the compiled
// layout's bytes per nonzero, then three cold ranks of the
// slowest-converging cell, each scored by metrics.Spearman.
func traceSweep(tr *tracer, st *sweepState, grid []core.Params) error {
	tr.value("sparse.bytes_per_nnz", st.cst.Layout.BytesPerNNZ)
	p := grid[len(grid)-1] // α = 0.5: the slowest-converging cells
	p.Workers = 1          // the kernel the sweep runs each cell on
	for rep := 0; rep < 3; rep++ {
		if err := replayRank(tr, st.op, st.split.TN, p); err != nil {
			return err
		}
		res, err := st.op.Rank(st.split.TN, p)
		if err != nil {
			return err
		}
		sp := tr.start("metrics.spearman", 0, 0)
		_, err = metrics.Spearman(res.Scores, st.truth)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}
