package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"attrank/internal/core"
	"attrank/internal/eval"
	"attrank/internal/metrics"
	"attrank/internal/synth"
)

type sweepReport struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Profile     string `json:"profile"`
	Papers      int    `json:"papers"`
	CurrentN    int    `json:"current_papers"`
	Edges       int    `json:"edges"`
	GridCells   int    `json:"grid_cells"`
	Reps        int    `json:"reps"`

	// Full Table-3 grid sweep, best of reps, in nanoseconds. The
	// sequential arm replays the seed implementation cell by cell: one
	// serial-reference op.Rank per cell plus a fresh allocating Spearman
	// per cell. The sweep arm is eval.SweepAttRank: one tiled-kernel
	// op.Rank per cell, scored with a per-worker scratch Spearman.
	SequentialNS          int64   `json:"sequential_sweep_ns"`
	SweepNS               int64   `json:"sweep_ns"`
	SequentialCellsPerSec float64 `json:"sequential_cells_per_sec"`
	SweepCellsPerSec      float64 `json:"sweep_cells_per_sec"`
	SweepVsSequential     float64 `json:"sweep_vs_sequential_speedup"`

	// BitIdentical records the runtime cross-check that every cell value
	// of the sweep arm equals the sequential arm's float64 exactly.
	BitIdentical bool `json:"bit_identical"`
}

// runSweep benchmarks the full AttRank grid sweep — the Table-3 workload —
// eval.SweepAttRank against the sequential sweep, and writes BENCH_sweep.json.
func runSweep(papers int, profile, out string, reps int) error {
	prof, err := synth.ProfileByName(profile)
	if err != nil {
		return err
	}
	prof = prof.Scale(float64(papers) / float64(prof.Papers))
	fmt.Printf("generating %s network with %d papers…\n", prof.Name, prof.Papers)
	net, err := synth.Generate(prof)
	if err != nil {
		return err
	}
	s, err := eval.NewSplit(net, 2.0)
	if err != nil {
		return err
	}
	truth := s.GroundTruth()
	grid := eval.AttRankGrid(-0.16)
	m := eval.Rho()
	op := core.OperatorFor(s.Current)

	r := sweepReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Profile:     prof.Name,
		Papers:      net.N(),
		CurrentN:    s.Current.N(),
		Edges:       net.Edges(),
		GridCells:   len(grid),
		Reps:        reps,
	}
	fmt.Printf("split: current=%d papers, grid=%d cells\n", r.CurrentN, r.GridCells)

	// The sequential arm is the seed sweep: per-cell Rank (Workers = 0 →
	// the serial CSC reference kernel) and a fresh allocating Spearman,
	// in grid order. At GOMAXPROCS=1 this is exactly what the seed's
	// goroutine-per-cell sweep degenerates to.
	seqVals := make([]float64, len(grid))
	seqErr := make([]bool, len(grid))
	sequential := func() {
		for i, p := range grid {
			res, err := op.Rank(s.TN, p)
			if err != nil {
				seqErr[i] = true
				continue
			}
			v, err := metrics.Spearman(res.Scores, truth)
			if err != nil {
				seqErr[i] = true
				continue
			}
			seqVals[i] = v
		}
	}

	var cells []eval.AttRankCell
	sweep := func() { cells = eval.SweepAttRank(s, truth, grid, m) }

	// Untimed priming runs: compile the operator's serial and tiled
	// kernels, then pin the runtime bit-equality cross-check.
	fmt.Println("priming (untimed full sweeps)…")
	sequential()
	sweep()
	r.BitIdentical = true
	for i := range grid {
		if seqErr[i] != (cells[i].Err != nil) || (!seqErr[i] && cells[i].Value != seqVals[i]) {
			r.BitIdentical = false
			fmt.Printf("MISMATCH cell %d: sequential %v (err=%v) sweep %v (err=%v)\n",
				i, seqVals[i], seqErr[i], cells[i].Value, cells[i].Err)
		}
	}

	// Interleave the arms' reps so machine drift (thermals, neighbors,
	// GC pacing) hits both sides equally instead of biasing whichever
	// batch of reps ran second; best-of suppresses the remaining noise.
	fmt.Printf("timing sequential and sweep arms interleaved (%d reps each)…\n", reps)
	r.SequentialNS, r.SweepNS = int64(1<<63-1), int64(1<<63-1)
	for i := 0; i < reps; i++ {
		if d := best(1, sequential); d < r.SequentialNS {
			r.SequentialNS = d
		}
		if d := best(1, sweep); d < r.SweepNS {
			r.SweepNS = d
		}
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	r.SequentialCellsPerSec = float64(len(grid)) / secs(r.SequentialNS)
	r.SweepCellsPerSec = float64(len(grid)) / secs(r.SweepNS)
	r.SweepVsSequential = float64(r.SequentialNS) / float64(r.SweepNS)

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("sequential: %s (%.2f cells/s)\n", time.Duration(r.SequentialNS), r.SequentialCellsPerSec)
	fmt.Printf("sweep:      %s (%.2f cells/s)  %.2fx vs sequential  bit-identical=%v\n",
		time.Duration(r.SweepNS), r.SweepCellsPerSec, r.SweepVsSequential, r.BitIdentical)
	fmt.Printf("wrote %s\n", out)
	if !r.BitIdentical {
		return fmt.Errorf("SweepAttRank is not bit-identical to the sequential sweep")
	}
	return nil
}
