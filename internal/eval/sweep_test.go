package eval

import (
	"math/rand"
	"strconv"
	"testing"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/metrics"
)

// randomCitationNet builds a random preferential-ish citation network big
// enough that the sweep spreads its cells over several workers.
func randomCitationNet(t testing.TB, seed int64, size int) *graph.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		if _, err := b.AddPaper("p"+strconv.Itoa(i), 1980+i/10, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < size; i++ {
		for r := rng.Intn(5); r > 0; r-- {
			b.AddEdgeByIndex(int32(i), int32(rng.Intn(i)))
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSweepAttRankMatchesSequentialSweep pins the sweep's contract: it
// returns, cell for cell in grid order, exactly the value-or-error of a
// sequential sweep through the serial reference kernel — because the
// tiled kernel's scores are bit-identical to the serial CSC kernel's and
// the scratch metrics are bit-identical to the allocating ones. The
// invalid-cell grid pins per-cell errors: a cell whose α+β+γ ≠ 1 gets
// its own Err and its neighbours keep their values.
func TestSweepAttRankMatchesSequentialSweep(t *testing.T) {
	net := randomCitationNet(t, 515, 300)
	s, err := NewSplit(net, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.GroundTruth()
	table3 := AttRankGrid(-0.25)
	invalid := []core.Params{
		table3[0],
		table3[len(table3)/2],
		{Alpha: 0.9, Beta: 0.9, Gamma: 0.9, AttentionYears: 3, W: -0.25}, // invalid: sum > 1
		table3[len(table3)/2+1],
		table3[len(table3)-1],
	}
	for _, tc := range []struct {
		name     string
		grid     []core.Params
		mustFail map[int]bool
	}{
		{"table3", table3, nil},
		{"invalid-cell", invalid, map[int]bool{2: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSweepAgainstSerial(t, s, truth, tc.grid, tc.mustFail)
		})
	}
}

// checkSweepAgainstSerial runs SweepAttRank over grid and compares every
// cell with a serial-reference rank (Workers = 0) scored by the
// allocating metric. With mustFail set, exactly the cells it marks must
// fail; either way, failures must agree with the serial arm.
func checkSweepAgainstSerial(t *testing.T, s *Split, truth []float64, grid []core.Params, mustFail map[int]bool) {
	t.Helper()
	cells := SweepAttRank(s, truth, grid, Rho())
	if len(cells) != len(grid) {
		t.Fatalf("cells = %d, want %d", len(cells), len(grid))
	}
	op := core.OperatorFor(s.Current)
	for i, p := range grid {
		q := cells[i].Params
		if q.Alpha != p.Alpha || q.Beta != p.Beta || q.Gamma != p.Gamma ||
			q.AttentionYears != p.AttentionYears || q.W != p.W {
			t.Fatalf("cell %d carries params %+v, want grid order preserved (%+v)", i, q, p)
		}
		if mustFail != nil && mustFail[i] != (cells[i].Err != nil) {
			t.Fatalf("cell %d: err = %v, want error %v", i, cells[i].Err, mustFail[i])
		}
		p.Workers = 0
		res, err := op.Rank(s.TN, p)
		if err != nil {
			if cells[i].Err == nil {
				t.Fatalf("cell %d: serial reference errored (%v), sweep did not", i, err)
			}
			continue
		}
		want, wantErr := metrics.Spearman(res.Scores, truth)
		if (wantErr == nil) != (cells[i].Err == nil) {
			t.Fatalf("cell %d: err = %v, want %v", i, cells[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if cells[i].Value != want {
			t.Fatalf("cell %d (α=%.1f β=%.1f y=%d): value = %v, want exactly %v",
				i, p.Alpha, p.Beta, p.AttentionYears, cells[i].Value, want)
		}
	}
}
