package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/metrics"
)

// Every newPaperEvery-th write is a batch of newPaperBatch new papers,
// each citing one existing paper: the write batch of internal/load's mix
// (BatchSize 8), which forces a full epoch. The rest are citations
// between existing papers, each a push epoch. The share of new-paper
// batches is an unverified assumption; the fixed spacing keeps the
// number of forced full epochs the same for every seed.
const (
	newPaperEvery = 50
	newPaperBatch = 8
)

// serveWrite: the serve_read server as a freshness-first deployment
// (push epochs at tol 1e-6, a re-rank after every write, default
// reconcile cadence). One open-loop writer runs for the whole run. Beside
// it, a half-rate copy of the serve_read stream runs open-loop for 45% of
// the run, then one closed-loop reader for the rest: ops_per_s is its
// reads within the limit per second, so an epoch that takes the cores
// reads need shows there. This is where the whole epoch pipeline works:
// WAL, compaction, compile, rank, push, ordering, impact.Compute and
// publish.
func serveWrite(o options, input, dir string, tr *tracer) (*outcome, error) {
	setups, err := childSetups(o, input)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(input, dir, serverConfig("serve_write"), tr)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	setups = append(setups, srv.setup.Seconds())

	view0 := srv.ing.Ranking()
	writes := writeStream(view0.Net, o.seed, o.writeRate, o.seconds)
	mix := newReadMix(view0.Net, o.seed)
	openSecs, closedSecs := 0.45*o.seconds, 0.55*o.seconds
	reads := schedule(o.readRate/2, openSecs, mix.next)
	// The generator's connection budget is nproc: one for the writer,
	// the rest for the reads.
	readers := max(1, nproc()-1)
	pools := readPools(mix, readers)

	tl := newTally()
	wclient := newClient(1)
	rclient := newClient(readers)
	defer wclient.CloseIdleConnections()
	defer rclient.CloseIdleConnections()
	rp := newReplayer(srv, tr)

	closedLoop(rclient, srv.url, readers, 0.5, pools.next, func(s sample) { tl.record("warmup", s, readLimit) })

	vis := newVisibility(srv.ing, view0.Stats.Edges, time.Now().Add(time.Duration(openSecs*float64(time.Second))))
	go vis.run()

	var mu sync.Mutex
	var readLat, ackLat []float64
	var good []time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		late := openLoop(rclient, srv.url, reads, func(s sample) {
			tl.record("read", s, readLimit)
			rp.maybeReplay(s)
			mu.Lock()
			readLat = append(readLat, readLatencyMS(s))
			mu.Unlock()
		})
		tl.lateness("read", late)
		closedLoop(rclient, srv.url, readers, closedSecs, pools.next, func(s sample) {
			tl.record("closed", s, readLimit)
			rp.maybeReplay(s)
			if s.ok() && s.lat <= readLimit {
				mu.Lock()
				good = append(good, s.start.Add(s.wire))
				mu.Unlock()
			}
		})
	}()
	late := openLoop(wclient, srv.url, writes, func(s sample) {
		tl.record("write", s, 0)
		if !s.ok() {
			return
		}
		vis.acked(s)
		mu.Lock()
		ackLat = append(ackLat, float64(s.wire)/float64(time.Millisecond)) // from the POST, not from its due time
		mu.Unlock()
	})
	tl.lateness("write", late)
	wg.Wait()
	st := srv.ing.Status()
	invisible := vis.drain(20 * time.Second)
	rss := peakRSSMB()
	rps := blockRates(good, closedSecs)
	fmt.Printf("closed loop beside the writer: reads within the limit per second, by block: %.1f\n", rps)

	g := newGate()
	g.check(invisible == 0, "%d acknowledged writes never became visible", invisible)
	checkFlushedScores(g, rclient, srv)
	if err := rp.err(); err != nil {
		g.check(false, "traced replay: %v", err)
	}

	out := &outcome{e2e: map[string]metric{}, tally: tl}
	out.e2e["setup_s"] = setupMetric(setups)
	out.e2e["peak_rss_mb"] = metric{Value: rss, Unit: "MB", n: 1}
	out.e2e["ops_per_s"] = metric{Value: median(rps), Unit: "ops/s", n: len(good)}
	for _, err := range []error{
		latencyMetrics(out.e2e, "read", readLat, 0.95),
		latencyMetrics(out.e2e, "write_ack", ackLat, 0.95),
		latencyMetrics(out.e2e, "visible", vis.latencies(), 0.95),
	} {
		if err != nil {
			g.check(false, "%v", err)
		}
	}
	pend1, pend2 := vis.maxPending()
	fmt.Printf("ingest: %d epochs after set-up, %d push epochs, max pending %d (open-loop reads) and %d (closed-loop reads), %d pending at the end of the write stream, final staleness %.3g\n",
		st.Epoch-1, st.PushEpochs, pend1, pend2, st.Pending, st.Staleness)
	if tr != nil {
		tr.value("ingest.full_epochs", float64(st.Epoch-1-st.PushEpochs))
		tr.value("ingest.push_epochs", float64(st.PushEpochs))
		tr.value("ingest.max_pending", float64(max(pend1, pend2)))
		if err := replayEpoch(tr, srv, o.seed); err != nil {
			g.check(false, "epoch replay: %v", err)
		}
		if _, err := replayAppends(tr, srv, o.seed, o.writeRate); err != nil {
			g.check(false, "append replay: %v", err)
		}
	}
	out.attempted, out.failed = tl.totals()
	out.correct, out.gateNotes = g.ok, g.notes
	out.layers, err = traceLayers(tr, o, input, dir, srv)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// edgePicker draws citations that the corpus does not hold yet: the
// citing paper from the last three years, the cited one no newer than it.
type edgePicker struct {
	rng    *rand.Rand
	net    *graph.Network
	recent []int32
	used   map[[2]int32]bool
}

func newEdgePicker(net *graph.Network, seed int64) *edgePicker {
	p := &edgePicker{rng: rand.New(rand.NewSource(seed)), net: net, used: map[[2]int32]bool{}}
	for i := int32(0); int(i) < net.N(); i++ {
		if net.Year(i) >= net.MaxYear()-2 {
			p.recent = append(p.recent, i)
		}
	}
	return p
}

func (p *edgePicker) next() (citing, cited int32) {
	for {
		citing = p.recent[p.rng.Intn(len(p.recent))]
		cited = int32(p.rng.Intn(p.net.N()))
		key := [2]int32{citing, cited}
		if citing == cited || p.net.Year(cited) > p.net.Year(citing) || p.used[key] || p.net.HasEdge(citing, cited) {
			continue
		}
		p.used[key] = true
		return citing, cited
	}
}

type citationBody struct {
	Citing string `json:"citing"`
	Cited  string `json:"cited"`
}

type paperBody struct {
	ID      string   `json:"id"`
	Year    int      `json:"year"`
	Authors []string `json:"authors"`
}

type batchBody struct {
	Papers    []paperBody    `json:"papers"`
	Citations []citationBody `json:"citations"`
}

// writeStream is the writer's schedule: citations between existing
// papers, and every newPaperEvery-th write a batch of new papers of the
// corpus's latest year, each citing a distinct existing paper.
func writeStream(net *graph.Network, seed int64, rate, seconds float64) []request {
	pick := newEdgePicker(net, seed+1)
	i := 0
	return schedule(rate, seconds, func() request {
		i++
		if i%newPaperEvery == newPaperEvery/2 {
			var b batchBody
			var id string
			seen := map[int32]bool{}
			for len(b.Papers) < newPaperBatch {
				ref := int32(pick.rng.Intn(net.N()))
				if seen[ref] {
					continue
				}
				seen[ref] = true
				id = fmt.Sprintf("perfbench-%d-%d-%d", seed, i, len(b.Papers))
				b.Papers = append(b.Papers, paperBody{ID: id, Year: net.MaxYear(), Authors: []string{"perfbench"}})
				b.Citations = append(b.Citations, citationBody{Citing: id, Cited: net.Paper(ref).ID})
			}
			body, _ := json.Marshal(b) // plain structs of strings always marshal
			return request{kind: opNewPaper, method: http.MethodPost, path: "/v1/batch", body: body, edges: newPaperBatch, paperID: id}
		}
		citing, cited := pick.next()
		body, _ := json.Marshal(citationBody{Citing: net.Paper(citing).ID, Cited: net.Paper(cited).ID})
		return request{kind: opCitation, method: http.MethodPost, path: "/v1/citations", body: body, edges: 1}
	})
}

// visibility measures how long an acknowledged write takes to show up in
// a published ranking. Containment is read from the ranking's Stats edge
// counter (every generated edge is new, so the counter reaches a write's
// position in the log exactly when the write is ranked) and, for new
// papers, Net.Lookup. The writer holds one connection, so writes are
// applied and acknowledged in order: a write's position is the base
// edges plus the edges of every write acknowledged up to it.
type visibility struct {
	ing *ingest.Ingester

	mu        sync.Mutex
	ackedEdge int // base edges plus the edges of every acknowledged write
	pending   []pendingWrite
	lat       []float64 // ms
	maxPend   [2]int    // the ingester's largest backlog in each read phase
	half      time.Time // when the closed-loop read phase starts

	stop chan struct{}
	done chan struct{}
}

type pendingWrite struct {
	ack     time.Time
	target  int
	paperID string
}

func newVisibility(ing *ingest.Ingester, baseEdges int, half time.Time) *visibility {
	return &visibility{ing: ing, ackedEdge: baseEdges, half: half, stop: make(chan struct{}), done: make(chan struct{})}
}

func contains(r *ingest.Ranking, w pendingWrite) bool {
	if r.Stats.Edges < w.target {
		return false
	}
	if w.paperID != "" {
		_, ok := r.Net.Lookup(w.paperID)
		return ok
	}
	return true
}

// acked records a write's 2xx reply.
func (v *visibility) acked(s sample) {
	ack := s.start.Add(s.wire)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ackedEdge += s.req.edges
	w := pendingWrite{ack: ack, target: v.ackedEdge, paperID: s.req.paperID}
	if contains(v.ing.Ranking(), w) {
		v.lat = append(v.lat, float64(time.Since(ack))/float64(time.Millisecond))
		return
	}
	v.pending = append(v.pending, w)
}

// run polls the published ranking until stopped, resolving the pending
// writes each new ranking contains, and samples the ingester's backlog.
func (v *visibility) run() {
	defer close(v.done)
	var last *ingest.Ranking
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var polls int
	for {
		select {
		case <-v.stop:
			return
		case <-tick.C:
		}
		if polls++; polls%10 == 0 {
			p := v.ing.Pending()
			h := 0
			if time.Now().After(v.half) {
				h = 1
			}
			v.mu.Lock()
			v.maxPend[h] = max(v.maxPend[h], p)
			v.mu.Unlock()
		}
		r := v.ing.Ranking()
		if r == last {
			continue
		}
		last = r
		now := time.Now()
		v.mu.Lock()
		keep := v.pending[:0]
		for _, w := range v.pending {
			if contains(r, w) {
				v.lat = append(v.lat, float64(now.Sub(w.ack))/float64(time.Millisecond))
			} else {
				keep = append(keep, w)
			}
		}
		v.pending = keep
		v.mu.Unlock()
	}
}

// drain waits up to limit for every pending write to become visible,
// stops the poller, and returns how many never did.
func (v *visibility) drain(limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		v.mu.Lock()
		n := len(v.pending)
		v.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(v.stop)
	<-v.done
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

func (v *visibility) latencies() []float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]float64(nil), v.lat...)
}

// maxPending returns the ingester's largest backlog during the open-loop
// and during the closed-loop read phase.
func (v *visibility) maxPending() (first, second int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.maxPend[0], v.maxPend[1]
}

// checkFlushedScores flushes the ingester and requires the served scores
// to match a cold rank of the same compacted network by the serial
// reference kernel (Workers = 0), within the L1 distance the convergence
// criterion allows two converged iterates: each lies within
// α/(1−α)·ε of the fixed point.
func checkFlushedScores(g *gate, client *http.Client, srv *liveServer) {
	if err := srv.ing.Flush(); err != nil {
		g.check(false, "flush: %v", err)
		return
	}
	r := srv.ing.Ranking()
	p := srv.ing.Params()
	p.Workers = 0
	ref, err := core.Compile(r.Net).Rank(r.RankedAt, p)
	if err != nil {
		g.check(false, "serial reference rank: %v", err)
		return
	}
	eps := core.DefaultTol
	if p.Tol > 0 {
		eps = p.Tol
	}
	tol := 2 * p.Alpha / (1 - p.Alpha) * eps
	d := 0.0
	for i, s := range r.Result.Scores {
		d += math.Abs(s - ref.Scores[i])
	}
	g.check(!r.Incremental && d <= tol, "flushed epoch %d: L1 distance %.3g to the serial reference (limit %.3g)", r.Epoch, d, tol)

	var top []topItem
	if err := getJSON(client, srv.url+"/v1/top?n=100", &top); err != nil {
		g.check(false, "/v1/top after flush: %v", err)
		return
	}
	served := 0.0
	for _, t := range top {
		idx, ok := r.Net.Lookup(t.ID)
		if !ok {
			g.check(false, "/v1/top after flush serves unknown paper %q", t.ID)
			return
		}
		served += math.Abs(t.Score - ref.Scores[idx])
	}
	g.check(len(top) == 100 && served <= tol, "/v1/top?n=100 after flush: L1 distance %.3g to the serial reference", served)
}

// replayEpoch replays one full epoch's stage calls on the final corpus
// plus one new-paper batch (compact → compile → tracker update → ordering →
// stats → impact), then a cold rank and one push, three times each.
func replayEpoch(tr *tracer, srv *liveServer, seed int64) error {
	final := srv.ing.Ranking()
	net, now, p := final.Net, final.RankedAt, srv.ing.Params()
	pick := newEdgePicker(net, seed+2)
	for rep := 0; rep < 3; rep++ {
		root := tr.start("epoch.replay", 0, 0)
		cs := tr.start("graph.compact", root, 0)
		b := graph.NewBuilderFrom(net)
		for k := 0; k < newPaperBatch; k++ {
			id := fmt.Sprintf("perfbench-replay-%d-%d", rep, k)
			if _, err := b.AddPaper(id, now, []string{"perfbench"}, ""); err != nil {
				return err
			}
			b.AddEdge(id, net.Paper(int32(pick.rng.Intn(net.N()))).ID)
		}
		next, err := b.Build()
		tr.end(cs)
		if err != nil {
			return err
		}

		cp := tr.start("core.compile", root, 0)
		op := core.OperatorFor(next)
		cst, err := op.PrimeKernel()
		tr.end(cp)
		if err != nil {
			return err
		}
		tr.value("sparse.bytes_per_nnz", cst.Layout.BytesPerNNZ)

		tk, err := core.NewTracker(p)
		if err != nil {
			return err
		}
		if err := tk.Seed(net, final.Result.Scores); err != nil {
			return err
		}
		tu := tr.start("core.tracker_update", root, 0)
		res, err := tk.Update(next, now)
		tr.end(tu)
		if err != nil {
			return err
		}

		ord := tr.start("metrics.ordering", root, 0)
		metrics.Ordering(res.Scores)
		tr.end(ord)
		ss := tr.start("graph.stats", root, 0)
		next.ComputeStats()
		tr.end(ss)
		is := tr.start("impact.compute", root, 0)
		_, err = impact.Compute(next, res.Scores, now, impactConfig)
		tr.end(is)
		if err != nil {
			return err
		}
		tr.end(root)

		if err := replayRank(tr, op, now, p); err != nil {
			return err
		}

		if err := replayPush(tr, next, now, p, res.Scores, pick); err != nil {
			return err
		}
	}
	return nil
}

// replayPush times one citation pushed and settled on a fresh pusher.
// A push over its budget (core.ErrNeedFull, which on a tiny corpus one
// citation can cause) is what the ingester answers with a full epoch; it
// records no sample and the next citation is tried.
func replayPush(tr *tracer, net *graph.Network, now int, p core.Params, scores []float64, pick *edgePicker) error {
	for try := 0; try < 5; try++ {
		pu, err := core.NewPusher(net, now, p, core.PushConfig{Tol: 1e-6}, scores)
		if err != nil {
			return err
		}
		citing, cited := pick.next()
		ps := tr.start("core.push", 0, 0)
		err = pu.AddCitation(citing, cited)
		var pst core.PushStats
		if err == nil {
			pst, err = pu.Settle()
		}
		if errors.Is(err, core.ErrNeedFull) {
			continue // the span stays open and is not counted
		}
		tr.end(ps)
		if err != nil {
			return err
		}
		tr.value("core.push_count", float64(pst.Pushes))
		return nil
	}
	return nil
}

// replayRank times one cold rank on a compiled operator.
func replayRank(tr *tracer, op *core.Operator, now int, p core.Params) error {
	p.Start = nil
	rk := tr.start("core.rank", 0, 0)
	t0 := time.Now()
	res, err := op.Rank(now, p)
	d := time.Since(t0)
	tr.end(rk)
	if err != nil {
		return err
	}
	tr.value("core.rank_iterations", float64(res.Iterations))
	tr.value("core.iter_ms", float64(d)/float64(time.Millisecond)/float64(res.Iterations))
	return nil
}

// replayAppends writes fresh citations straight into the ingester at the
// writer's rate, timing each append (validation, WAL append and fsync).
// It returns the largest backlog seen after an append.
func replayAppends(tr *tracer, srv *liveServer, seed int64, rate float64) (maxPending int, err error) {
	net := srv.ing.Ranking().Net
	pick := newEdgePicker(net, seed+3)
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; i < 20; i++ {
		citing, cited := pick.next()
		sp := tr.start("ingest.append", 0, 0)
		_, err := srv.ing.AddCitation(ingest.CitationMut{Citing: net.Paper(citing).ID, Cited: net.Paper(cited).ID})
		tr.end(sp)
		if err != nil {
			return maxPending, err
		}
		maxPending = max(maxPending, srv.ing.Pending())
		time.Sleep(gap)
	}
	return maxPending, nil
}
