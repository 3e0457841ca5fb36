package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"attrank/internal/core"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/metrics"
)

// serveRead: a live server with indicators on, no writes. Phase 1 is an
// open-loop read stream at o.readRate for 45% of the run; phase 2 runs
// nproc closed-loop clients for the rest, and ops_per_s is their reads
// within the limit per second. Nearly all the work is in the
// service handlers, metrics.TopK and core.Explain; compile, rank and
// impact.Compute run only during set-up.
func serveRead(o options, input, dir string, tr *tracer) (*outcome, error) {
	setups, err := childSetups(o, input)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(input, dir, serverConfig("serve_read"), tr)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	setups = append(setups, srv.setup.Seconds())

	view := srv.ing.Ranking()
	mix := newReadMix(view.Net, o.seed)
	openSecs, closedSecs := 0.45*o.seconds, 0.55*o.seconds
	openReqs := schedule(o.readRate, openSecs, mix.next)
	pools := readPools(mix, nproc())

	tl := newTally()
	client := newClient(nproc())
	defer client.CloseIdleConnections()
	rp := newReplayer(srv, tr)

	// Warm-up, not measured: fills connection pools and lazy caches.
	closedLoop(client, srv.url, nproc(), 0.5, pools.next, func(s sample) { tl.record("warmup", s, readLimit) })

	var mu sync.Mutex
	var openLat []float64
	late := openLoop(client, srv.url, openReqs, func(s sample) {
		tl.record("open", s, readLimit)
		rp.maybeReplay(s)
		mu.Lock()
		openLat = append(openLat, readLatencyMS(s))
		mu.Unlock()
	})
	tl.lateness("open", late)

	var good []time.Time
	closedLoop(client, srv.url, nproc(), closedSecs, pools.next, func(s sample) {
		tl.record("closed", s, readLimit)
		rp.maybeReplay(s)
		if s.ok() && s.lat <= readLimit {
			mu.Lock()
			good = append(good, s.start.Add(s.wire))
			mu.Unlock()
		}
	})
	rps := blockRates(good, closedSecs)
	fmt.Printf("closed loop: reads within the limit per second, by block: %.1f\n", rps)
	rss := peakRSSMB()

	g := newGate()
	crossCheckReads(g, client, srv, view, mix)
	if err := rp.err(); err != nil {
		g.check(false, "traced replay: %v", err)
	}

	out := &outcome{e2e: map[string]metric{}, tally: tl}
	out.e2e["setup_s"] = setupMetric(setups)
	out.e2e["peak_rss_mb"] = metric{Value: rss, Unit: "MB", n: 1}
	if err := latencyMetrics(out.e2e, "read", openLat, 0.99); err != nil {
		g.check(false, "%v", err)
	}
	out.e2e["ops_per_s"] = metric{Value: median(rps), Unit: "ops/s", n: len(good)}
	out.attempted, out.failed = tl.totals()
	out.correct, out.gateNotes = g.ok, g.notes
	if tr != nil {
		// No writes: the ingester's epoch counters after set-up are this
		// workload's own (zero) counts.
		st := srv.ing.Status()
		tr.value("ingest.full_epochs", float64(st.Epoch-1-st.PushEpochs))
		tr.value("ingest.push_epochs", float64(st.PushEpochs))
		tr.value("ingest.max_pending", float64(st.Pending))
	}
	out.layers, err = traceLayers(tr, o, input, dir, srv)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// blockRates is a closed loop's throughput, as a series to take the
// median of: the completion times, sorted, are cut into blocks of about
// one second's worth each, and each block gives its completions divided
// by the time it spans. A short stall of the machine moves one block,
// not the whole figure.
func blockRates(done []time.Time, seconds float64) []float64 {
	ts := append([]time.Time(nil), done...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	per := max(2, int(float64(len(ts))/max(1, seconds)))
	var out []float64
	for i := 0; i+per < len(ts); i += per {
		if d := ts[i+per].Sub(ts[i]); d > 0 {
			out = append(out, float64(per)/d.Seconds())
		}
	}
	return out
}

// readLatencyMS is a read's latency in ms; a failed or shed read counts
// as missing the limit, so it is never faster than the limit.
func readLatencyMS(s sample) float64 {
	lat := s.lat
	if !s.ok() && lat < readLimit {
		lat = readLimit
	}
	return float64(lat) / float64(time.Millisecond)
}

// latencyMetrics adds <prefix>_p50_ms and <prefix>_p<q>_ms. A named
// percentile needs ten samples beyond it.
func latencyMetrics(dst map[string]metric, prefix string, ms []float64, q float64) error {
	need := int(math.Round(10 / (1 - q)))
	if len(ms) < need {
		return fmt.Errorf("%s: %d samples, p%g needs %d", prefix, len(ms), 100*q, need)
	}
	xs := append([]float64(nil), ms...)
	dst[prefix+"_p50_ms"] = metric{Value: quantile(xs, 0.5), Unit: "ms", n: len(ms)}
	dst[fmt.Sprintf("%s_p%g_ms", prefix, 100*q)] = metric{Value: quantile(xs, q), Unit: "ms", n: len(ms)}
	return nil
}

// requestPools holds a pre-generated request stream per closed-loop
// client, cycled so no request is built inside the timed region.
type requestPools struct {
	reqs [][]request
	pos  []int // touched only by client c's goroutine
}

func readPools(mix *readMix, clients int) *requestPools {
	const perClient = 4096
	p := &requestPools{reqs: make([][]request, clients), pos: make([]int, clients)}
	for c := range p.reqs {
		p.reqs[c] = make([]request, perClient)
		for i := range p.reqs[c] {
			p.reqs[c][i] = mix.next()
		}
	}
	return p
}

func (p *requestPools) next(c int) *request {
	r := &p.reqs[c][p.pos[c]%len(p.reqs[c])]
	p.pos[c]++
	return r
}

// replayer re-runs every replayEvery-th read of a traced run in process:
// through the service handler, then through the layer functions the
// handler calls, on the view the server is publishing, under the read's
// request id.
type replayer struct {
	srv   *liveServer
	tr    *tracer
	every int64 // replay every every-th read
	seq   atomic.Int64
	mu    sync.Mutex
	first error
}

const replayEvery = 8

func newReplayer(srv *liveServer, tr *tracer) *replayer {
	return &replayer{srv: srv, tr: tr, every: replayEvery}
}

func (r *replayer) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.first
}

func (r *replayer) fail(err error) {
	r.mu.Lock()
	if r.first == nil {
		r.first = err
	}
	r.mu.Unlock()
}

func (r *replayer) maybeReplay(s sample) {
	if r.tr == nil || !s.req.kind.read() || !s.ok() {
		return
	}
	req := r.seq.Add(1)
	r.tr.value("service.response_bytes", float64(s.bytes))
	if req%r.every != 0 {
		return
	}
	root := r.tr.add("read.wire", 0, req, s.start, s.wire)
	view := r.srv.ing.Ranking()

	// The handler, in process.
	hreq := httptest.NewRequest(s.req.method, s.req.path, bytes.NewReader(s.req.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	hs := r.tr.start("service.handler."+opNames[s.req.kind], root, req)
	r.srv.handler.ServeHTTP(rec, hreq)
	r.tr.end(hs)
	handler := time.Since(t0)
	if rec.Code != http.StatusOK {
		r.fail(fmt.Errorf("replayed %s answered %d", s.req.path, rec.Code))
		return
	}
	r.tr.value("service.transport_us", float64(s.wire-handler)/float64(time.Microsecond))

	// The layers the handler calls, on the same view.
	p := r.srv.ing.Params()
	switch s.req.kind {
	case opTop:
		ts := r.tr.start("metrics.topk", root, req)
		top := metrics.TopK(view.Result.Scores, s.req.offset+s.req.n)
		r.tr.end(ts)
		if s.req.offset < len(top) {
			for _, idx := range top[s.req.offset:] {
				r.explain(view, p, int32(idx), root, req)
			}
		}
	case opPaper:
		r.explain(view, p, s.req.idx, root, req)
	}
}

func (r *replayer) explain(view *ingest.Ranking, p core.Params, idx int32, root, req int64) {
	es := r.tr.start("core.explain", root, req)
	_, err := core.Explain(view.Net, view.Result, p, idx)
	r.tr.end(es)
	if err != nil {
		r.fail(err)
	}
}

// topItem is the part of a /v1/top entry the gate compares.
type topItem struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
}

type indicatorItem struct {
	Score float64 `json:"score"`
	Class string  `json:"class"`
}

type impactItem struct {
	ID         string        `json:"id"`
	Epoch      uint64        `json:"epoch"`
	Popularity indicatorItem `json:"popularity"`
	Influence  indicatorItem `json:"influence"`
	Impulse    indicatorItem `json:"impulse"`
	CC         indicatorItem `json:"cc"`
}

// gateTopPages are the (n, offset) pages cross-checked after the load.
var gateTopPages = [][2]int{{10, 0}, {20, 0}, {50, 0}, {20, 20}, {50, 100}, {10, 500}, {50, 950}}

// crossCheckReads requires a sample of /v1/top pages and /v1/impact
// answers to equal, bit for bit, metrics.TopK and impact.Compute run in
// process on the published view.
func crossCheckReads(g *gate, client *http.Client, srv *liveServer, view *ingest.Ranking, mix *readMix) {
	bad := 0
	for _, pg := range gateTopPages {
		n, off := pg[0], pg[1]
		var got []topItem
		if err := getJSON(client, fmt.Sprintf("%s/v1/top?n=%d&offset=%d", srv.url, n, off), &got); err != nil {
			g.check(false, "/v1/top n=%d offset=%d: %v", n, off, err)
			return
		}
		want := metrics.TopK(view.Result.Scores, off+n)
		if off < len(want) {
			want = want[off:]
		} else {
			want = nil
		}
		if len(got) != len(want) {
			bad++
			continue
		}
		for i, idx := range want {
			if got[i].ID != view.Net.Paper(int32(idx)).ID ||
				math.Float64bits(got[i].Score) != math.Float64bits(view.Result.Scores[idx]) ||
				got[i].Rank != off+i+1 {
				bad++
				break
			}
		}
	}
	g.check(bad == 0, "/v1/top: %d of %d pages equal metrics.TopK bit for bit", len(gateTopPages)-bad, len(gateTopPages))

	e, err := impact.Compute(view.Net, view.Result.Scores, view.RankedAt, impactConfig)
	if err != nil {
		g.check(false, "impact.Compute: %v", err)
		return
	}
	const samples = 64
	bad = 0
	for i := 0; i < samples; i++ {
		idx := mix.paper()
		var got impactItem
		if err := getJSON(client, srv.url+"/v1/impact/"+view.Net.Paper(idx).ID, &got); err != nil {
			g.check(false, "/v1/impact: %v", err)
			return
		}
		inds := []struct {
			got indicatorItem
			ind impact.Indicator
		}{{got.Popularity, impact.Popularity}, {got.Influence, impact.Influence}, {got.Impulse, impact.Impulse}, {got.CC, impact.CitationCount}}
		ok := got.Epoch == view.Epoch
		for _, x := range inds {
			ok = ok && math.Float64bits(x.got.Score) == math.Float64bits(e.Scores(x.ind)[idx]) &&
				x.got.Class == e.Class(x.ind, idx).String()
		}
		if !ok {
			bad++
		}
	}
	g.check(bad == 0, "/v1/impact: %d of %d papers equal impact.Compute bit for bit", samples-bad, samples)
}
