package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"attrank/internal/graph"
)

// Read latency limit: a read slower than this, or one that failed or was
// shed, misses. The slowest read kind (/v1/top with n=49) takes about
// 15 ms unloaded on the 100k corpus.
const readLimit = 100 * time.Millisecond

// Open-loop rates of the full-size run (see scale in main.go).
// fullReadRate keeps serve_read's open-loop phase well below the
// closed-loop capacity measured at the seed commit. fullWriteRate is the
// rate at which the ingester's backlog stays flat at the seed commit
// (see README.md), and gives serve_write more writes than visible_p95_ms
// needs samples.
const (
	fullReadRate  = 100
	fullWriteRate = 9
)

type opKind int

const (
	opTop opKind = iota
	opPaper
	opImpact
	opImpactBatch
	opCitation
	opNewPaper
	numOpKinds
)

var opNames = [numOpKinds]string{"top", "paper", "impact", "impact_batch", "citation", "new_paper"}

func (k opKind) read() bool { return k <= opImpactBatch }

// request is one pre-generated HTTP request. Everything a request needs
// is built before the timed region.
type request struct {
	kind   opKind
	method string
	path   string
	body   []byte
	at     time.Duration // scheduled send offset (open loop)

	// Read parameters, kept for the traced replay and the gates.
	n, offset int
	idx       int32
	// Write parameters: edges added, and the new paper's id.
	edges   int
	paperID string
}

// readMix is the read mix of internal/load as cmd/attrank-bench's serve
// benchmark runs it (ImpactRatio 0.15): 15% of reads are impact lookups,
// three in four of them GET /v1/impact/{id} and one in four a POST
// /v1/impact/batch of 3–8 ids; of the rest, 30% are GET /v1/paper/{id}
// and 70% GET /v1/top with n in 5–49, one in four of them with an offset
// in 0–199. Here the kinds, n, offsets and batch sizes follow fixed
// cycles in those proportions, the same for every seed, so the load's
// shape does not vary with the seed. Only the paper ids come from the
// seed: they are drawn Zipf-skewed over the whole corpus with exponent
// 1.1, an unverified assumption (no request log of a deployed service
// is available to fit it to).
type readMix struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int32
	net     *graph.Network
	i       int // requests drawn
	tops    int // /v1/top requests drawn
	batches int // /v1/impact/batch requests drawn
}

func newReadMix(net *graph.Network, seed int64) *readMix {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int32, net.N())
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &readMix{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(net.N()-1)), perm: perm, net: net}
}

func (m *readMix) paper() int32 { return m.perm[m.zipf.Uint64()] }

// readPattern is one cycle of read kinds: per 400 reads, 238 /v1/top
// (0.85·0.7), 102 /v1/paper (0.85·0.3), 45 /v1/impact (0.15·0.75) and 15
// /v1/impact/batch (0.15·0.25), spread evenly over the cycle.
var readPattern = interleave([]opKind{opTop, opPaper, opImpact, opImpactBatch}, []int{238, 102, 45, 15})

// interleave returns one cycle of kinds, kinds[i] appearing weights[i]
// times, each kind spaced as evenly as the others allow (smooth weighted
// round robin).
func interleave(kinds []opKind, weights []int) []opKind {
	total := 0
	for _, w := range weights {
		total += w
	}
	cur := make([]int, len(kinds))
	out := make([]opKind, total)
	for i := range out {
		best := 0
		for k, w := range weights {
			cur[k] += w
			if cur[k] > cur[best] {
				best = k
			}
		}
		cur[best] -= total
		out[i] = kinds[best]
	}
	return out
}

func (m *readMix) next() request {
	kind := readPattern[m.i%len(readPattern)]
	m.i++
	switch kind {
	case opTop:
		// n steps through 5–49 and the offset through 0–199 (every
		// fourth page) by strides coprime to their ranges.
		t := m.tops
		m.tops++
		n, off := 5+(t*7)%45, 0
		if t%4 == 3 {
			off = (t / 4 * 67) % 200
		}
		return request{kind: opTop, method: http.MethodGet, path: fmt.Sprintf("/v1/top?n=%d&offset=%d", n, off), n: n, offset: off}
	case opPaper:
		idx := m.paper()
		return request{kind: opPaper, method: http.MethodGet, path: "/v1/paper/" + m.net.Paper(idx).ID, idx: idx}
	case opImpact:
		idx := m.paper()
		return request{kind: opImpact, method: http.MethodGet, path: "/v1/impact/" + m.net.Paper(idx).ID, idx: idx}
	default:
		ids := make([]string, 3+m.batches%6)
		m.batches++
		for i := range ids {
			ids[i] = m.net.Paper(m.paper()).ID
		}
		body, _ := json.Marshal(map[string][]string{"ids": ids}) // a []string always marshals
		return request{kind: opImpactBatch, method: http.MethodPost, path: "/v1/impact/batch", body: body}
	}
}

// schedule returns count requests from gen spaced at a fixed rate.
func schedule(rate float64, seconds float64, gen func() request) []request {
	count := int(rate * seconds)
	out := make([]request, count)
	for i := range out {
		out[i] = gen()
		out[i].at = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// sample is one completed request.
type sample struct {
	req    *request
	start  time.Time     // actual send time
	lat    time.Duration // from the scheduled (open loop) or actual (closed loop) send to the last byte
	wire   time.Duration // actual send to last byte
	status int           // 0 on a transport error
	bytes  int
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// send issues one request and reads the whole body.
func send(client *http.Client, base string, r *request, due time.Time) sample {
	start := time.Now()
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	s := sample{req: r, start: start}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err == nil {
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var resp *http.Response
		resp, err = client.Do(req)
		if err == nil {
			var n int64
			n, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			s.status, s.bytes = resp.StatusCode, int(n)
		}
	}
	end := time.Now()
	if err != nil {
		s.status = 0
	}
	s.wire = end.Sub(start)
	s.lat = end.Sub(due)
	return s
}

// openLoop sends every request at its scheduled offset from start,
// whether or not earlier ones have completed, and calls done for each
// completion (from the request's goroutine). It returns
// the generator's lateness per request: how far behind schedule each
// send was issued.
func openLoop(client *http.Client, base string, reqs []request, done func(sample)) []time.Duration {
	late := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			done(send(client, base, r, due))
		}()
	}
	wg.Wait()
	return late
}

// closedLoop runs clients goroutines that each send their next request
// the moment the previous one completes, until seconds have passed.
// next(c) returns client c's next request. It returns the wall time.
func closedLoop(client *http.Client, base string, clients int, seconds float64, next func(c int) *request, done func(sample)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				r := next(c)
				done(send(client, base, r, time.Now()))
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// nproc is the machine's core count: the program's GOMAXPROCS and the
// load generator's connection budget.
func nproc() int { return runtime.NumCPU() }

// counts is the accounting of one (phase, operation kind).
type counts struct {
	attempted, ok, shed, client, server, transport, overLimit int
}

// tally accounts every request by phase and kind, and the open-loop
// generator's lateness by phase.
type tally struct {
	mu    sync.Mutex
	rows  map[string]*counts
	order []string
	late  map[string][]time.Duration
}

func newTally() *tally {
	return &tally{rows: map[string]*counts{}, late: map[string][]time.Duration{}}
}

// record accounts one sample; limit > 0 also counts it against a latency
// limit.
func (t *tally) record(phase string, s sample, limit time.Duration) {
	key := phase + "/" + opNames[s.req.kind]
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.rows[key]
	if !ok {
		c = &counts{}
		t.rows[key] = c
		t.order = append(t.order, key)
	}
	c.attempted++
	switch {
	case s.status == 0:
		c.transport++
	case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
		c.shed++
	case s.status >= 500:
		c.server++
	case s.status >= 400:
		c.client++
	default:
		c.ok++
	}
	if limit > 0 && (!s.ok() || s.lat > limit) {
		c.overLimit++
	}
}

func (t *tally) lateness(phase string, late []time.Duration) {
	t.mu.Lock()
	t.late[phase] = append(t.late[phase], late...)
	t.mu.Unlock()
}

// totals returns the attempted and failed (not 2xx) request counts.
func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.rows {
		attempted += c.attempted
		failed += c.attempted - c.ok
	}
	return attempted, failed
}

func (t *tally) print(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := append([]string(nil), t.order...)
	sort.Strings(keys)
	fmt.Fprintf(w, "%-26s %9s %9s %6s %6s %6s %9s %10s\n", "phase/op", "attempted", "ok", "shed", "4xx", "5xx", "transport", "over_limit")
	for _, k := range keys {
		c := t.rows[k]
		fmt.Fprintf(w, "%-26s %9d %9d %6d %6d %6d %9d %10d\n", k, c.attempted, c.ok, c.shed, c.client, c.server, c.transport, c.overLimit)
	}
	phases := make([]string, 0, len(t.late))
	for p := range t.late {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		ms := durationsMS(t.late[p])
		fmt.Fprintf(w, "generator lateness %-12s p99 %.3f ms, max %.3f ms over %d sends\n", p, quantile(ms, 0.99), quantile(ms, 1), len(ms))
	}
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile returns the q-quantile (nearest rank) of xs; xs is sorted in
// place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan()
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return nan()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func nan() float64 { return math.NaN() }
