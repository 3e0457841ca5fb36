package main

import (
	"fmt"
	"path/filepath"
	"slices"

	"attrank/internal/eval"
)

// A traced run reports every per-layer metric of layerTable, but no
// workload runs every layer: serve_read runs no epochs, serve_write no
// evaluation split, eval_sweep no service or ingester. traceLayers
// measures the layers the workload ran from its own spans and fills in
// the rest with probes run after the workload on the same input, each
// under its own tracer. A probe runs only if one of its metrics is still
// missing, and only fills metrics still missing, in the order below.
type probe struct {
	name    string
	metrics []string
	run     func(p *prober, tr *tracer) error
}

var probes = []probe{
	{"reads", []string{"service.handler_top_us", "service.handler_paper_us", "service.handler_impact_us",
		"service.transport_us", "service.response_bytes", "metrics.topk_us", "core.explain_us"}, (*prober).reads},
	{"epoch", []string{"graph.compact_ms", "core.compile_ms", "sparse.bytes_per_nnz", "core.tracker_update_ms",
		"metrics.ordering_ms", "graph.stats_ms", "impact.compute_ms", "core.rank_ms", "core.iter_ms",
		"core.rank_iterations", "core.push_us", "core.push_count"}, (*prober).epoch},
	{"appends", []string{"ingest.append_us", "ingest.full_epochs", "ingest.push_epochs", "ingest.max_pending"}, (*prober).appends},
	{"sweep", []string{"dataio.load_ms", "eval.split_ms", "metrics.spearman_ms"}, (*prober).sweep},
}

// prober holds what the probes share: the workload's server, or one
// started for the probes on the same input.
type prober struct {
	o     options
	input string
	srv   *liveServer
	owned bool // srv was started for the probes
}

// traceLayers returns a traced run's per-layer metrics (nil for an
// untraced run). srv is the workload's server, nil if it has none.
func traceLayers(tr *tracer, o options, input, dir string, srv *liveServer) (map[string]metric, error) {
	if tr == nil {
		return nil, nil
	}
	out, err := tr.layerMetrics()
	if err != nil {
		return nil, err
	}
	missing := func(names []string) bool {
		return slices.ContainsFunc(names, func(n string) bool { _, ok := out[n]; return !ok })
	}
	p := &prober{o: o, input: input, srv: srv}
	defer p.close()
	var probed []string
	for _, pr := range probes {
		if !missing(pr.metrics) {
			continue
		}
		pt := newTracer()
		if p.srv == nil && pr.name != "sweep" {
			// The server's set-up is traced too: it gives eval_sweep its
			// ingest.open_ms.
			if p.srv, err = startServer(input, filepath.Join(dir, "probe"), serverConfig("serve_write"), pt); err != nil {
				return nil, fmt.Errorf("probe server: %w", err)
			}
			p.owned = true
		}
		if err := pr.run(p, pt); err != nil {
			return nil, fmt.Errorf("%s probe: %w", pr.name, err)
		}
		got, err := pt.layerMetrics()
		if err != nil {
			return nil, err
		}
		if err := pt.write(filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d-probe-%s.jsonl", o.workload, o.seed, pr.name))); err != nil {
			return nil, err
		}
		for name, m := range got {
			if _, ok := out[name]; !ok {
				out[name] = m
				probed = append(probed, name)
			}
		}
	}
	slices.Sort(probed)
	fmt.Printf("perfbench: per-layer metrics from probes after the workload: %v\n", probed)
	return out, nil
}

func (p *prober) close() {
	if p.owned {
		p.srv.close()
	}
}

// reads runs one closed-loop client for a second and replays every read
// through the handler and the layer functions it calls.
func (p *prober) reads(tr *tracer) error {
	mix := newReadMix(p.srv.ing.Ranking().Net, p.o.seed)
	pools := readPools(mix, 1)
	client := newClient(1)
	defer client.CloseIdleConnections()
	rp := newReplayer(p.srv, tr)
	rp.every = 1
	closedLoop(client, p.srv.url, 1, 1, pools.next, rp.maybeReplay)
	return rp.err()
}

// epoch replays one full epoch's stages, a cold rank and a push.
func (p *prober) epoch(tr *tracer) error { return replayEpoch(tr, p.srv, p.o.seed) }

// appends writes citations into the ingester at the writer's rate and
// counts the epochs they caused.
func (p *prober) appends(tr *tracer) error {
	before := p.srv.ing.Status()
	maxPending, err := replayAppends(tr, p.srv, p.o.seed, p.o.writeRate)
	if err != nil {
		return err
	}
	after := p.srv.ing.Status()
	push := after.PushEpochs - before.PushEpochs
	tr.value("ingest.full_epochs", float64(after.Epoch-before.Epoch-push))
	tr.value("ingest.push_epochs", float64(push))
	tr.value("ingest.max_pending", float64(maxPending))
	return nil
}

// sweep sets up eval_sweep on the input and runs its traced tail.
func (p *prober) sweep(tr *tracer) error {
	st, err := setupSweep(p.input, tr)
	if err != nil {
		return err
	}
	return traceSweep(tr, st, eval.AttRankGrid(rankParams.W))
}
