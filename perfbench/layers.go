package main

// e2eMetric is one end-to-end metric: what a user of the system sees.
type e2eMetric struct {
	name, unit, better string
	workloads          []string // the workloads that measure it
	// gated metrics are BENCHMARK.json's end_to_end list: they go in the
	// result line and carry a bound. The others are printed as ungated.
	gated bool
}

// e2eTable lists every end-to-end metric the workloads measure.
//
// The gated metrics are the ones every workload reports: set-up time,
// peak memory and ops_per_s, the workload's operations completed per
// second (serve_read: reads within the limit with nproc closed-loop
// clients; serve_write: the same with one closed-loop client beside the
// writer; eval_sweep: grid cells ranked and scored). The latencies are
// printed, with their sample counts, but carry no bound: on the shared
// 2-core VM the benchmark was built on, CPU steal ranged from 0% to 26%
// between runs minutes apart, and the latencies followed it. Over ten
// seeds a set, serve_read's read_p50_ms spread (IQR over median) 7–39%
// and read_p99_ms 13–52% across three sets; serve_write's visible_p95_ms
// spread 8–29% across four sets, and its read and write-ack latencies up
// to 107%. The largest bound a metric may carry is 25%.
var e2eTable = []e2eMetric{
	{"setup_s", "s", "lower", allWorkloads, true},
	{"peak_rss_mb", "MB", "lower", allWorkloads, true},
	{"ops_per_s", "ops/s", "higher", allWorkloads, true},
	{"read_p50_ms", "ms", "lower", []string{"serve_read", "serve_write"}, false},
	{"read_p99_ms", "ms", "lower", []string{"serve_read"}, false},
	{"read_p95_ms", "ms", "lower", []string{"serve_write"}, false},
	{"write_ack_p50_ms", "ms", "lower", []string{"serve_write"}, false},
	{"write_ack_p95_ms", "ms", "lower", []string{"serve_write"}, false},
	{"visible_p50_ms", "ms", "lower", []string{"serve_write"}, false},
	{"visible_p95_ms", "ms", "lower", []string{"serve_write"}, false},
}

var allWorkloads = []string{"serve_read", "serve_write", "eval_sweep"}

// gated splits a workload's measured end-to-end metrics into the gated
// ones and the rest.
func gated(all map[string]metric) (reported, ungated map[string]metric) {
	reported, ungated = map[string]metric{}, map[string]metric{}
	for name, m := range all {
		ungated[name] = m
	}
	for _, e := range e2eTable {
		if m, ok := all[e.name]; ok && e.gated {
			reported[e.name] = m
			delete(ungated, e.name)
		}
	}
	return reported, ungated
}

func e2eBetter(name string) string {
	for _, m := range e2eTable {
		if m.name == name {
			return m.better
		}
	}
	return "lower"
}

// layerMetric is one per-layer metric of the traced run. It is the median
// duration of the spans named span, or, when span is empty, the median of
// the values recorded under name. moves says which end-to-end metric the
// layer should move, and on which workload.
type layerMetric struct {
	name, unit, better, span string
	moves                    string
}

var layerTable = []layerMetric{
	// service: the HTTP handlers, timed as Handler().ServeHTTP in process.
	{"service.handler_top_us", "us", "lower", "service.handler.top", "ops_per_s and read_p50_ms on serve_read"},
	{"service.handler_paper_us", "us", "lower", "service.handler.paper", "ops_per_s and read_p50_ms on serve_read"},
	{"service.handler_impact_us", "us", "lower", "service.handler.impact", "ops_per_s and read_p50_ms on serve_read"},
	{"service.transport_us", "us", "lower", "", "read_p99_ms on serve_read"},
	{"service.response_bytes", "bytes", "lower", "", "ops_per_s on serve_read"},
	// metrics
	{"metrics.topk_us", "us", "lower", "metrics.topk", "ops_per_s on serve_read"},
	{"metrics.ordering_ms", "ms", "lower", "metrics.ordering", "visible_p95_ms and ops_per_s on serve_write"},
	{"metrics.spearman_ms", "ms", "lower", "metrics.spearman", "ops_per_s on eval_sweep"},
	// core
	{"core.explain_us", "us", "lower", "core.explain", "read_p50_ms on serve_read"},
	{"core.compile_ms", "ms", "lower", "core.compile", "visible_p95_ms and ops_per_s on serve_write; setup_s everywhere"},
	{"core.rank_ms", "ms", "lower", "core.rank", "visible_p95_ms and ops_per_s on serve_write; ops_per_s on eval_sweep"},
	{"core.iter_ms", "ms", "lower", "", "visible_p95_ms and ops_per_s on serve_write; ops_per_s on eval_sweep"},
	{"core.rank_iterations", "count", "lower", "", "visible_p95_ms and ops_per_s on serve_write; ops_per_s on eval_sweep"},
	{"core.tracker_update_ms", "ms", "lower", "core.tracker_update", "visible_p95_ms and ops_per_s on serve_write"},
	{"core.push_us", "us", "lower", "core.push", "visible_p50_ms on serve_write"},
	{"core.push_count", "count", "lower", "", "visible_p50_ms on serve_write"},
	// sparse
	{"sparse.bytes_per_nnz", "bytes", "lower", "", "ops_per_s on eval_sweep"},
	// graph
	{"graph.compact_ms", "ms", "lower", "graph.compact", "visible_p95_ms and ops_per_s on serve_write"},
	{"graph.stats_ms", "ms", "lower", "graph.stats", "visible_p95_ms and ops_per_s on serve_write"},
	// impact
	{"impact.compute_ms", "ms", "lower", "impact.compute", "visible_p95_ms and ops_per_s on serve_write; setup_s on serve_read and serve_write"},
	// ingest
	{"ingest.append_us", "us", "lower", "ingest.append", "write_ack_p50_ms on serve_write"},
	{"ingest.open_ms", "ms", "lower", "ingest.open", "setup_s on serve_read and serve_write"},
	{"ingest.full_epochs", "count", "lower", "", "visible_p95_ms and ops_per_s on serve_write"},
	{"ingest.push_epochs", "count", "higher", "", "visible_p50_ms on serve_write"},
	{"ingest.max_pending", "count", "lower", "", "visible_p95_ms and ops_per_s on serve_write"},
	// dataio
	{"dataio.load_ms", "ms", "lower", "dataio.load", "setup_s everywhere"},
	// eval
	{"eval.split_ms", "ms", "lower", "eval.split", "setup_s on eval_sweep"},
}

// Tracing overhead: for every gated end-to-end metric, how much worse
// the traced run read than the untraced run of the same invocation
// (positive = tracing cost), reported as trace_overhead.<metric> in its
// unit. The overhead on the ungated latencies is printed but not in the
// result line, as not every workload measures them.
func init() {
	for _, m := range e2eTable {
		if !m.gated {
			continue
		}
		layerTable = append(layerTable, layerMetric{
			name: "trace_overhead." + m.name, unit: m.unit, better: "lower",
			moves: "how much worse the traced run's " + m.name + " read than the untraced run's (positive = cost)",
		})
	}
}
