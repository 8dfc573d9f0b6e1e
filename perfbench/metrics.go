package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by the
// untraced run of every workload. Their list and units must match
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"read_qps", "1/s"},
	{"im_p50_ms", "ms"},
	{"im_p90_ms", "ms"},
	{"suggest_p50_ms", "ms"},
	{"paths_p50_ms", "ms"},
	{"hit_p50_us", "us"},
	{"im_spread", "nodes"},
}

// perLayer are the traced run's metrics, one group per layer. A layer
// the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"server.request_p50_us", "us"},
	{"server.self_p50_us", "us"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.lookup_p50_us", "us"},
	{"qcache.stale_evictions", "count"},
	{"qcache.coalesced", "count"},
	{"qcache.shed", "count"},
	{"core.gamma_p50_us", "us"},
	{"core.discover_p50_ms", "ms"},
	{"core.discover_alloc_mb", "MB"},
	{"core.discover_allocs", "count"},
	{"core.build_otim_ms", "ms"},
	{"core.build_tags_ms", "ms"},
	{"core.build_derived_ms", "ms"},
	{"core.build_total_ms", "ms"},
	{"otim.cheap_bounds", "count"},
	{"otim.local_bounds", "count"},
	{"otim.exact_evals", "count"},
	{"otim.heap_ops", "count"},
	{"otim.samples_mixed", "count"},
	{"otim.exact_ratio", "ratio"},
	{"mia.im_trees", "count"},
	{"mia.im_nodes", "count"},
	{"mia.im_edges", "count"},
	{"mia.paths_trees", "count"},
	{"mia.paths_nodes", "count"},
	{"mia.paths_edges", "count"},
	{"tags.polls", "count"},
	{"tags.trees", "count"},
	{"tags.coins", "count"},
	{"stream.ingest_call_p50_us", "us"},
	{"stream.swap_action_p50_ms", "ms"},
	{"stream.swap_edge_p50_ms", "ms"},
	{"stream.action_fold_model_ms", "ms"},
	{"stream.action_fold_otim_ms", "ms"},
	{"stream.action_fold_tags_ms", "ms"},
	{"stream.action_fold_derived_ms", "ms"},
	{"stream.edge_fold_model_ms", "ms"},
	{"stream.edge_fold_otim_ms", "ms"},
	{"stream.edge_fold_tags_ms", "ms"},
	{"stream.edge_fold_derived_ms", "ms"},
	{"stream.incremental_folds", "count"},
	{"stream.fold_fallbacks", "count"},
	{"stream.dirty_nodes_p50", "nodes"},
	{"store.checkpoint_p50_ms", "ms"},
	{"store.wal_syncs", "count"},
	{"store.wal_bytes_per_event", "B"},
	{"store.save_ms", "ms"},
	{"store.map_ms", "ms"},
	{"store.snapshot_mb", "MB"},
	{"store.copy_fallbacks", "count"},
	{"shard.split_ms", "ms"},
	{"shard.build_ms", "ms"},
	{"coord.slowest_shard_p50_ms", "ms"},
	{"coord.merge_overhead_p50_ms", "ms"},
	{"coord.reply_kb", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_read", "MB"},
}

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// minIMReads is the fewest IM reads a run makes, whatever --seconds
// says: p90 is reported only with at least 10 samples beyond it.
const minIMReads = 100

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p90(xs []float64) float64 { return quantile(xs, 0.9) }

// beyond is how many samples of n lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// latencies returns the durations, in ms, of the answers of class cls
// ("" for all of them).
func latencies(as []*answer, cls string) []float64 {
	var xs []float64
	for _, a := range as {
		if cls == "" || a.q.cls == cls {
			xs = append(xs, ms(a.dur))
		}
	}
	return xs
}
