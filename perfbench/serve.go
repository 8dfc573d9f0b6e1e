package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/server"
)

// setupReps is how often a run sets its system up; setup_s is the
// median, and the last set-up serves the measured phase.
const setupReps = 5

// serveOptions are the `octopus serve` defaults: the 4096-entry result
// cache, the built-in trace ring, the default SLO tracker and an engine
// gate of four slots per GOMAXPROCS.
func serveOptions() server.Options {
	return server.Options{MaxInflight: 4 * runtime.GOMAXPROCS(0)}
}

// timeReads sends reads one after another (one closed-loop client) and
// returns their answers. In a traced run every read of the primary
// class (none if primary is "") also reads the program's own trace back
// for the server layer.
func (b *bench) timeReads(h http.Handler, reads []*query, parent int, primary string) []*answer {
	out := make([]*answer, 0, len(reads))
	for _, q := range reads {
		a := b.serve(h, q, parent)
		if b.tr != nil && q.cls == primary {
			b.serverSpans(h, a)
		}
		out = append(out, a)
	}
	return out
}

// summarize checks the measured phase's answers and sets the read
// metrics: throughput, the per-class latencies (one median per class)
// and the mean spread of the distinct IM answers. ranked is true when
// the answers come from a coordinator.
func (b *bench) summarize(as []*answer, ranked bool) error {
	spread, err := checkAnswers(as, ranked)
	if err != nil {
		return err
	}
	b.e2e["im_spread"] = spread
	if b.tr != nil {
		b.costLayer(as)
	}
	return b.setLatencies(as)
}

// checkAnswers checks every answer and returns the IM answers' mean
// spread, each distinct IM query weighing the same (a query asked after
// several swaps counts with the mean of its answers).
func checkAnswers(as []*answer, ranked bool) (float64, error) {
	spreads := map[string][]float64{}
	for _, a := range as {
		if err := checkOK(a); err != nil {
			return 0, err
		}
		if a.q.cls == "im" {
			s, err := checkIM(a.body, imK, ranked)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", a.q.key, err)
			}
			spreads[a.q.key] = append(spreads[a.q.key], s)
		}
	}
	if len(spreads) == 0 {
		return 0, fmt.Errorf("no im answers")
	}
	total := 0.0
	for _, s := range spreads {
		total += mean(s)
	}
	return total / float64(len(spreads)), nil
}

// setLatencies sets read_qps and the per-class latencies from the
// first-time reads of a measured phase.
func (b *bench) setLatencies(as []*answer) error {
	classes := map[string]bool{}
	for _, a := range as {
		classes[a.q.cls] = true
	}
	for _, cls := range sortedKeys(classes) {
		xs := latencies(as, cls)
		b.logf("reads %-8s n=%-6d p50=%.4f ms p90=%.4f ms (%d beyond p90)",
			cls, len(xs), p50(xs), p90(xs), beyond(len(xs), 0.9))
	}
	for _, cls := range []string{"im", "suggest", "paths"} {
		if !classes[cls] {
			return fmt.Errorf("the measured phase holds no %s reads", cls)
		}
	}
	im := latencies(as, "im")
	if beyond(len(im), 0.9) < 10 {
		return fmt.Errorf("%d im reads leave fewer than 10 samples beyond p90", len(im))
	}
	total := 0.0
	for _, x := range latencies(as, "") {
		total += x
	}
	b.e2e["read_qps"] = float64(len(as)) / (total / 1e3)
	b.e2e["im_p50_ms"] = p50(im)
	b.e2e["im_p90_ms"] = p90(im)
	b.e2e["suggest_p50_ms"] = p50(latencies(as, "suggest"))
	b.e2e["paths_p50_ms"] = p50(latencies(as, "paths"))
	b.logf("reads: %d in %.3f s of reading", len(as), total/1e3)
	return nil
}

// setHits sets hit_p50_us from the cached reads of a measured phase.
func (b *bench) setHits(hits []*answer) {
	xs := latencies(hits, "")
	b.e2e["hit_p50_us"] = p50(xs) * 1e3
	b.logf("hits: n=%d p50=%.4f us", len(xs), p50(xs)*1e3)
}

// reaskWindow is how many of the most recently answered cached reads a
// re-ask draws from. The result cache is one LRU of
// server.DefaultCacheEntries entries, and every first read adds at most
// one, so a window well inside it keeps every re-ask a hit however long
// the run.
const reaskWindow = server.DefaultCacheEntries / 4

// timeReadsWithHits is timeReads that also re-asks, after every read
// of the primary class, perRead reads drawn (seeded) from the last
// reaskWindow cached reads answered so far. The re-asks are spread over
// the whole phase, so hit_p50_us covers the same stretch of time as the
// other latencies instead of a short window of its own.
func (b *bench) timeReadsWithHits(h http.Handler, reads []*query, parent int, primary string, perRead int) (first, hits []*answer) {
	r := rand.New(rand.NewSource(int64(b.opt.seed ^ 0x417)))
	var cached []*query
	for _, q := range reads {
		a := b.serve(h, q, parent)
		if b.tr != nil && q.cls == primary {
			b.serverSpans(h, a)
		}
		first = append(first, a)
		if cachedClasses[q.cls] {
			cached = append(cached, q)
		}
		if q.cls != primary {
			continue
		}
		for i := 0; i < perRead && len(cached) > 0; i++ {
			recent := cached[max(0, len(cached)-reaskWindow):]
			hits = append(hits, b.serve(h, recent[r.Intn(len(recent))], parent))
		}
	}
	return first, hits
}

// checkHits requires every re-ask to hit the result cache and return
// the first answer's bytes, and sets hit_p50_us.
func (b *bench) checkHits(first, hits []*answer) error {
	body := make(map[*query][]byte, len(first))
	for _, a := range first {
		body[a.q] = a.body
	}
	for _, a := range hits {
		if err := checkOK(a); err != nil {
			return err
		}
		if err := checkCache([]*answer{a}, "hit"); err != nil {
			return err
		}
		if err := checkSameBody("cached replay of "+a.q.key, body[a.q], a.body); err != nil {
			return err
		}
	}
	if len(hits) == 0 {
		return fmt.Errorf("no cached re-asks were made")
	}
	b.setHits(hits)
	return nil
}

// costLayer averages the explain ledgers of the measured phase.
func (b *bench) costLayer(as []*answer) {
	var im, paths, sug []obs.Cost
	for _, a := range as {
		if a.cost == nil {
			continue
		}
		switch a.q.cls {
		case "im":
			im = append(im, *a.cost)
		case "paths":
			paths = append(paths, *a.cost)
		case "suggest":
			sug = append(sug, *a.cost)
		}
	}
	avg := func(cs []obs.Cost, f func(obs.Cost) uint64) float64 {
		if len(cs) == 0 {
			return 0
		}
		t := 0.0
		for _, c := range cs {
			t += float64(f(c))
		}
		return t / float64(len(cs))
	}
	L := b.layer
	L["otim.cheap_bounds"] = avg(im, func(c obs.Cost) uint64 { return c.OTIM.CheapBounds })
	L["otim.local_bounds"] = avg(im, func(c obs.Cost) uint64 { return c.OTIM.LocalBounds })
	L["otim.exact_evals"] = avg(im, func(c obs.Cost) uint64 { return c.OTIM.ExactEvals })
	L["otim.heap_ops"] = avg(im, func(c obs.Cost) uint64 { return c.OTIM.HeapOps })
	L["otim.samples_mixed"] = avg(im, func(c obs.Cost) uint64 { return c.OTIM.SamplesMixed })
	if tiers := L["otim.cheap_bounds"] + L["otim.local_bounds"] + L["otim.exact_evals"]; tiers > 0 {
		L["otim.exact_ratio"] = L["otim.exact_evals"] / tiers
	}
	L["mia.im_trees"] = avg(im, func(c obs.Cost) uint64 { return c.MIA.Trees })
	L["mia.im_nodes"] = avg(im, func(c obs.Cost) uint64 { return c.MIA.Nodes })
	L["mia.im_edges"] = avg(im, func(c obs.Cost) uint64 { return c.MIA.Edges })
	L["mia.paths_trees"] = avg(paths, func(c obs.Cost) uint64 { return c.MIA.Trees })
	L["mia.paths_nodes"] = avg(paths, func(c obs.Cost) uint64 { return c.MIA.Nodes })
	L["mia.paths_edges"] = avg(paths, func(c obs.Cost) uint64 { return c.MIA.Edges })
	L["tags.polls"] = avg(sug, func(c obs.Cost) uint64 { return c.Tags.Polls })
	L["tags.trees"] = avg(sug, func(c obs.Cost) uint64 { return c.Tags.Trees })
	L["tags.coins"] = avg(sug, func(c obs.Cost) uint64 { return c.Tags.Coins })
}

// serverLayer sets the server and qcache metrics: the request spans
// the benchmark recorded, the program's own cache spans, and the
// result-cache counters of /api/metrics.
func (b *bench) serverLayer(h http.Handler) error {
	L := b.layer
	L["server.request_p50_us"] = median(b.reqUS)
	L["server.self_p50_us"] = median(b.selfUS)
	L["qcache.lookup_p50_us"] = median(b.lookupUS)
	var w recorder
	w.reset()
	req, _ := http.NewRequest(http.MethodGet, "/api/metrics", nil)
	h.ServeHTTP(&w, req)
	var doc struct {
		Endpoints map[string]struct {
			Hits      uint64 `json:"cacheHits"`
			Misses    uint64 `json:"cacheMisses"`
			Stale     uint64 `json:"cacheStale"`
			Coalesced uint64 `json:"coalesced"`
			Shed      uint64 `json:"shed"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("/api/metrics does not decode: %w", err)
	}
	var hits, lookups, stale, coal, shed uint64
	for _, e := range doc.Endpoints {
		hits += e.Hits
		lookups += e.Hits + e.Misses + e.Stale
		stale += e.Stale
		coal += e.Coalesced
		shed += e.Shed
	}
	if lookups > 0 {
		L["qcache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	L["qcache.stale_evictions"] = float64(stale)
	L["qcache.coalesced"] = float64(coal)
	L["qcache.shed"] = float64(shed)
	return nil
}

// coreLayer calls the engine directly on the keywords of up to n IM
// reads: γ inference and the full discovery, with the allocation of
// each discovery measured around the call.
func (b *bench) coreLayer(sys *core.System, reads []*query, n int) error {
	var gamma, disc, mb, allocs []float64
	for _, q := range reads {
		if q.cls != "im" {
			continue
		}
		if len(disc) == n {
			break
		}
		words := strings.Fields(q.req.URL.Query().Get("q"))
		sp := b.tr.begin("core.InferGamma", 0, q.key)
		t0 := time.Now()
		sys.InferGamma(words)
		gamma = append(gamma, us(time.Since(t0)))
		b.tr.end(sp)
		m0 := memNow()
		sp = b.tr.begin("core.DiscoverInfluencers", 0, q.key)
		t0 = time.Now()
		_, err := sys.DiscoverInfluencers(words, core.DiscoverOptions{K: imK})
		disc = append(disc, ms(time.Since(t0)))
		b.tr.end(sp)
		m1 := memNow()
		if err != nil {
			return fmt.Errorf("direct discovery for %s: %w", q.key, err)
		}
		mb = append(mb, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	b.layer["core.gamma_p50_us"] = median(gamma)
	b.layer["core.discover_p50_ms"] = median(disc)
	b.layer["core.discover_alloc_mb"] = mean(mb)
	b.layer["core.discover_allocs"] = mean(allocs)
	return nil
}

// buildLayer records where a build's time went (medians over the
// set-ups of the run).
func (b *bench) buildLayer(ts []core.BuildTimings) {
	var otim, tags, derived, total []float64
	for _, t := range ts {
		otim = append(otim, ms(t.OTIM))
		tags = append(tags, ms(t.Tags))
		derived = append(derived, ms(t.Derived))
		total = append(total, ms(t.Total))
	}
	b.layer["core.build_otim_ms"] = median(otim)
	b.layer["core.build_tags_ms"] = median(tags)
	b.layer["core.build_derived_ms"] = median(derived)
	b.layer["core.build_total_ms"] = median(total)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
