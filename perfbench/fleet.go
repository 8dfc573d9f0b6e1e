package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"octopus/internal/core"
	"octopus/internal/server"
	"octopus/internal/shard"
)

// fleet-2shard sizing: keyword-IM reads per second of --seconds; every
// IM read is followed by a suggest and a paths read, every fourth by a
// complete, a radar and a status read.
const (
	fleetIMPerSecond = 45
	fleetShards      = 2
	fleetHitsPerIM   = 32 // cached re-asks after each IM read, behind hit_p50_us
)

// fleet is a coordinator over shard servers, each on its own loopback
// listener in this process.
type fleet struct {
	full   *core.System
	shards []*core.System
	srvs   []*server.Server
	https  []*http.Server
	wg     sync.WaitGroup
	coord  *server.Server

	split, build time.Duration
}

func (f *fleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	for _, hs := range f.https {
		hs.Close()
	}
	f.wg.Wait()
	for _, s := range f.srvs {
		s.Close()
	}
}

// serveShard starts a shard server on a fresh loopback listener.
func (f *fleet) serveShard(sys *core.System) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := server.NewWith(sys, serveOptions())
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	f.srvs = append(f.srvs, srv)
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(fmt.Sprintf("perfbench: shard listener: %v", err))
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// runFleet is the scatter-gather workload: a coordinator over two
// hash-partitioned shards of the corpus, asked never-repeating IM
// reads (merged additively) beside complete, radar and status reads
// (merged exactly) and single-owner suggest and paths reads.
func runFleet(b *bench) error {
	ds, err := genCorpus(b.opt)
	if err != nil {
		return err
	}
	g := newGen(ds, b.opt.seed)
	warm := []*query{b.newQuery("im", g.imTarget()), b.newQuery("status", "/api/status")}
	var reads []*query
	for i := 0; i < max(fleetIMPerSecond*b.opt.seconds, minIMReads); i++ {
		reads = append(reads,
			b.newQuery("im", g.imTarget()),
			b.newQuery("suggest", suggestPath(g.actor())),
			b.newQuery("paths", pathsPath(g.user())))
		if i%4 == 3 {
			reads = append(reads, b.newQuery("complete", g.completeTarget()), b.newQuery("status", "/api/status"))
			if g.ri < len(g.vocab) {
				reads = append(reads, b.newQuery("radar", g.radarTarget()))
			}
		}
	}
	b.logf("corpus: %d authors, %d edges, %d episodes; %d reads", ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(ds.Log.Episodes), len(reads))

	var f *fleet
	var durs, splits, builds []float64
	var timings []core.BuildTimings
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			f.close()
		}
		f = &fleet{}
		root := b.tr.begin("setup", 0, "")
		t0 := time.Now()
		sp := b.tr.begin("core.Build", root, "")
		full, err := core.Build(ds.Graph, ds.Log, buildConfig(ds, ds.Truth))
		b.tr.end(sp)
		if err != nil {
			return err
		}
		f.full = full
		t1 := time.Now()
		sp = b.tr.begin("shard.SplitSystem", root, "")
		corpora, err := shard.SplitSystem(full, shard.Hash{Seed: corpusSeed}, fleetShards)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		t2 := time.Now()
		for _, c := range corpora {
			sp = b.tr.begin("shard.BuildSystem", root, "")
			sys, err := shard.BuildSystem(full, c)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			f.shards = append(f.shards, sys)
		}
		t3 := time.Now()
		f.split, f.build = t2.Sub(t1), t3.Sub(t2)
		var addrs []string
		for _, sys := range f.shards {
			addr, err := f.serveShard(sys)
			if err != nil {
				f.close()
				return err
			}
			addrs = append(addrs, addr)
		}
		f.coord, err = server.NewCoordinator(addrs, serveOptions(), server.CoordinatorOptions{})
		if err != nil {
			f.close()
			return err
		}
		for _, q := range warm {
			if err := checkOK(b.serve(f.coord, q, root)); err != nil {
				f.close()
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
		b.tr.end(root)
		splits = append(splits, ms(f.split))
		builds = append(builds, ms(f.build))
		timings = append(timings, full.Timings())
	}
	defer f.close()
	b.e2e["setup_s"] = median(durs)
	b.logf("setup: %s (median %.4f s): split %.1f ms, shard builds %.1f ms (last)",
		fmtList(durs), median(durs), ms(f.split), ms(f.build))
	b.buildLayer(timings)
	b.layer["shard.split_ms"] = median(splits)
	b.layer["shard.build_ms"] = median(builds)
	ds, g = nil, nil
	b.e2e["live_heap_mb"] = liveHeapMB()

	m0 := memNow()
	sp := b.tr.begin("phase.fleet", 0, "")
	answers, hits := b.timeReadsWithHits(f.coord, reads, sp, "im", fleetHitsPerIM)
	b.tr.end(sp)
	b.setRuntimeLayer(memSince(m0), len(answers)+len(hits))
	if err := b.summarize(answers, true); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if err := b.fleetCheck(f, answers); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if err := b.checkHits(answers, hits); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if b.tr != nil {
		b.shardLayer(f, answers)
		if err := b.coreLayer(f.shards[0], reads, 24); err != nil {
			return err
		}
		return b.serverLayer(f.coord)
	}
	return nil
}

// fleetCheck requires the coordinator's exactly merged answers —
// status, complete and radar — to equal a single-process server's over
// the unsplit corpus.
func (b *bench) fleetCheck(f *fleet, answers []*answer) error {
	single := server.NewWith(f.full, serveOptions())
	defer single.Close()
	n := 0
	for _, a := range answers {
		var w recorder
		switch a.q.cls {
		case "status", "complete", "radar":
			w.reset()
			single.ServeHTTP(&w, a.q.req)
		default:
			continue
		}
		body := w.buf.Bytes()
		if b.opt.trace {
			body, _ = unwrapExplain(body)
		}
		var err error
		if a.q.cls == "status" {
			err = checkFleetStatus(body, a.body)
		} else {
			err = checkSameBody("coordinator vs single process on "+a.q.key, body, a.body)
		}
		if err != nil {
			return err
		}
		n++
	}
	b.logf("check: %d status/complete/radar answers equal the single-process answers", n)
	return nil
}

// shardLayer replays each IM read directly to uncached handlers over
// the shard systems (traced runs only): the slowest shard's time, the
// coordinator's time beyond it (fan-out, decode, merge, encode) and the
// size of the shard replies.
func (b *bench) shardLayer(f *fleet, answers []*answer) {
	direct := make([]*server.Server, len(f.shards))
	for i, sys := range f.shards {
		opt := serveOptions()
		opt.CacheEntries = -1
		direct[i] = server.NewWith(sys, opt)
		defer direct[i].Close()
	}
	var slowest, overhead, replyKB []float64
	for _, a := range answers {
		if a.q.cls != "im" {
			continue
		}
		req, _ := http.NewRequest(http.MethodGet, a.q.key, nil)
		worst := 0.0
		for _, h := range direct {
			var w recorder
			w.reset()
			sp := b.tr.begin("shard.ServeHTTP", 0, a.q.key)
			t0 := time.Now()
			h.ServeHTTP(&w, req)
			d := ms(time.Since(t0))
			b.tr.end(sp)
			worst = max(worst, d)
			replyKB = append(replyKB, float64(w.buf.Len())/1e3)
		}
		slowest = append(slowest, worst)
		overhead = append(overhead, ms(a.dur)-worst)
	}
	b.layer["coord.slowest_shard_p50_ms"] = median(slowest)
	b.layer["coord.merge_overhead_p50_ms"] = median(overhead)
	b.layer["coord.reply_kb"] = mean(replyKB)
}
