package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/server"
	"octopus/internal/store"
)

// Work per second of --seconds, sized on the reference host (2 cores)
// so that the measured phase takes about that long.
const (
	coldIMPerSecond  = 30 // keyword-IM reads, each followed by a suggest and a paths read
	coldHitsPerIM    = 64 // cached re-asks after each IM read, behind hit_p50_us
	heapCheckSamples = 24 // reads re-asked of a heap-loaded server
)

// static is a server over a mapped snapshot, as `octopus serve -load
// -mmap` runs it.
type static struct {
	sys    *core.System
	mapped *store.Mapped
	srv    *server.Server
	path   string

	build, save, mapT time.Duration
}

func (s *static) close() {
	s.srv.Close()
	s.mapped.Close()
}

// setupStatic builds the system, saves its snapshot, maps it back and
// answers the warm-up reads: set-up from generated inputs to the first
// warm answer. It repeats setupReps times and keeps the last set-up.
func (b *bench) setupStatic(ds *datagen.Dataset, warm []*query) (*static, error) {
	var st *static
	var durs []float64
	var timings []core.BuildTimings
	var saves, maps []float64
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		path := filepath.Join(b.tmp, fmt.Sprintf("snapshot-%d.oct", rep))
		root := b.tr.begin("setup", 0, "")
		t0 := time.Now()
		sp := b.tr.begin("core.Build", root, "")
		sys, err := core.Build(ds.Graph, ds.Log, buildConfig(ds, ds.Truth))
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp = b.tr.begin("store.Save", root, "")
		err = store.Save(path, sys)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		sp = b.tr.begin("store.Map", root, "")
		msys, mapped, err := store.Map(path, store.MapOptions{})
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		opt := serveOptions()
		opt.StoreStats = mapped.Stats
		st = &static{sys: msys, mapped: mapped, srv: server.NewWith(msys, opt), path: path,
			build: t1.Sub(t0), save: t2.Sub(t1), mapT: t3.Sub(t2)}
		for _, q := range warm {
			if err := checkOK(b.serve(st.srv, q, root)); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
		b.tr.end(root)
		timings = append(timings, sys.Timings())
		saves = append(saves, ms(st.save))
		maps = append(maps, ms(st.mapT))
		if rep < setupReps-1 {
			os.Remove(path)
		}
	}
	b.e2e["setup_s"] = median(durs)
	b.logf("setup: %s (median %.4f s): build %.1f ms, save %.1f ms, map %.1f ms (last)",
		fmtList(durs), median(durs), ms(st.build), ms(st.save), ms(st.mapT))
	b.buildLayer(timings)
	b.layer["store.save_ms"] = median(saves)
	b.layer["store.map_ms"] = median(maps)
	mst := st.mapped.Stats()
	b.layer["store.snapshot_mb"] = float64(mst.FileSize) / 1e6
	b.layer["store.copy_fallbacks"] = float64(mst.CopyFallbacks)
	b.logf("store: %s backing, %.2f MB snapshot, %d copy fallbacks", mst.Backing, float64(mst.FileSize)/1e6, mst.CopyFallbacks)
	return st, nil
}

// warmReads are the fixed reads that end every set-up, drawn from the
// workload's own generator so the measured reads never repeat them.
func (b *bench) warmReads(g *gen) []*query {
	return []*query{
		b.newQuery("im", g.imTarget()),
		b.newQuery("suggest", suggestPath(g.actor())),
		b.newQuery("paths", pathsPath(g.user())),
	}
}

// runCold is the engine-bound workload: never-repeating keyword-IM
// reads interleaved with suggest and paths reads for distinct users, so
// every read misses the result cache and runs an engine.
func runCold(b *bench) error {
	ds, err := genCorpus(b.opt)
	if err != nil {
		return err
	}
	g := newGen(ds, b.opt.seed)
	warm := b.warmReads(g)
	var reads []*query
	for i := 0; i < max(coldIMPerSecond*b.opt.seconds, minIMReads); i++ {
		reads = append(reads,
			b.newQuery("im", g.imTarget()),
			b.newQuery("suggest", suggestPath(g.actor())),
			b.newQuery("paths", pathsPath(g.user())))
	}
	b.logf("corpus: %d authors, %d edges, %d episodes; %d reads", ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(ds.Log.Episodes), len(reads))

	st, err := b.setupStatic(ds, warm)
	if err != nil {
		return err
	}
	defer st.close()
	ds, g = nil, nil
	b.e2e["live_heap_mb"] = liveHeapMB()

	m0 := memNow()
	sp := b.tr.begin("phase.cold", 0, "")
	answers, hits := b.timeReadsWithHits(st.srv, reads, sp, "im", coldHitsPerIM)
	b.tr.end(sp)
	b.setRuntimeLayer(memSince(m0), len(answers)+len(hits))
	if err := checkCache(answers, "miss"); err != nil {
		return fmt.Errorf("check failed: every cold read must miss: %w", err)
	}
	if err := b.summarize(answers, false); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if err := b.checkHits(answers, hits); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if err := b.heapCheck(st, answers); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if b.tr != nil {
		if err := b.coreLayer(st.sys, reads, 24); err != nil {
			return err
		}
		return b.serverLayer(st.srv)
	}
	return nil
}

// heapCheck re-asks a seeded sample of the cold reads of a server over
// the same snapshot decoded onto the heap (store.Load): the mapped and
// heap answers must be byte-identical.
func (b *bench) heapCheck(st *static, answers []*answer) error {
	sys, err := store.Load(st.path)
	if err != nil {
		return err
	}
	srv := server.NewWith(sys, serveOptions())
	defer srv.Close()
	r := rand.New(rand.NewSource(int64(b.opt.seed ^ 0x4ea9)))
	for i := 0; i < heapCheckSamples; i++ {
		a := answers[r.Intn(len(answers))]
		var w recorder
		w.reset()
		srv.ServeHTTP(&w, a.q.req)
		body := w.buf.Bytes()
		if b.opt.trace {
			body, _ = unwrapExplain(body)
		}
		if err := checkSameBody("heap-loaded server on "+a.q.key, a.body, body); err != nil {
			return err
		}
	}
	b.logf("check: %d sampled reads byte-identical on a heap-loaded server", heapCheckSamples)
	return nil
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s + "]"
}
