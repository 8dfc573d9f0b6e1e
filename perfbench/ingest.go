package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/server"
	"octopus/internal/store"
	"octopus/internal/stream"
	"octopus/internal/tic"
)

// ingest-live sizing: batches per second of --seconds, and the shape
// of each batch and of the read burst that follows every swap.
const (
	ingestBatchesPerSecond = 2
	edgeBatchEvery         = 5  // every 5th batch carries held-out edges
	edgesPerBatch          = 3  // held-out real edges per edge batch
	itemsPerBatch          = 16 // new items per action batch
	actorsPerItem          = 6  // existing users acting on each new item
	burstIM                = 6  // popular IM reads in the burst after each swap
	popularIM              = 24 // popular IM queries the bursts rotate through
	burstUsers             = 8  // fresh users per burst, each asked a suggest and a paths read
	burstReplays           = 3  // re-asks of each burst, all answered from the cache
)

// batch is one ingest call: either new items with their actions, or
// held-out edges.
type batch struct {
	items []actionlog.Item
	acts  []actionlog.Action
	edges []stream.EdgeEvent
}

func (bt *batch) kind() string {
	if len(bt.edges) > 0 {
		return "edge"
	}
	return "action"
}

// live is the durable live system under test and its server.
type live struct {
	ls  *stream.LiveSystem
	srv *server.Server
	dir string
}

func (l *live) close() error {
	l.srv.Close()
	err := l.ls.Close()
	os.RemoveAll(l.dir)
	return err
}

// runIngest is the write-beside-read workload: a durable live system
// replays seeded action and edge batches; after each batch a forced
// snapshot folds, checkpoints and swaps, then a burst of popular IM
// reads and of suggest and paths reads runs against the new generation
// (every read misses, because the swap bumped it) and is re-asked once
// (every re-ask hits).
func runIngest(b *bench) error {
	ds, err := genCorpus(b.opt)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(int64(b.opt.seed ^ 0x17e)))
	baseG, held := heldOut(ds.Graph, r)
	baseModel, err := tic.Remap(ds.Truth, baseG, nil)
	if err != nil {
		return err
	}
	g := newGen(ds, b.opt.seed)
	warm := b.warmReads(g)
	// The IM reads of a burst rotate through the popular queries, so the
	// median spans many of them; suggest and paths reads go to fresh
	// users, so neither median rests on one user's cost.
	var popular []*query
	for i := 0; i < popularIM; i++ {
		words := []string{g.vocab[i]}
		if i%2 == 1 {
			words = append(words, g.vocab[i+7])
		}
		popular = append(popular, b.newQuery("im", imPath(words)))
	}
	nBatches := max(ingestBatchesPerSecond*b.opt.seconds, (minIMReads+burstIM-1)/burstIM)
	bursts := make([][]*query, nBatches)
	for k := range bursts {
		for j := 0; j < burstIM; j++ {
			bursts[k] = append(bursts[k], popular[(k*burstIM+j)%len(popular)])
		}
		for j := 0; j < burstUsers; j++ {
			bursts[k] = append(bursts[k],
				b.newQuery("suggest", suggestPath(g.actor())),
				b.newQuery("paths", pathsPath(g.user())))
		}
	}
	batches := genBatches(ds.Log, baseG.NumNodes(), held, g.vocab, r, nBatches)
	b.logf("corpus: %d authors, %d base edges, %d held-out edges, %d episodes; %d batches, bursts of %d reads",
		baseG.NumNodes(), baseG.NumEdges(), len(held), len(ds.Log.Episodes), len(batches), len(bursts[0]))

	var st *live
	var durs []float64
	var timings []core.BuildTimings
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		dir := filepath.Join(b.tmp, fmt.Sprintf("live-%d", rep))
		root := b.tr.begin("setup", 0, "")
		t0 := time.Now()
		sp := b.tr.begin("core.Build", root, "")
		sys, err := core.Build(baseG, ds.Log, buildConfig(ds, baseModel))
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("store.Open", root, "")
		d, _, err := store.Open(dir)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("stream.NewLiveSystem", root, "")
		ls, err := stream.NewLiveSystem(sys, stream.Config{
			RebuildEvents:   1 << 30, // fold only at the forced points
			IncrementalFold: true,
			Store:           d,
		})
		b.tr.end(sp)
		if err != nil {
			d.Close()
			return err
		}
		st = &live{ls: ls, srv: server.NewLiveWith(ls, serveOptions()), dir: dir}
		for _, q := range warm {
			if err := checkOK(b.serve(st.srv, q, root)); err != nil {
				st.close()
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
		b.tr.end(root)
		timings = append(timings, sys.Timings())
	}
	defer st.close()
	b.e2e["setup_s"] = median(durs)
	b.logf("setup: %s (median %.4f s)", fmtList(durs), median(durs))
	b.logf("live store: %s on %s", st.dir, fsType(st.dir))
	b.buildLayer(timings)
	ds, g, baseG, held = nil, nil, nil, nil
	b.e2e["live_heap_mb"] = liveHeapMB()

	s0 := st.ls.Stats()
	var reads, hits []*answer
	var swapAct, swapEdge, ingestUS, dirty, checkpoint []float64
	folds := map[string][][4]float64{} // per batch kind: model, otim, tags, derived ms
	var split []string
	m0 := memNow()
	phase := b.tr.begin("phase.ingest", 0, "")
	for i, bt := range batches {
		before := st.ls.Stats()
		sp := b.tr.begin("batch."+bt.kind(), phase, "")
		t0 := time.Now()
		isp := b.tr.begin("stream.Ingest", sp, "")
		if bt.kind() == "edge" {
			err = st.ls.IngestEdges(bt.edges)
		} else {
			err = st.ls.IngestActions(bt.items, bt.acts)
		}
		ingestUS = append(ingestUS, us(time.Since(t0)))
		b.tr.end(isp)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		fsp := b.tr.begin("stream.ForceSnapshot", sp, "")
		t1 := time.Now()
		err = st.ls.ForceSnapshot()
		forced := time.Since(t1)
		swap := time.Since(t0)
		b.tr.end(fsp)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("batch %d: forced snapshot: %w", i, err)
		}
		after := st.ls.Stats()
		how := "incremental"
		if after.FoldFallbacks > before.FoldFallbacks {
			how = "fallback"
		} else {
			dirty = append(dirty, float64(after.LastFoldDirtyNodes))
		}
		split = append(split, bt.kind()+":"+how)
		stages := [4]float64{after.LastFoldModelMillis, after.LastFoldOTIMMillis, after.LastFoldTagsMillis, after.LastFoldDerivedMillis}
		folds[bt.kind()] = append(folds[bt.kind()], stages)
		checkpoint = append(checkpoint, ms(forced)-stages[0]-stages[1]-stages[2]-stages[3])
		if bt.kind() == "edge" {
			swapEdge = append(swapEdge, ms(swap))
		} else {
			swapAct = append(swapAct, ms(swap))
		}
		got := b.timeReads(st.srv, bursts[i], sp, "im")
		if err := checkCache(got, "miss", "stale"); err != nil {
			return fmt.Errorf("check failed: the first read after a swap must miss: %w", err)
		}
		reads = append(reads, got...)
		for rep := 0; rep < burstReplays; rep++ {
			again := b.timeReads(st.srv, bursts[i], sp, "")
			for j, a := range again {
				if err := checkOK(a); err != nil {
					return fmt.Errorf("check failed: %w", err)
				}
				if err := checkSameBody("cached replay of "+a.q.key, got[j].body, a.body); err != nil {
					return fmt.Errorf("check failed: %w", err)
				}
			}
			if err := checkCache(again, "hit"); err != nil {
				return fmt.Errorf("check failed: %w", err)
			}
			hits = append(hits, again...)
		}
	}
	b.tr.end(phase)
	b.setRuntimeLayer(memSince(m0), len(reads))
	s1 := st.ls.Stats()

	if err := b.summarize(reads, false); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	b.setHits(hits)
	b.logf("swaps: action n=%d p50=%.3f ms; edge n=%d p50=%.3f ms", len(swapAct), median(swapAct), len(swapEdge), median(swapEdge))

	// The live system must have taken every event and swapped once per
	// batch; the split of incremental and fallback folds is recorded so
	// the next run of this seed must repeat it exactly.
	rejected := (s1.Invalid - s0.Invalid) + (s1.Dropped - s0.Dropped) + (s1.Duplicates - s0.Duplicates)
	b.attempted += len(batches)
	b.failed += int(rejected)
	b.split = fmt.Sprintf("version=%d %s", s1.Version, strings.Join(split, ","))
	b.logf("folds: %d incremental, %d fallback; final version %d; %d events refused",
		s1.IncrementalFolds-s0.IncrementalFolds, s1.FoldFallbacks-s0.FoldFallbacks, s1.Version, rejected)
	if want := s0.Version + uint64(len(batches)); s1.Version != want {
		return fmt.Errorf("check failed: final version %d after %d batches, want %d", s1.Version, len(batches), want)
	}

	if b.tr != nil {
		L := b.layer
		L["stream.ingest_call_p50_us"] = median(ingestUS)
		L["stream.swap_action_p50_ms"] = median(swapAct)
		L["stream.swap_edge_p50_ms"] = median(swapEdge)
		for _, kind := range []string{"action", "edge"} {
			for j, stage := range []string{"model", "otim", "tags", "derived"} {
				var xs []float64
				for _, f := range folds[kind] {
					xs = append(xs, f[j])
				}
				L[fmt.Sprintf("stream.%s_fold_%s_ms", kind, stage)] = median(xs)
			}
		}
		L["stream.incremental_folds"] = float64(s1.IncrementalFolds - s0.IncrementalFolds)
		L["stream.fold_fallbacks"] = float64(s1.FoldFallbacks - s0.FoldFallbacks)
		L["stream.dirty_nodes_p50"] = median(dirty)
		L["store.checkpoint_p50_ms"] = median(checkpoint)
		L["store.wal_syncs"] = float64(s1.WALSyncs - s0.WALSyncs)
		if ev := s1.Applied - s0.Applied; ev > 0 {
			L["store.wal_bytes_per_event"] = float64(s1.WALBytesLogged-s0.WALBytesLogged) / float64(ev)
		}
		if fi, err := os.Stat(store.SnapshotPathIn(st.dir)); err == nil {
			L["store.snapshot_mb"] = float64(fi.Size()) / 1e6
		}
		if err := b.coreLayer(st.ls.System(), popular, popularIM); err != nil {
			return err
		}
		return b.serverLayer(st.srv)
	}
	return nil
}

// genBatches generates the event stream: action batches of new items
// acted on by existing users, and every edgeBatchEvery-th batch a few
// held-out real edges.
func genBatches(log *actionlog.Log, nodes int, held [][2]graph.NodeID, vocab []string, r *rand.Rand, n int) []*batch {
	maxItem, maxTime := int32(0), int64(0)
	for _, ep := range log.Episodes {
		maxItem = max(maxItem, ep.Item.ID)
		for _, a := range ep.Actions {
			maxTime = max(maxTime, a.Time)
		}
	}
	popular := vocab[:min(24, len(vocab))]
	var out []*batch
	he := 0
	for i := 0; i < n; i++ {
		bt := &batch{}
		if i%edgeBatchEvery == edgeBatchEvery-1 && he+edgesPerBatch <= len(held) {
			for _, e := range held[he : he+edgesPerBatch] {
				bt.edges = append(bt.edges, stream.EdgeEvent{Src: e[0], Dst: e[1]})
			}
			he += edgesPerBatch
			out = append(out, bt)
			continue
		}
		for j := 0; j < itemsPerBatch; j++ {
			maxItem++
			kw := []string{popular[r.Intn(len(popular))], popular[r.Intn(len(popular))]}
			if kw[0] == kw[1] {
				kw = kw[:1]
			}
			bt.items = append(bt.items, actionlog.Item{ID: maxItem, Keywords: kw})
			seen := map[int]bool{}
			for len(seen) < actorsPerItem {
				u := r.Intn(nodes)
				if seen[u] {
					continue
				}
				seen[u] = true
				maxTime++
				bt.acts = append(bt.acts, actionlog.Action{User: graph.NodeID(u), Item: maxItem, Time: maxTime})
			}
		}
		out = append(out, bt)
	}
	return out
}

// fsType names the filesystem holding path, so a run on disk can be
// told from one on tmpfs.
func fsType(path string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(path, &s); err != nil {
		return "unknown"
	}
	switch uint64(s.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-0x%x", uint64(s.Type))
}
