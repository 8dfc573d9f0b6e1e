package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"octopus/internal/obs"
)

// bench is the state of one run: the answers it has seen, the metrics
// it has measured and, in a traced run, the spans it has recorded.
type bench struct {
	opt options
	out io.Writer
	tr  *tracer // nil in the untraced run
	tmp string  // per-run scratch directory under opt.out

	e2e   map[string]float64
	layer map[string]float64
	split string // ingest-live's fold split, kept in the run record

	attempted, failed int
	digest            hash.Hash
	rec               recorder

	// Traced runs only: the server-side spans read back from the
	// program's own trace ring.
	reqUS    []float64 // ServeHTTP span of the workload's primary class
	selfUS   []float64 // that span minus the program's engine span
	lookupUS []float64 // the program's cache span

	steal0 cpuTicks
}

func newBench(opt options, out io.Writer) (*bench, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opt.out, "tmp-"+opt.workload+"-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		opt:    opt,
		out:    out,
		tmp:    tmp,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		digest: sha256.New(),
		steal0: readTicks(),
	}
	if opt.trace {
		b.tr = newTracer()
		for _, d := range perLayer {
			b.layer[d.name] = 0
		}
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.tmp) }

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.out, format+"\n", args...) }

// printFacts prints the host and run facts every result needs beside
// it: without them a drifted run cannot be told from a slow commit.
func (b *bench) printFacts() {
	b.logf("run: workload=%s seed=%d seconds=%d trace=%v authors=%d",
		b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace, b.opt.authors)
	b.logf("host: gomaxprocs=%d numcpu=%d cpu=%q go=%s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// ---- requests and answers ----

// query is one read, built before timing starts.
type query struct {
	cls string // im, suggest, paths, keywords, radar, complete or status
	key string // target without the explain flag; what the digest names
	req *http.Request
}

// cachedClasses are the read endpoints behind the result cache; only
// they take ?explain=1.
var cachedClasses = map[string]bool{
	"im": true, "suggest": true, "paths": true, "keywords": true, "radar": true, "complete": true,
}

func (b *bench) newQuery(cls, target string) *query {
	u := target
	if b.opt.trace && cachedClasses[cls] {
		u += "&explain=1"
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		panic(fmt.Sprintf("perfbench: bad generated target %q: %v", u, err))
	}
	return &query{cls: cls, key: target, req: req}
}

// answer is one timed response.
type answer struct {
	q       *query
	status  int
	raw     []byte    // the body as served
	body    []byte    // the plain body (an explain envelope is unwrapped)
	cost    *obs.Cost // the explain ledger, traced runs only
	cache   string    // X-Octopus-Cache
	traceID string    // X-Octopus-Trace
	missing string    // X-Octopus-Shards-Missing
	dur     time.Duration
}

// recorder is a minimal reusable http.ResponseWriter, so the client
// side of a timed call allocates as little as possible.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }
func (w *recorder) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}
func (w *recorder) reset() {
	w.hdr = make(http.Header, 8)
	w.status = 0
	w.buf.Reset()
}

// serve sends one read to h and times it. Every read the workload
// makes goes through here: it counts attempts and failures and feeds
// the answer digest. parent is the enclosing span (traced runs).
func (b *bench) serve(h http.Handler, q *query, parent int) *answer {
	w := &b.rec
	w.reset()
	sp := b.tr.begin("server.ServeHTTP", parent, q.key)
	t0 := time.Now()
	h.ServeHTTP(w, q.req)
	d := time.Since(t0)
	b.tr.end(sp)
	raw := bytes.Clone(w.buf.Bytes())
	a := &answer{
		q:       q,
		status:  w.status,
		raw:     raw,
		body:    raw,
		cache:   w.hdr.Get("X-Octopus-Cache"),
		traceID: w.hdr.Get("X-Octopus-Trace"),
		missing: w.hdr.Get("X-Octopus-Shards-Missing"),
		dur:     d,
	}
	b.attempted++
	if a.status != http.StatusOK || a.missing != "" {
		b.failed++
	}
	if b.opt.trace && cachedClasses[q.cls] && a.status == http.StatusOK {
		a.body, a.cost = unwrapExplain(a.body)
	}
	fmt.Fprintf(b.digest, "%s %s %d %d\n", q.cls, q.key, a.status, len(a.body))
	b.digest.Write(a.body)
	return a
}

// unwrapExplain splits an explain envelope {"result":…,"cost":…} into
// the plain body (byte-identical to the unexplained answer) and its
// ledger. A body that is not an envelope is returned unchanged.
func unwrapExplain(body []byte) ([]byte, *obs.Cost) {
	var env struct {
		Result json.RawMessage `json:"result"`
		Cost   *obs.Cost       `json:"cost"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Result == nil || env.Cost == nil {
		return body, nil
	}
	return append(append([]byte(nil), env.Result...), '\n'), env.Cost
}

// serverSpans reads the program's own trace for the latest request
// from /api/debug/traces (traced runs only) and records the request
// span, its self time (request minus the program's engine span) and
// the cache lookup span.
func (b *bench) serverSpans(h http.Handler, a *answer) {
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	var w recorder
	w.reset()
	req, _ := http.NewRequest(http.MethodGet, "/api/debug/traces?n=4", nil)
	h.ServeHTTP(&w, req)
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		return
	}
	for _, t := range doc.Traces {
		if t.ID != a.traceID {
			continue
		}
		var engine, cache float64
		for _, s := range t.Spans {
			switch s.Name {
			case "engine":
				engine += s.DurationMicros
			case "cache":
				cache += s.DurationMicros
			}
		}
		b.reqUS = append(b.reqUS, us(a.dur))
		b.selfUS = append(b.selfUS, us(a.dur)-engine)
		b.lookupUS = append(b.lookupUS, cache)
		return
	}
}

// ---- the run record and the end of the run ----

// record is what a run leaves behind for the next run of the same
// workload, seed and size: the answer digest and the fold split must
// repeat exactly, and the traced run prints its overhead against the
// untraced one.
type record struct {
	Digest string             `json:"digest"`
	Split  string             `json:"split,omitempty"`
	E2E    map[string]float64 `json:"e2e"`
}

// recordPath names the run record of this build, workload, seed and
// size. The build is part of the name because another build may answer
// differently on purpose; only runs of one build must agree.
func (b *bench) recordPath(trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(b.opt.out, fmt.Sprintf("record-%s-%s-s%d-n%d-t%d.json",
		buildID(), b.opt.workload, b.opt.seed, b.opt.seconds, t))
}

// buildID is a short hash of the running executable.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func readRecord(path string) (*record, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var r record
	if json.Unmarshal(raw, &r) != nil {
		return nil, false
	}
	return &r, true
}

// checkRepeat fails when an earlier run of the same workload, seed and
// size gave other answers or another fold split.
func checkRepeat(prev, cur *record) error {
	if prev.Digest != cur.Digest {
		return fmt.Errorf("answer digest %s differs from the earlier run's %s", cur.Digest, prev.Digest)
	}
	if prev.Split != cur.Split {
		return fmt.Errorf("fold split %q differs from the earlier run's %q", cur.Split, prev.Split)
	}
	return nil
}

func (b *bench) finish() error {
	steal := readTicks().sub(b.steal0)
	b.logf("steal: %d of %d cpu ticks (%.2f%%) during the run", steal.steal, steal.total, 100*steal.share())
	cur := &record{Digest: hex.EncodeToString(b.digest.Sum(nil)), Split: b.split, E2E: b.e2e}
	b.logf("digest: %s (%d operations, %d failed)", cur.Digest, b.attempted, b.failed)
	for _, trace := range []bool{false, true} {
		if prev, ok := readRecord(b.recordPath(trace)); ok {
			if err := checkRepeat(prev, cur); err != nil {
				return fmt.Errorf("check failed: %w", err)
			}
		}
	}
	for _, d := range endToEnd {
		b.logf("metric %-24s %14.4f %s", d.name, b.e2e[d.name], d.unit)
	}
	if b.opt.trace {
		for _, d := range perLayer {
			b.logf("layer  %-30s %14.4f %s", d.name, b.layer[d.name], d.unit)
		}
		if base, ok := readRecord(b.recordPath(false)); ok {
			for _, d := range endToEnd {
				u, t := base.E2E[d.name], b.e2e[d.name]
				if u != 0 {
					b.logf("overhead %-22s traced %.4f untraced %.4f %s (%+.1f%%)", d.name, t, u, d.unit, 100*(t/u-1))
				}
			}
		} else {
			b.logf("overhead: no untraced run of this workload, seed and size to compare with")
		}
		if err := b.tr.write(filepath.Join(b.opt.out,
			fmt.Sprintf("spans-%s-s%d.json", b.opt.workload, b.opt.seed))); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	return os.WriteFile(b.recordPath(b.opt.trace), raw, 0o644)
}

// ---- host facts ----

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the machine-wide total and steal time from /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) sub(o cpuTicks) cpuTicks { return cpuTicks{t.total - o.total, t.steal - o.steal} }

func (t cpuTicks) share() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.steal) / float64(t.total)
}

// ---- spans ----

// span is one interval the benchmark recorded around a call into a
// layer. Spans of one request share its request id (the target).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. A
// nil tracer records nothing, so the untraced run pays one nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ---- runtime ----

type memDelta struct {
	gc             uint32
	pauseNS, alloc uint64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m := memNow()
	return memDelta{m.NumGC - m0.NumGC, m.PauseTotalNs - m0.PauseTotalNs, m.TotalAlloc - m0.TotalAlloc}
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(memNow().HeapAlloc) / 1e6
}

// setRuntimeLayer records the measured phase's GC and allocation work.
func (b *bench) setRuntimeLayer(d memDelta, reads int) {
	b.layer["runtime.gc_cycles"] = float64(d.gc)
	b.layer["runtime.gc_pause_ms"] = float64(d.pauseNS) / 1e6
	if reads > 0 {
		b.layer["runtime.alloc_mb_per_read"] = float64(d.alloc) / 1e6 / float64(reads)
	}
}
