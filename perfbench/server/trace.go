package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sched"
	"github.com/assess-olap/assess/internal/storage"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused it (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Start  int64  `json:"startNs"` // since the recorder started
	End    int64  `json:"endNs"`
	Self   int64  `json:"selfNs"` // End-Start minus what child spans cover
	Units  int64  `json:"units,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span

	batcher *sched.Batcher // dashboard: the batcher behind the timed shim
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is a started span; end records it.
type active struct {
	rec *recorder
	s   span
}

func (r *recorder) start(name string, parent int64, req string) *active {
	if r == nil {
		return nil
	}
	return &active{rec: r, s: span{
		Name: name, ID: r.nextID.Add(1), Parent: parent, Req: req,
		Start: int64(time.Since(r.t0)),
	}}
}

// id is the span's ID for its children (0 for a nil span).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) end() { a.endRows(0) }

// endRows records the span with a unit count (rows appended, bytes
// written) attached.
func (a *active) endRows(units int) {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.rec.t0))
	a.s.Units = int64(units)
	a.rec.add(a.s)
}

// child records a span of known duration that starts at off within its
// parent; used for the execution phases exec.Result.Breakdown reports.
func (a *active) child(name string, off, d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	start := a.s.Start + int64(off)
	a.rec.add(span{Name: name, ID: a.rec.nextID.Add(1), Parent: a.s.ID, Req: a.s.Req,
		Start: start, End: start + int64(d)})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timedBatcher wraps the shared-scan batcher so each query's time in it
// (window wait plus its shared pass) becomes a sched.batch span.
type timedBatcher struct {
	rec   *recorder
	inner engine.ScanBatcher
}

func (t timedBatcher) Scan(ctx context.Context, q engine.Query, ops []mdm.AggOp, names []string) (*cube.Cube, error) {
	sp := t.rec.start("sched.batch", 0, "")
	defer sp.end()
	return t.inner.Scan(ctx, q, ops, names)
}

// wrapBatcher replaces the session's batcher with an identically
// configured one behind the timing shim.
func (r *recorder) wrapBatcher(eng *engine.Engine) {
	r.batcher = sched.NewBatcher(eng, batchWindow)
	eng.SetScanBatcher(timedBatcher{rec: r, inner: r.batcher})
}

// tracer wraps the API handler in -trace mode: it times every statement
// the program serves, remembers it, and on GET /bench/trace replays the
// statements through each layer's public functions in turn.
type tracer struct {
	app      *app
	rec      *recorder
	spansOut string
	base     snapshot

	mu    sync.Mutex
	stmts []served
	seq   atomic.Int64
}

type served struct{ req, stmt string }

// countingWriter counts the response bytes the handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || (r.URL.Path != "/assess" && r.URL.Path != "/query") {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Statement string `json:"statement"`
		}
		_ = json.Unmarshal(body, &req) // a bad body is the handler's to reject
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = "r" + strconv.FormatInt(t.seq.Add(1), 10)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		sp := t.rec.start("server.handler", 0, id)
		h.ServeHTTP(cw, r)
		sp.endRows(cw.n)
		t.mu.Lock()
		t.stmts = append(t.stmts, served{req: id, stmt: req.Statement})
		t.mu.Unlock()
	})
}

// snapshot is the program's counters at one instant: every assess_*
// series from the default registry (histograms as sum and count), plus
// the session-scoped cache and batcher counters.
type snapshot struct {
	series  map[string]float64
	cache   qcache.Stats
	batches sched.BatcherStats
}

func (t *tracer) snapshot() snapshot {
	s := snapshot{series: map[string]float64{}}
	for _, m := range obsv.Default.Snapshots() {
		key := m.Name + m.Labels
		if m.Kind == "histogram" {
			s.series[key+":sum"] = m.Value * float64(m.Count)
			s.series[key+":count"] = float64(m.Count)
			continue
		}
		s.series[key] = m.Value
	}
	s.cache, _ = t.app.session.CacheStats()
	if t.rec.batcher != nil {
		s.batches = t.rec.batcher.Stats()
	}
	return s
}

// maxReplay bounds the statements the layer-by-layer replay re-runs.
const maxReplay = 200

// report handles GET /bench/trace: counter deltas since set-up ended,
// then the layer-by-layer replay, then the per-layer metrics.
func (t *tracer) report(w http.ResponseWriter, r *http.Request) {
	now := t.snapshot()
	t.mu.Lock()
	stmts := append([]served(nil), t.stmts...)
	t.mu.Unlock()
	// Replay every step-th statement, at most maxReplay of them, so a
	// traced run of any workload stays well inside its time limit.
	step := max(1, (len(stmts)+maxReplay-1)/maxReplay)
	for i := 0; i < len(stmts); i += step {
		if err := t.replay(r.Context(), stmts[i]); err != nil {
			http.Error(w, fmt.Sprintf("replay %s: %v", stmts[i].req, err), http.StatusInternalServerError)
			return
		}
	}
	t.rec.mu.Lock()
	spans := append([]span(nil), t.rec.spans...)
	t.rec.mu.Unlock()
	selfTimes(spans)
	if t.spansOut != "" {
		if err := writeSpans(t.spansOut, spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	writeJSON(w, map[string]any{"metrics": layerMetrics(spans, t.base, now)})
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay runs one served statement through each layer's public entry
// point in turn, outside the served path: parser.Parse, the semantic
// binder, plan.Build, exec.RunContext (whose Breakdown gives the
// Figure-4 phases), the labeler, and for get statements
// engine.ScanWithOps, a drain of FactTable.ScanSource and — when the
// fact is sharded — each shard's scan with the ADP1 encode and decode.
func (t *tracer) replay(ctx context.Context, s served) error {
	sess := t.app.session
	root := t.rec.start("replay", 0, s.req)
	defer root.end()
	sp := t.rec.start("parser.parse", root.id(), s.req)
	st, err := parser.Parse(s.stmt)
	sp.end()
	if err != nil {
		return err
	}
	if st.IsGet() {
		sp = t.rec.start("semantic.bind", root.id(), s.req)
		q, err := sess.Binder.BindGet(st)
		sp.end()
		if err != nil {
			return err
		}
		return t.replayScan(ctx, root, s.req, q)
	}
	sp = t.rec.start("semantic.bind", root.id(), s.req)
	b, err := sess.Binder.Bind(st)
	sp.end()
	if err != nil {
		return err
	}
	sp = t.rec.start("plan.plan", root.id(), s.req)
	p, err := plan.Build(b, core.BestStrategy(b.Bench.Kind))
	sp.end()
	if err != nil {
		return err
	}
	sp = t.rec.start("exec.run", root.id(), s.req)
	res, err := exec.RunContext(ctx, sess.Engine, p)
	sp.endRows(cells(res))
	if err != nil {
		return err
	}
	var off time.Duration
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"exec.get", res.Breakdown[plan.PhaseGetC] + res.Breakdown[plan.PhaseGetB] + res.Breakdown[plan.PhaseGetCB]},
		{"exec.transform", res.Breakdown[plan.PhaseTransform]},
		{"exec.join", res.Breakdown[plan.PhaseJoin]},
		{"exec.compare", res.Breakdown[plan.PhaseCompare]},
		{"exec.label", res.Breakdown[plan.PhaseLabel]},
	} {
		sp.child(ph.name, off, ph.d)
		off += ph.d
	}
	j, ok := res.Cube.MeasureIndex(p.ComparisonCol)
	if !ok {
		return fmt.Errorf("result lacks comparison column %q", p.ComparisonCol)
	}
	col := append([]float64(nil), res.Cube.Column(j)...)
	sp = t.rec.start("labeling.apply", root.id(), s.req)
	b.Labeler.Apply(col)
	sp.end()
	return nil
}

func cells(res *exec.Result) int {
	if res == nil {
		return 0
	}
	return res.Cube.Len()
}

// replayScan times a get statement's scan at the engine, the segment
// store and — for a sharded fact — each shard worker.
func (t *tracer) replayScan(ctx context.Context, root *active, req string, q engine.Query) error {
	eng := t.app.session.Engine
	f, ok := eng.Fact(q.Fact)
	if !ok {
		return fmt.Errorf("unknown cube %s", q.Fact)
	}
	ops := make([]mdm.AggOp, len(q.Measures))
	names := make([]string, len(q.Measures))
	for i, m := range q.Measures {
		ops[i], names[i] = f.Schema.Measures[m].Op, f.Schema.Measures[m].Name
	}
	sp := t.rec.start("engine.scan", root.id(), req)
	c, err := eng.ScanWithOps(q, ops, names)
	if err != nil {
		sp.end()
		return err
	}
	sp.endRows(c.Len())

	sp = t.rec.start("colstore.scan", root.id(), req)
	rows, err := drain(f, q)
	sp.endRows(rows)
	if err != nil {
		return err
	}

	if t.app.cluster == nil {
		return nil
	}
	sreq := &dist.ScanRequest{Fact: q.Fact, Group: q.Group, Measures: q.Measures, Names: names}
	for _, p := range q.Preds {
		sreq.Preds = append(sreq.Preds, dist.WirePred{Hier: p.Level.Hier, Level: p.Level.Level, Members: p.Members})
	}
	for _, op := range ops {
		sreq.Ops = append(sreq.Ops, int(op))
	}
	for _, w := range t.app.cluster.Workers {
		sp := t.rec.start("dist.shard_scan", root.id(), req)
		gen, part, err := w.Scan(ctx, sreq)
		sp.end()
		if err != nil {
			return err
		}
		sp = t.rec.start("dist.encode", root.id(), req)
		buf := dist.EncodeResponse(gen, part)
		sp.endRows(len(buf))
		sp = t.rec.start("dist.decode", root.id(), req)
		_, _, err = dist.DecodeResponse(f.Schema, q.Group, names, buf)
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// drain reads every block of the fact's scan source with the column set
// and predicates the engine would push down, returning the rows that
// survive row-level filtering (all rows of blocks without a bitmap).
func drain(f *storage.FactTable, q engine.Query) (int, error) {
	nh, nm := len(f.Schema.Hiers), len(f.Schema.Measures)
	need := storage.ColSet{Keys: make([]bool, nh), Meas: make([]bool, nm), PredOnly: make([]bool, nh)}
	for _, g := range q.Group {
		need.Keys[g.Hier] = true
	}
	var preds []storage.LevelPred
	for _, p := range q.Preds {
		if !need.Keys[p.Level.Hier] {
			need.Keys[p.Level.Hier], need.PredOnly[p.Level.Hier] = true, true
		}
		preds = append(preds, storage.LevelPred{Hier: p.Level.Hier, Level: p.Level.Level, Members: p.Members})
	}
	for _, m := range q.Measures {
		need.Meas[m] = true
	}
	src := f.ScanSource(need, preds)
	defer src.Close()
	var sc storage.BlockScratch
	rows := 0
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			return rows, err
		}
		switch {
		case !ok:
		case cols.Sel != nil:
			rows += cols.SelCount
		default:
			rows += cols.Rows
		}
	}
	return rows, nil
}

// selfTimes fills each span's Self: its duration minus the union of the
// intervals its children cover.
func selfTimes(spans []span) {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, v := range iv {
			lo, hi := max(v[0], s.Start), min(v[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		s.Self = s.End - s.Start - covered
	}
}

// layerMetrics turns spans and counter deltas into the per-layer
// metrics. Times are means per call of the named span; counts are
// deltas of the program's counters between set-up end and the report.
func layerMetrics(spans []span, base, now snapshot) map[string]float64 {
	type agg struct {
		n     int
		total time.Duration
		units int64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.units += s.Units
	}
	mean := func(name string, unit time.Duration) float64 {
		a := by[name]
		if a == nil || a.n == 0 {
			return 0
		}
		return float64(a.total) / float64(a.n) / float64(unit)
	}
	sum := func(name string, unit time.Duration) float64 {
		if a := by[name]; a != nil {
			return float64(a.total) / float64(unit)
		}
		return 0
	}
	perCall := func(name string) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return float64(a.units) / float64(a.n)
		}
		return 0
	}
	d := func(key string) float64 { return now.series[key] - base.series[key] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m := map[string]float64{}
	m["server.handler_ms"] = mean("server.handler", time.Millisecond)
	m["server.response_kb"] = perCall("server.handler") / 1024
	coreMs := 1000 * ratio(d("assess_query_seconds:sum"), d("assess_query_seconds:count"))
	m["core.exec_ms"] = coreMs
	m["server.encode_ms"] = math.Max(0, m["server.handler_ms"]-coreMs)
	m["parser.parse_us"] = mean("parser.parse", time.Microsecond)
	m["semantic.bind_us"] = mean("semantic.bind", time.Microsecond)
	m["plan.plan_us"] = mean("plan.plan", time.Microsecond)

	hits := float64(now.cache.Hits - base.cache.Hits)
	misses := float64(now.cache.Misses - base.cache.Misses)
	m["qcache.hit_ratio"] = ratio(hits, hits+misses)
	m["qcache.evictions"] = float64(now.cache.Evictions - base.cache.Evictions)

	runs := float64(0)
	if a := by["exec.run"]; a != nil {
		runs = float64(a.n)
	}
	phase := func(name string) float64 { return ratio(sum(name, time.Millisecond), runs) }
	m["exec.get_ms"] = phase("exec.get")
	m["exec.transform_ms"] = phase("exec.transform")
	m["exec.join_ms"] = phase("exec.join")
	m["exec.compare_ms"] = phase("exec.compare")
	m["exec.label_ms"] = phase("exec.label")
	m["labeling.apply_ms"] = mean("labeling.apply", time.Millisecond)
	var results, cells float64 // answers of assessments and of gets
	for _, name := range []string{"exec.run", "engine.scan"} {
		if a := by[name]; a != nil {
			results, cells = results+float64(a.n), cells+float64(a.units)
		}
	}
	m["cube.cells_out"] = ratio(cells, results)

	m["engine.view_exact"] = d(`assess_engine_view_total{mode="exact"}`)
	m["engine.view_rollup"] = d(`assess_engine_view_total{mode="rollup"}`)
	m["engine.view_miss"] = d(`assess_engine_view_total{mode="miss"}`)
	m["engine.view_rebuilt"] = d(`assess_engine_view_stale_total{action="rebuilt"}`)
	m["engine.materialize_ms"] = sum("engine.materialize", time.Millisecond)
	m["engine.scan_ms"] = mean("engine.scan", time.Millisecond)
	m["engine.rows_scanned"] = d("assess_engine_rows_scanned_total")
	m["engine.kernel_dense"] = d(`assess_engine_kernel_total{mode="dense"}`)
	m["engine.kernel_hash"] = d(`assess_engine_kernel_total{mode="hash"}`)
	m["engine.queries_per_shared_scan"] = ratio(d("assess_engine_shared_queries_total"), d("assess_engine_shared_scans_total"))
	m["sched.batch_size"] = ratio(float64(now.batches.Queries-base.batches.Queries), float64(now.batches.Batches-base.batches.Batches))
	m["sched.batch_ms"] = mean("sched.batch", time.Millisecond)

	m["colstore.open_ms"] = sum("colstore.open", time.Millisecond)
	m["colstore.scan_ms"] = mean("colstore.scan", time.Millisecond)
	m["colstore.decode_mb"] = d("assess_store_decode_bytes:sum") / (1 << 20)
	pruned, decoded := d("assess_store_pruned_total"), d("assess_store_segments_decoded_total")
	m["colstore.pruned_ratio"] = ratio(pruned, pruned+decoded)
	m["colstore.lazy_skipped"] = d("assess_store_lazy_skipped_total")
	m["colstore.lazy_gathered"] = d("assess_store_lazy_gather_total")
	appended := float64(0)
	if a := by["colstore.append"]; a != nil {
		appended = float64(a.units)
	}
	m["colstore.append_us_per_row"] = ratio(sum("colstore.append", time.Microsecond), appended)
	m["colstore.compactions"] = d("assess_store_compactions_total")
	m["colstore.compact_ms"] = mean("colstore.compact", time.Millisecond)

	m["dist.split_ms"] = sum("dist.split", time.Millisecond)
	m["dist.shard_scan_ms"] = mean("dist.shard_scan", time.Millisecond)
	m["dist.response_kb"] = perCall("dist.encode") / 1024
	m["dist.decode_ms"] = mean("dist.decode", time.Millisecond)
	m["dist.merge_ms"] = 1000 * ratio(d("assess_dist_merge_seconds:sum"), d("assess_dist_merge_seconds:count"))
	return m
}
