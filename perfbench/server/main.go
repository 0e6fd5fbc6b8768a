// Command server is the program's process under benchmark. It serves a
// segment store the way `assessd -store-dir` does — persist.OpenCubeDir,
// persist.ReconcileSchemas, the core.Session setters that assessd's
// flags call, and the internal/server handler — configured for one
// workload, and adds the routes the benchmark needs and the HTTP API
// lacks:
//
//	POST /bench/append   {"rows": [[date, customer, supplier, part, quantity, revenue, supplycost], ...]}
//	                     appends LINEORDER rows through FactTable.Append
//	POST /bench/compact  folds LINEORDER's WAL into segments (synchronous Compact)
//	GET  /bench/trace    (-trace only) replays the served statements layer by
//	                     layer and returns the per-layer metrics
//
// It listens only once set-up (store open, view materialization, shard
// split) is done and then prints "listening <addr>" on standard output,
// so the first answer to GET /healthz marks readiness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/server"
	"github.com/assess-olap/assess/internal/storage"
)

// Cube directory names written by `ssbgen -out-dir`.
const (
	factName   = "LINEORDER"
	budgetName = "LINEORDER_BUDGET"
)

// batchWindow is assessd's documented shared-scan window.
const batchWindow = 500 * time.Microsecond

func main() {
	var (
		storeDir    = flag.String("store", "", "directory holding the LINEORDER and LINEORDER_BUDGET segment stores")
		workload    = flag.String("workload", "", "explore, dashboard, refresh or sharded")
		addr        = flag.String("addr", "127.0.0.1:0", "listen address")
		autoCompact = flag.Int("auto-compact-rows", 0, "LINEORDER WAL rows that trigger a background fold (0 = store default)")
		traced      = flag.Bool("trace", false, "record layer spans and serve GET /bench/trace")
		spansOut    = flag.String("spans", "", "with -trace, write the recorded spans to this file")
	)
	flag.Parse()
	if *storeDir == "" {
		log.Fatal("server: -store is required")
	}
	var rec *recorder
	if *traced {
		rec = newRecorder()
	}
	app, err := setup(*storeDir, *workload, *autoCompact, rec)
	if err != nil {
		log.Fatal(err)
	}
	defer app.close()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /bench/append", app.appendRows)
	mux.HandleFunc("POST /bench/compact", app.compact)
	var api http.Handler = server.New(app.session).Handler()
	if rec != nil {
		tr := &tracer{app: app, rec: rec, spansOut: *spansOut}
		tr.base = tr.snapshot()
		mux.HandleFunc("GET /bench/trace", tr.report)
		api = tr.wrap(api)
	}
	mux.Handle("/", api)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shut, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shut) // the serve loop below reports the outcome
	}()
	fmt.Printf("listening %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// app is the served session and the handles the benchmark routes need.
type app struct {
	session *core.Session
	fact    *storage.FactTable
	store   *colstore.Store // LINEORDER's segment store
	closers []func() error
	cluster *dist.LocalCluster // sharded workload only
	rec     *recorder          // nil unless -trace
}

func (a *app) close() {
	for _, c := range a.closers {
		_ = c() // the process is exiting; nothing is left to flush
	}
}

// setup opens both cubes and configures the session for the workload,
// timing each set-up step as a span when rec is set.
func setup(dir, workload string, autoCompact int, rec *recorder) (*app, error) {
	a := &app{session: core.NewSession(), rec: rec}
	sp := rec.start("colstore.open", 0, "setup")
	var facts []*storage.FactTable
	for _, name := range []string{factName, budgetName} {
		opts := colstore.Options{}
		if name == factName {
			opts.AutoCompactRows = autoCompact
		}
		f, st, err := persist.OpenCubeDir(filepath.Join(dir, name), opts)
		if err != nil {
			return nil, fmt.Errorf("server: open %s: %w", name, err)
		}
		a.closers = append(a.closers, st.Close)
		if name == factName {
			a.fact, a.store = f, st
		}
		facts = append(facts, f)
	}
	sp.end()
	persist.ReconcileSchemas(facts[0].Schema, facts[1].Schema)
	for _, f := range facts {
		if err := a.session.RegisterCube(f.Schema.Name, f); err != nil {
			return nil, err
		}
	}

	// Cache on at assessd's default budget for every workload.
	a.session.EnableCache(64 << 20)
	switch workload {
	case "explore", "refresh":
		// The paper's set-up: views on the intentions' group-by sets,
		// scan parallelism = nproc.
		a.session.Engine.SetParallelism(0)
		sp := rec.start("engine.materialize", 0, "setup")
		for _, v := range []struct {
			cube   string
			levels []string
		}{
			{factName, []string{"customer", "year"}},
			{factName, []string{"month", "supplier"}},
			{budgetName, []string{"customer", "year"}},
		} {
			if err := a.session.Materialize(v.cube, v.levels...); err != nil {
				return nil, err
			}
		}
		sp.end()
	case "dashboard":
		a.session.EnableSharedScans(batchWindow)
		if rec != nil {
			rec.wrapBatcher(a.session.Engine)
		}
	case "sharded":
		if err := a.shard(2, rec); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("server: unknown workload %q", workload)
	}
	return a, nil
}

// shard wires the `assessd -shards n` path: an in-process cluster of n
// workers behind a scatter-gather coordinator.
func (a *app) shard(n int, rec *recorder) error {
	eng := a.session.Engine
	coord := dist.NewCoordinator(eng, dist.Config{Policy: dist.PolicyFail})
	a.cluster = dist.NewLocalCluster(n)
	sp := rec.start("dist.split", 0, "setup")
	for _, name := range eng.Facts() {
		f, _ := eng.Fact(name)
		level := dist.AutoShardLevel(f.Schema)
		if err := a.cluster.AddFact(name, f, level); err != nil {
			return fmt.Errorf("server: sharding %s: %w", name, err)
		}
		if err := coord.AddTable(name, level, a.cluster.Clients(), true); err != nil {
			return err
		}
	}
	sp.end()
	a.session.EnableDistributed(coord)
	return nil
}

// maxAppendBody bounds one append batch's JSON body.
const maxAppendBody = 64 << 20

// appendRows handles POST /bench/append.
func (a *app) appendRows(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Rows [][]float64 `json:"rows"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBody)).Decode(&req); err != nil {
		http.Error(w, "bad append body: "+err.Error(), http.StatusBadRequest)
		return
	}
	nh, nm := len(a.fact.Schema.Hiers), len(a.fact.Schema.Measures)
	keys := make([]int32, nh)
	sp := a.rec.start("colstore.append", 0, r.Header.Get("X-Request-Id"))
	for i, row := range req.Rows {
		if len(row) != nh+nm {
			http.Error(w, fmt.Sprintf("row %d has %d values, want %d", i, len(row), nh+nm), http.StatusBadRequest)
			return
		}
		for h := range keys {
			keys[h] = int32(row[h])
		}
		if err := a.fact.Append(keys, row[nh:]); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
	}
	sp.endRows(len(req.Rows))
	writeJSON(w, map[string]int{"appended": len(req.Rows), "rows": a.fact.Rows()})
}

// compact handles POST /bench/compact.
func (a *app) compact(w http.ResponseWriter, r *http.Request) {
	sp := a.rec.start("colstore.compact", 0, "compact")
	err := a.store.Compact()
	sp.end()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int{"rows": a.fact.Rows()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client left
}
