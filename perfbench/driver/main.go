// Command driver runs one benchmark run: it writes a seeded SSB segment
// store with the program's bulk loader (ssbgen -out-dir), computes
// reference answers by replaying the same seeded generator stream,
// starts the program's process on the store, drives it over loopback
// HTTP in a closed loop through a fixed seeded sequence of operations,
// checks every answer, and prints one JSON line of metrics.
//
// Usage (from the repository root, after perfbench/run.sh has built the
// binaries into .bench_build/bin):
//
//	driver --workload explore|dashboard|refresh|sharded --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// program runs with layer spans on and the per-layer metrics are
// printed instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/assess-olap/assess/internal/ssb"
)

// scale is the SSB scale factor: 3·10⁶ LINEORDER rows.
const scale = 0.5

// refsPerClass is how many statements of each class get a full
// reference check; every answer gets the property checks.
const refsPerClass = 3

func main() {
	var (
		name    = flag.String("workload", "", "explore, dashboard, refresh or sharded")
		seed    = flag.Int64("seed", 1, "seed for the data and the operation sequence")
		seconds = flag.Int("seconds", 25, "nominal length of the measured sequence")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		build   = flag.String("build", ".bench_build", "directory for binaries, stores and traces")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("driver: ")
	w, ok := workloads[*name]
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		log.Fatal("--seconds must be at least 1")
	}
	bin := filepath.Join(*build, "bin")
	runDir := filepath.Join(*build, "runs", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(runDir)
	store := filepath.Join(runDir, "store")

	// Inputs, all outside the timed window: the store, the sequence and
	// the references.
	load := exec.Command(filepath.Join(bin, "ssbgen"), "-sf", fmt.Sprint(scale),
		"-seed", strconv.FormatInt(*seed, 10), "-out-dir", store)
	load.Stderr = os.Stderr
	load.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := load.Run(); err != nil {
		fatal(runDir, "ssbgen: %v", err)
	}
	stream := ssb.NewGenerator(scale, *seed)
	g := &gen{
		rng:  rand.New(rand.NewSource(*seed)),
		s:    stream.Schema,
		roll: newRollups(stream.Schema),
		seen: map[string]bool{},
	}
	ops := w.build(g, w.rounds(*seconds))
	g.sample(ops, refsPerClass)
	refs := distinctRefs(ops)
	var tally [2]float64 // quantity and revenue of every LINEORDER row written
	for r := 0; r < stream.Rows(); r++ {
		keys, meas, budget := stream.Next()
		tally[0] += meas[0]
		tally[1] += meas[1]
		for _, rf := range refs {
			for _, a := range rf.accs {
				a.add(keys, meas, budget)
			}
		}
	}
	baseRows := stream.Rows()

	srv, err := startServer(bin, store, *name, w, *trace == 1, filepath.Join(*build, "traces"), *seed)
	if err != nil {
		fatal(runDir, "%v", err)
	}
	defer srv.stop()
	// An interrupted run stops the program's process and leaves no store
	// behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		srv.stop()
		fatal(runDir, "interrupted by %v", sig)
	}()

	res := run(srv, w, ops, refs, &tally)
	if res.fatal != nil {
		fatal(runDir, "%v", res.fatal)
	}

	// After the sequence: a synchronous compaction, then the store's
	// footprint and the process's peak memory.
	if err := srv.post("/bench/compact", []byte("{}"), nil); err != nil {
		fatal(runDir, "compact: %v", err)
	}
	rows := baseRows + res.appended
	diskBytes, err := storeBytes(filepath.Join(store, "LINEORDER"))
	if err != nil {
		fatal(runDir, "%v", err)
	}
	hwm, err := peakRSS(srv.cmd.Process.Pid)
	if err != nil {
		fatal(runDir, "%v", err)
	}

	e2e := map[string]metric{
		"setup_s":             {srv.setup.Seconds(), "s"},
		"throughput_ops":      {float64(res.completed) / res.wall.Seconds(), "ops/s"},
		"p50_ms":              {quantile(res.lat, 0.50), "ms"},
		"p95_ms":              {quantile(res.lat, 0.95), "ms"},
		"cpu_ms_per_op":       {res.cpu.Seconds() * 1000 / float64(res.completed), "ms/op"},
		"peak_rss_mb":         {hwm, "MiB"},
		"store_bytes_per_row": {float64(diskBytes) / float64(rows), "B/row"},
	}
	report(os.Stderr, *name, res, e2e)
	metrics := e2e
	if *trace == 1 {
		if metrics, err = srv.layers(); err != nil {
			fatal(runDir, "trace: %v", err)
		}
	}
	if err := srv.stop(); err != nil {
		fatal(runDir, "stop: %v", err)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(runDir, "%v", err)
	}
	fmt.Println(string(out))
}

// fatal removes the run directory (a deferred call would not run) and
// exits without printing a result.
func fatal(runDir, format string, args ...any) {
	os.RemoveAll(runDir)
	log.Fatalf(format, args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// distinctRefs lists each reference once; refresh re-issues pool
// statements that share one.
func distinctRefs(ops []op) []*ref {
	seen := map[*ref]bool{}
	var out []*ref
	for _, o := range ops {
		if o.ref != nil && !seen[o.ref] {
			seen[o.ref] = true
			out = append(out, o.ref)
		}
	}
	return out
}

// server is the program's process.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration
	http  *http.Client
	done  chan error

	stopOnce sync.Once
	stopErr  error
}

// startServer launches the program on the store and times set-up: from
// launch until the first answer to GET /healthz.
func startServer(bin, store, name string, w workload, traced bool, traceDir string, seed int64) (*server, error) {
	args := []string{"-store", store, "-workload", name}
	if w.autoCompactRows > 0 {
		args = append(args, "-auto-compact-rows", strconv.Itoa(w.autoCompactRows))
	}
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-trace", "-spans", filepath.Join(traceDir, fmt.Sprintf("%s-%d.json", name, seed)))
	}
	cmd := exec.Command(filepath.Join(bin, "server"), args...)
	cmd.Stderr = os.Stderr
	// The program's process must not outlive the driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1), http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   120 * time.Second,
	}}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
		s.done <- cmd.Wait()
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("server did not start (read %q: %v)", line, err)
	}
	s.base = "http://" + addr
	for {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("server not ready after 60 s")
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

// stop ends the process with SIGTERM and waits for it; later calls
// return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
		select {
		case s.stopErr = <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			s.stopErr = <-s.done
		}
	})
	return s.stopErr
}

// post sends a JSON body and decodes the JSON answer into out (nil
// discards it).
func (s *server) post(path string, body []byte, out any) error {
	resp, err := s.http.Post(s.base+path, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, b)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// layers fetches the per-layer metrics of a traced run.
func (s *server) layers() (map[string]metric, error) {
	resp, err := s.http.Get(s.base + "/bench/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("%s: %s", resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(body.Metrics))
	for name, v := range body.Metrics {
		out[name] = metric{v, layerUnits[name]}
	}
	return out, nil
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = func() map[string]string {
	u := map[string]string{}
	for _, name := range []string{
		"server.handler_ms", "server.encode_ms", "core.exec_ms", "exec.get_ms", "exec.transform_ms",
		"exec.join_ms", "exec.compare_ms", "exec.label_ms", "labeling.apply_ms", "engine.materialize_ms",
		"engine.scan_ms", "sched.batch_ms", "colstore.open_ms", "colstore.scan_ms", "colstore.compact_ms",
		"dist.split_ms", "dist.shard_scan_ms", "dist.decode_ms", "dist.merge_ms",
	} {
		u[name] = "ms"
	}
	for _, name := range []string{"parser.parse_us", "semantic.bind_us", "plan.plan_us", "colstore.append_us_per_row"} {
		u[name] = "us"
	}
	u["server.response_kb"], u["dist.response_kb"] = "KiB", "KiB"
	u["colstore.decode_mb"] = "MiB"
	u["qcache.hit_ratio"], u["colstore.pruned_ratio"] = "ratio", "ratio"
	u["engine.queries_per_shared_scan"], u["sched.batch_size"] = "queries", "queries"
	u["cube.cells_out"] = "cells"
	for _, name := range []string{
		"qcache.evictions", "engine.view_exact", "engine.view_rollup", "engine.view_miss", "engine.view_rebuilt",
		"engine.rows_scanned", "engine.kernel_dense", "engine.kernel_hash", "colstore.lazy_skipped",
		"colstore.lazy_gathered", "colstore.compactions",
	} {
		u[name] = "count"
	}
	return u
}()

// storeBytes sums a store's segment and WAL files.
func storeBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") || strings.HasPrefix(e.Name(), "wal") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}

// peakRSS reads VmHWM of a process in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// cpuTime reads user plus system CPU time of a process.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(u+k) * time.Second / clockTicks, nil
}
