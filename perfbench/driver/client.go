package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/assess-olap/assess/perfbench/check"
)

// runResult is what the measured sequence produced.
type runResult struct {
	attempted, failed, completed int
	appended                     int
	correct                      bool
	wall, cpu                    time.Duration
	lat                          []time.Duration // statements only
	byClass                      map[string][]time.Duration
	fatal                        error
}

// sample is one finished operation.
type sample struct {
	class string
	lat   time.Duration
	stmt  bool
}

// run drives the server through ops with w.clients closed-loop clients;
// client c takes operations c, c+clients, ... in order. Refresh has one
// client, so its appends and statements keep their sequence order.
func run(s *server, w workload, ops []op, refs []*ref, tally *[2]float64) *runResult {
	res := &runResult{correct: true, byClass: map[string][]time.Duration{}}
	pid := s.cmd.Process.Pid
	cpu0, err := cpuTime(pid)
	if err != nil {
		res.fatal = err
		return res
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for i := c; i < len(ops); i += w.clients {
				smp, failed, wrong := s.do(&ops[i], i, refs, tally)
				mu.Lock()
				res.attempted++
				switch {
				case failed:
					res.failed++
				default:
					res.completed++
					if wrong {
						res.correct = false
					}
					if ops[i].kind == opAppend {
						res.appended += len(ops[i].rows)
					}
				}
				mu.Unlock()
				if !failed {
					mine = append(mine, smp)
				}
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	cpu1, err := cpuTime(pid)
	if err != nil {
		res.fatal = err
		return res
	}
	res.cpu = cpu1 - cpu0
	for _, smp := range samples {
		if smp.stmt {
			res.lat = append(res.lat, smp.lat)
		}
		res.byClass[smp.class] = append(res.byClass[smp.class], smp.lat)
	}
	return res
}

// do performs one operation and checks its answer. Only the request is
// timed: from send to the last response byte.
func (s *server) do(o *op, i int, refs []*ref, tally *[2]float64) (smp sample, failed, wrong bool) {
	path, body := "/assess", any(map[string]string{"statement": o.stmt})
	switch o.kind {
	case opGet:
		path = "/query"
	case opAppend:
		path, body = "/bench/append", map[string]any{"rows": o.rows}
	}
	b, err := json.Marshal(body)
	if err != nil {
		log.Printf("op %d: %v", i, err)
		return smp, true, false
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(b))
	if err != nil {
		log.Printf("op %d: %v", i, err)
		return smp, true, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", fmt.Sprintf("op-%d", i))
	t0 := time.Now()
	resp, err := s.http.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	smp = sample{class: o.class, lat: time.Since(t0), stmt: o.kind != opAppend}
	if err != nil || resp.StatusCode != http.StatusOK {
		if err == nil {
			err = fmt.Errorf("%s: %.200s", resp.Status, raw)
		}
		log.Printf("op %d (%s) failed: %v", i, o.class, err)
		return smp, true, false
	}
	if err := verify(o, raw, tally); err != nil {
		log.Printf("op %d (%s) wrong: %v\n  statement: %s", i, o.class, err, o.stmt)
		return smp, false, true
	}
	if o.kind == opAppend {
		// The program acknowledged the batch: fold it into every
		// reference and the running tally.
		for _, row := range o.rows {
			keys := []int32{int32(row[0]), int32(row[1]), int32(row[2]), int32(row[3])}
			for _, rf := range refs {
				for _, a := range rf.accs {
					a.add(keys, row[4:], 0)
				}
			}
			tally[0] += row[4]
			tally[1] += row[5]
		}
	}
	return smp, false, false
}

// verify runs the property checks on every answer and the reference
// checks where the operation carries a reference.
func verify(o *op, raw []byte, tally *[2]float64) error {
	switch o.kind {
	case opAppend:
		var ack struct {
			Appended int `json:"appended"`
		}
		if err := json.Unmarshal(raw, &ack); err != nil {
			return err
		}
		if ack.Appended != len(o.rows) {
			return fmt.Errorf("appended %d of %d rows", ack.Appended, len(o.rows))
		}
	case opGet:
		var r check.GetResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if err := r.Properties(); err != nil {
			return err
		}
		if o.total {
			if err := r.Total("quantity", tally[0]); err != nil {
				return err
			}
			if err := r.Total("revenue", tally[1]); err != nil {
				return err
			}
		}
		if o.ref != nil {
			return r.Reference(o.ref.expect().(map[string][]float64))
		}
	case opAssess:
		r, err := check.DecodeAssess(raw)
		if err != nil {
			return err
		}
		if err := o.assess.Properties(r); err != nil {
			return err
		}
		if o.total {
			if err := r.MeasureTotal(tally[0]); err != nil {
				return err
			}
		}
		if o.ref != nil {
			return o.assess.Reference(r, o.ref.expect().(check.Expected))
		}
	}
	return nil
}

// quantile returns the q-quantile of the latencies in ms (nearest rank).
func quantile(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// report writes the run's latency split by class and its metrics to w
// (standard error), for the README's tables.
func report(w io.Writer, name string, res *runResult, e2e map[string]metric) {
	fmt.Fprintf(w, "%s: %d ops (%d failed) in %.2fs, %d statements\n",
		name, res.attempted, res.failed, res.wall.Seconds(), len(res.lat))
	classes := make([]string, 0, len(res.byClass))
	for c := range res.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := res.byClass[c]
		fmt.Fprintf(w, "  %-13s n=%-4d p50=%8.2fms p95=%8.2fms\n", c, len(l), quantile(l, 0.5), quantile(l, 0.95))
	}
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %.4f %s\n", n, e2e[n].Value, e2e[n].Unit)
	}
}
