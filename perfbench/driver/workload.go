package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/perfbench/check"
)

// Operation kinds.
const (
	opAssess = iota // POST /assess
	opGet           // POST /query
	opAppend        // POST /bench/append
)

// op is one operation of a run's fixed sequence.
type op struct {
	kind   int
	class  string // statement class, for the latency split
	stmt   string
	assess check.Assess
	ref    *ref        // set when the answer gets a full reference check
	mkref  func() *ref // builds ref for a statement picked for the sample
	total  bool        // refresh: the answer must sum to the running tally
	rows   [][]float64 // append batch: date, customer, supplier, part, quantity, revenue, supplycost
}

// workload fixes how a run's operations are made and served.
type workload struct {
	clients int
	// rounds gives the number of whole rounds a run replays, so every
	// run has the same make-up.
	rounds func(seconds int) int
	build  func(g *gen, rounds int) []op
	// autoCompactRows sets LINEORDER's background-fold threshold
	// (0 = the store default).
	autoCompactRows int
}

// perSecond returns a rounds function issuing about rate operations per
// second of --seconds, and never fewer than minOps statements.
func perSecond(round int, rate float64, minOps int) func(int) int {
	return func(seconds int) int {
		n := int(math.Ceil(rate * float64(seconds) / float64(round)))
		return max(n, (minOps+round-1)/round)
	}
}

var workloads = map[string]workload{
	// One analyst asks the paper's four intentions. Per round of 40:
	// 30 Past, 4 Sibling, 2 External, 4 Constant, so p50 falls inside
	// Past (the fastest, 75%) and p95 inside Constant (the slowest, 10%).
	"explore": {clients: 1, rounds: perSecond(40, 14, 200), build: buildExplore},
	// Two analysts send SSB-flight gets; every statement is distinct.
	"dashboard": {clients: 2, rounds: perSecond(20, 40, 200), build: buildDashboard},
	// One client re-issues a small pool while LINEORDER rows stream in.
	// Per round of 13: one append batch, the unfiltered total, and 11
	// statements of which 7 hit the cache, so p50 falls inside the hits
	// and p95 inside the totals that pay the view rebuild.
	"refresh": {clients: 1, rounds: perSecond(13, 32, 200), build: buildRefresh, autoCompactRows: refreshCompactRows},
	// The dashboard stream from one client over two shard workers.
	"sharded": {clients: 1, rounds: perSecond(20, 55, 200), build: buildDashboard},
}

// gen draws seeded statement parameters over the generated schema.
type gen struct {
	rng  *rand.Rand
	s    *mdm.Schema
	roll *rollups
	seen map[string]bool
}

func (g *gen) members(level string) []string {
	ref, ok := g.s.FindLevel(level)
	if !ok {
		panic("unknown level " + level)
	}
	return g.s.Dict(ref).SortedNames()
}

func (g *gen) pick(level string) string {
	ms := g.members(level)
	return ms[g.rng.Intn(len(ms))]
}

// cut returns a cut point in [lo, hi) with three decimals.
func (g *gen) cut(lo, hi float64) float64 {
	return math.Round((lo+(hi-lo)*g.rng.Float64())*1000) / 1000
}

// three is a three-interval labeling clause with seeded cut points.
func (g *gen) three(lo, hi [2]float64, labels [3]string) check.Labels {
	a, b := g.cut(lo[0], lo[1]), g.cut(hi[0], hi[1])
	return check.Labels{
		{Lo: math.Inf(-1), Hi: a, HiOpen: true, Label: labels[0]},
		{Lo: a, Hi: b, Label: labels[1]},
		{Lo: b, Hi: math.Inf(1), LoOpen: true, Label: labels[2]},
	}
}

// fresh reports whether stmt has not been issued before in this run.
func (g *gen) fresh(stmt string) bool {
	if g.seen[stmt] {
		return false
	}
	g.seen[stmt] = true
	return true
}

// distinct draws until draw yields a statement not issued before. A
// class whose statement space runs out is a benchmark bug.
func (g *gen) distinct(draw func() (op, bool)) op {
	for i := 0; i < 10000; i++ {
		if o, ok := draw(); ok {
			return o
		}
	}
	panic("perfbench: a statement class ran out of distinct statements")
}

// sample gives perClass seeded statements of each class a full
// reference check.
func (g *gen) sample(ops []op, perClass int) {
	byClass := map[string][]int{}
	var classes []string
	for i, o := range ops {
		if o.mkref == nil {
			continue
		}
		if byClass[o.class] == nil {
			classes = append(classes, o.class)
		}
		byClass[o.class] = append(byClass[o.class], i)
	}
	for _, c := range classes {
		idx := byClass[c]
		g.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx[:min(perClass, len(idx))] {
			ops[i].ref = ops[i].mkref()
		}
	}
}

func quote(ms []string) string {
	q := make([]string, len(ms))
	for i, m := range ms {
		q[i] = "'" + m + "'"
	}
	return strings.Join(q, ", ")
}

// shuffled returns a round's classes in seeded order.
func (g *gen) shuffled(mix map[string]int, order []string) []string {
	var out []string
	for _, c := range order {
		for i := 0; i < mix[c]; i++ {
			out = append(out, c)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func buildExplore(g *gen, rounds int) []op {
	mix := map[string]int{"past": 30, "sibling": 4, "external": 2, "constant": 4}
	order := []string{"past", "sibling", "external", "constant"}
	years := g.members("year")
	months := g.members("month")
	var ops []op
	for r := 0; r < rounds; r++ {
		for _, class := range g.shuffled(mix, order) {
			ops = append(ops, g.distinct(func() (op, bool) { return g.intention(class, years, months) }))
		}
	}
	return ops
}

// intention draws one statement of the paper's four intentions.
func (g *gen) intention(class string, years, months []string) (op, bool) {
	o := op{kind: opAssess, class: class}
	switch class {
	case "constant":
		c := float64(800_000 + 1000*g.rng.Intn(400))
		labels := g.three([2]float64{0.6, 0.9}, [2]float64{1.1, 1.4}, [3]string{"behind", "onTarget", "ahead"})
		o.stmt = fmt.Sprintf("with LINEORDER by customer, year assess revenue against %v using ratio(revenue, benchmark.revenue) labels %s", c, labels)
		o.assess = check.Assess{Using: "ratio", Labels: labels, Constant: c, IsConst: true}
		o.mkref = func() *ref { return constantRef(g.roll, "revenue", c, nil, "customer", "year") }
	case "external":
		nation := g.pick("cnation")
		labels := g.three([2]float64{-0.2, -0.02}, [2]float64{0.02, 0.2}, [3]string{"under", "onBudget", "over"})
		o.stmt = fmt.Sprintf("with LINEORDER for cnation = '%s' by customer, year assess revenue against LINEORDER_BUDGET.expectedRevenue using normDifference(revenue, benchmark.expectedRevenue) labels %s", nation, labels)
		o.assess = check.Assess{Using: "normDifference", Labels: labels}
		o.mkref = func() *ref {
			return externalRef(g.roll, "revenue", []pred{{"cnation", []string{nation}}}, "customer", "year")
		}
	case "sibling":
		i := g.rng.Intn(len(years))
		j := (i + 1 + g.rng.Intn(len(years)-1)) % len(years)
		labels := g.three([2]float64{0.7, 0.95}, [2]float64{1.05, 1.3}, [3]string{"down", "flat", "up"})
		o.stmt = fmt.Sprintf("with LINEORDER for year = '%s' by customer, year assess revenue against year = '%s' using ratio(revenue, benchmark.revenue) labels %s", years[i], years[j], labels)
		o.assess = check.Assess{Using: "ratio", Labels: labels}
		o.mkref = func() *ref { return siblingRef(g.roll, "revenue", "year", years[i], years[j], nil, "customer", "year") }
	case "past":
		k := 3 + g.rng.Intn(6)
		i := k + g.rng.Intn(len(months)-k)
		labels := g.three([2]float64{0.7, 0.95}, [2]float64{1.05, 1.3}, [3]string{"worse", "fine", "better"})
		o.stmt = fmt.Sprintf("with LINEORDER for month = '%s' by month, supplier assess revenue against past %d using ratio(revenue, benchmark.revenue) labels %s", months[i], k, labels)
		o.assess = check.Assess{Using: "ratio", Labels: labels}
		o.mkref = func() *ref {
			return pastRef(g.roll, "revenue", "month", months[i], months[i-k:i], nil, "month", "supplier")
		}
	}
	return o, g.fresh(o.stmt)
}

func buildDashboard(g *gen, rounds int) []op {
	mix := map[string]int{"q1-filter": 5, "q2-brand": 5, "q3-nation": 5, "q4-profit": 5}
	order := []string{"q1-filter", "q2-brand", "q3-nation", "q4-profit"}
	var ops []op
	for r := 0; r < rounds; r++ {
		for _, class := range g.shuffled(mix, order) {
			ops = append(ops, g.distinct(func() (op, bool) { return g.flight(class) }))
		}
	}
	return ops
}

// yearRange draws a run of consecutive years.
func (g *gen) yearRange(min int) []string {
	ys := g.members("year")
	n := min + g.rng.Intn(len(ys)-min+1)
	i := g.rng.Intn(len(ys) - n + 1)
	return ys[i : i+n]
}

// flight draws one get statement in the style of the SSB query flights.
func (g *gen) flight(class string) (op, bool) {
	o := op{kind: opGet, class: class}
	var (
		preds    []pred
		levels   []string
		measures = []string{"revenue"}
	)
	switch class {
	case "q1-filter":
		// Filter-only predicates on part and customer; grouped by year.
		preds = []pred{
			{"year", g.yearRange(1)},
			{"category", []string{g.pick("category")}},
			{"cregion", []string{g.pick("cregion")}},
		}
		levels = []string{"year"}
		measures = []string{"quantity", "revenue"}
	case "q2-brand":
		preds = []pred{
			{"category", []string{g.pick("category")}},
			{"sregion", []string{g.pick("sregion")}},
			{"year", g.yearRange(1)},
		}
		levels = []string{"brand", "year"}
	case "q3-nation":
		preds = []pred{
			{"cregion", []string{g.pick("cregion")}},
			{"sregion", []string{g.pick("sregion")}},
			{"year", g.yearRange(2)},
		}
		levels = []string{"cnation", "year"}
	case "q4-profit":
		mfgrs := g.members("mfgr")
		i := g.rng.Intn(len(mfgrs) - 1)
		preds = []pred{
			{"cregion", []string{g.pick("cregion")}},
			{"sregion", []string{g.pick("sregion")}},
			{"mfgr", mfgrs[i : i+2]},
			{"year", g.yearRange(1)},
		}
		levels = []string{"year", "cnation"}
		measures = []string{"revenue", "supplycost"}
	}
	var ps []string
	for _, p := range preds {
		if len(p.members) == 1 {
			ps = append(ps, fmt.Sprintf("%s = '%s'", p.level, p.members[0]))
		} else {
			ps = append(ps, fmt.Sprintf("%s in (%s)", p.level, quote(p.members)))
		}
	}
	o.stmt = fmt.Sprintf("with LINEORDER for %s by %s get %s",
		strings.Join(ps, ", "), strings.Join(levels, ", "), strings.Join(measures, ", "))
	o.mkref = func() *ref { return getRef(g.roll, measures, preds, levels...) }
	return o, g.fresh(o.stmt)
}

// Refresh sizing: each round appends one batch of refreshBatchRows;
// LINEORDER folds its WAL in the background every refreshCompactRows
// rows.
const (
	refreshBatchRows   = 4096
	refreshCompactRows = 32768
)

func buildRefresh(g *gen, rounds int) []op {
	// The pool: the unfiltered total (get and assess), a regional
	// assessment, an External and a Past assessment on recent months.
	months := g.members("month")
	nation, region := g.pick("cnation"), g.pick("cregion")
	month := months[len(months)-1-g.rng.Intn(3)]
	tl := g.three([2]float64{0.6, 0.9}, [2]float64{1.1, 1.4}, [3]string{"low", "mid", "high"})
	tc := float64(400_000 * (100 + g.rng.Intn(40)))
	rl := g.three([2]float64{0.6, 0.9}, [2]float64{1.1, 1.4}, [3]string{"low", "mid", "high"})
	rc := float64(1000 * (8000 + g.rng.Intn(4000)))
	el := g.three([2]float64{-0.2, -0.02}, [2]float64{0.02, 0.2}, [3]string{"under", "onBudget", "over"})
	pl := g.three([2]float64{0.7, 0.95}, [2]float64{1.05, 1.3}, [3]string{"worse", "fine", "better"})
	past := months[len(months)-13 : len(months)-1]
	pool := []op{
		{kind: opGet, class: "total-get", total: true,
			stmt: "with LINEORDER by year get quantity, revenue",
			ref:  getRef(g.roll, []string{"quantity", "revenue"}, nil, "year")},
		{kind: opAssess, class: "total-assess", total: true,
			stmt:   fmt.Sprintf("with LINEORDER by year assess quantity against %v using ratio(quantity, benchmark.quantity) labels %s", tc, tl),
			assess: check.Assess{Using: "ratio", Labels: tl, Constant: tc, IsConst: true},
			ref:    constantRef(g.roll, "quantity", tc, nil, "year")},
		{kind: opAssess, class: "region-assess",
			stmt:   fmt.Sprintf("with LINEORDER for cregion = '%s' by cnation, year assess revenue against %v using ratio(revenue, benchmark.revenue) labels %s", region, rc, rl),
			assess: check.Assess{Using: "ratio", Labels: rl, Constant: rc, IsConst: true},
			ref:    constantRef(g.roll, "revenue", rc, []pred{{"cregion", []string{region}}}, "cnation", "year")},
		{kind: opAssess, class: "external",
			stmt:   fmt.Sprintf("with LINEORDER for cnation = '%s' by customer, year assess revenue against LINEORDER_BUDGET.expectedRevenue using normDifference(revenue, benchmark.expectedRevenue) labels %s", nation, el),
			assess: check.Assess{Using: "normDifference", Labels: el},
			ref:    externalRef(g.roll, "revenue", []pred{{"cnation", []string{nation}}}, "customer", "year")},
		{kind: opAssess, class: "past",
			stmt:   fmt.Sprintf("with LINEORDER for month = '%s' by month, supplier assess revenue against past 4 using ratio(revenue, benchmark.revenue) labels %s", month, pl),
			assess: check.Assess{Using: "ratio", Labels: pl},
			ref:    pastRef(g.roll, "revenue", "month", month, pastOf(months, month, 4), nil, "month", "supplier")},
	}
	recent := dateIDs(g.s, past[0])
	// After each batch: the unfiltered total first (so every batch's rows
	// are checked, and it pays the view rebuild), then a shuffled round
	// in which the assessments repeat and so hit the cache.
	mix := map[string]int{"total-assess": 6, "region-assess": 3, "past": 1, "external": 1}
	order := []string{"total-assess", "region-assess", "past", "external"}
	byClass := map[string]op{}
	for _, o := range pool {
		byClass[o.class] = o
	}
	var ops []op
	for r := 0; r < rounds; r++ {
		ops = append(ops, op{kind: opAppend, class: "append", rows: g.batch(recent)}, byClass["total-get"])
		for _, class := range g.shuffled(mix, order) {
			ops = append(ops, byClass[class])
		}
	}
	return ops
}

// pastOf returns the k months before month, oldest first.
func pastOf(months []string, month string, k int) []string {
	for i, m := range months {
		if m == month {
			return months[i-k : i]
		}
	}
	panic("unknown month " + month)
}

// dateIDs returns the base date ids from the first date of month on.
func dateIDs(s *mdm.Schema, month string) []int32 {
	d := s.Hiers[0]
	var ids []int32
	for id := 0; id < d.Dict(0).Len(); id++ {
		if d.Dict(1).Name(d.Rollup(int32(id), 0, 1)) >= month {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// batch draws new LINEORDER rows over the store's own member
// dictionaries: dates from the last year, other keys uniform, whole
// quantities and revenues in cents.
func (g *gen) batch(recent []int32) [][]float64 {
	rows := make([][]float64, refreshBatchRows)
	for i := range rows {
		q := float64(1 + g.rng.Intn(50))
		rev := math.Round(q*(900+1200*g.rng.Float64())*100) / 100
		rows[i] = []float64{
			float64(recent[g.rng.Intn(len(recent))]),
			float64(g.rng.Intn(g.s.Hiers[1].Dict(0).Len())),
			float64(g.rng.Intn(g.s.Hiers[2].Dict(0).Len())),
			float64(g.rng.Intn(g.s.Hiers[3].Dict(0).Len())),
			q, rev, math.Round(rev*60) / 100,
		}
	}
	return rows
}
