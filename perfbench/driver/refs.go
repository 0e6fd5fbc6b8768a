package main

import (
	"sort"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/perfbench/check"
)

// acc sums one cube query over rows fed to it one at a time — the
// plain-map group sums the program's answers are checked against. It
// reads the dimension tables (roll-up of each base member) from the
// generator's schema and nothing else from the program.
type acc struct {
	budget bool  // sum LINEORDER_BUDGET.expectedRevenue, not LINEORDER measures
	meas   []int // LINEORDER measure indices, in output order
	preds  []accPred
	group  []mdm.LevelRef // sorted by hierarchy, the order results report coordinates in
	ups    [][]int32      // per group level: base id → level id
	radix  []int64
	sums   map[int64][]float64
	schema *mdm.Schema
}

type accPred struct {
	hier   int
	accept []bool // over base ids
}

// rollups memoizes base → level roll-up arrays per level.
type rollups struct {
	s    *mdm.Schema
	maps map[mdm.LevelRef][]int32
}

func newRollups(s *mdm.Schema) *rollups {
	return &rollups{s: s, maps: map[mdm.LevelRef][]int32{}}
}

func (r *rollups) of(ref mdm.LevelRef) []int32 {
	if m, ok := r.maps[ref]; ok {
		return m
	}
	h := r.s.Hiers[ref.Hier]
	m := make([]int32, h.Dict(0).Len())
	for id := range m {
		m[id] = h.Rollup(int32(id), 0, ref.Level)
	}
	r.maps[ref] = m
	return m
}

// pred is a selection on member names at one level.
type pred struct {
	level   string
	members []string
}

// newAcc builds an accumulator for "for preds by levels get measures".
func newAcc(r *rollups, budget bool, measures []string, preds []pred, levels ...string) *acc {
	s := r.s
	a := &acc{budget: budget, sums: map[int64][]float64{}, schema: s}
	for _, m := range measures {
		i, ok := s.MeasureIndex(m)
		if !ok && !budget {
			panic("unknown measure " + m)
		}
		a.meas = append(a.meas, i)
	}
	for _, l := range levels {
		ref, ok := s.FindLevel(l)
		if !ok {
			panic("unknown level " + l)
		}
		a.group = append(a.group, ref)
	}
	sort.Slice(a.group, func(i, j int) bool { return a.group[i].Hier < a.group[j].Hier })
	a.radix = make([]int64, len(a.group))
	rad := int64(1)
	for i := len(a.group) - 1; i >= 0; i-- {
		a.radix[i] = rad
		rad *= int64(s.Dict(a.group[i]).Len())
		a.ups = append([][]int32{r.of(a.group[i])}, a.ups...)
	}
	for _, p := range preds {
		ref, ok := s.FindLevel(p.level)
		if !ok {
			panic("unknown level " + p.level)
		}
		want := map[int32]bool{}
		for _, name := range p.members {
			id, ok := s.Dict(ref).Lookup(name)
			if !ok {
				panic("unknown member " + name)
			}
			want[id] = true
		}
		up := r.of(ref)
		accept := make([]bool, len(up))
		for b, id := range up {
			accept[b] = want[id]
		}
		a.preds = append(a.preds, accPred{hier: ref.Hier, accept: accept})
	}
	return a
}

// add feeds one row: LINEORDER measures meas and the budget value.
func (a *acc) add(keys []int32, meas []float64, budget float64) {
	for _, p := range a.preds {
		if !p.accept[keys[p.hier]] {
			return
		}
	}
	var k int64
	for i, g := range a.group {
		k += int64(a.ups[i][keys[g.Hier]]) * a.radix[i]
	}
	s := a.sums[k]
	if s == nil {
		s = make([]float64, max(1, len(a.meas)))
		a.sums[k] = s
	}
	if a.budget {
		s[0] += budget
		return
	}
	for j, m := range a.meas {
		s[j] += meas[m]
	}
}

// coord decodes a group key into member names in hierarchy order.
func (a *acc) coord(k int64) []string {
	out := make([]string, len(a.group))
	for i, g := range a.group {
		id := k / a.radix[i]
		k -= id * a.radix[i]
		out[i] = a.schema.Dict(g).Name(int32(id))
	}
	return out
}

// byName returns the sums keyed by check.Key of the coordinate.
func (a *acc) byName() map[string][]float64 {
	out := make(map[string][]float64, len(a.sums))
	for k, v := range a.sums {
		out[check.Key(a.coord(k)...)] = v
	}
	return out
}

// pos is the coordinate position of a level in this accumulator's
// group-by.
func (a *acc) pos(level string) int {
	ref, _ := a.schema.FindLevel(level)
	for i, g := range a.group {
		if g == ref {
			return i
		}
	}
	panic("level not grouped: " + level)
}

// ref is what a sampled statement's answer is checked against.
type ref struct {
	accs   []*acc
	expect func() any // check.Expected for assess, map[string][]float64 for get
}

// getRef is the reference of "for preds by levels get measures".
func getRef(r *rollups, measures []string, preds []pred, levels ...string) *ref {
	a := newAcc(r, false, measures, preds, levels...)
	return &ref{accs: []*acc{a}, expect: func() any { return a.byName() }}
}

// constantRef: every target cell, against the constant.
func constantRef(r *rollups, measure string, c float64, preds []pred, levels ...string) *ref {
	a := newAcc(r, false, []string{measure}, preds, levels...)
	return &ref{accs: []*acc{a}, expect: func() any {
		e := check.Expected{Measure: map[string]float64{}, Bench: map[string]float64{}}
		for k, v := range a.byName() {
			e.Measure[k], e.Bench[k] = v[0], c
		}
		return e
	}}
}

// externalRef: target cells that have a budget cell, against it.
func externalRef(r *rollups, measure string, preds []pred, levels ...string) *ref {
	t := newAcc(r, false, []string{measure}, preds, levels...)
	b := newAcc(r, true, nil, preds, levels...)
	return &ref{accs: []*acc{t, b}, expect: func() any {
		e := check.Expected{Measure: map[string]float64{}, Bench: map[string]float64{}}
		bench := b.byName()
		for k, v := range t.byName() {
			if bv, ok := bench[k]; ok {
				e.Measure[k], e.Bench[k] = v[0], bv[0]
			}
		}
		return e
	}}
}

// siblingRef: cells of the target slice whose sibling-slice cell
// exists, against that cell's value.
func siblingRef(r *rollups, measure string, slice, target, sibling string, preds []pred, levels ...string) *ref {
	preds = append(preds, pred{slice, []string{target, sibling}})
	a := newAcc(r, false, []string{measure}, preds, levels...)
	p := a.pos(slice)
	return &ref{accs: []*acc{a}, expect: func() any {
		e := check.Expected{Measure: map[string]float64{}, Bench: map[string]float64{}}
		sums := map[string]float64{}
		var targets [][]string
		for k, v := range a.sums {
			c := a.coord(k)
			sums[check.Key(c...)] = v[0]
			if c[p] == target {
				targets = append(targets, c)
			}
		}
		for _, c := range targets {
			key := check.Key(c...)
			c[p] = sibling
			if bv, ok := sums[check.Key(c...)]; ok {
				e.Measure[key], e.Bench[key] = sums[key], bv
			}
		}
		return e
	}}
}

// pastRef: cells of the target slice with a value in each of the past
// slices, against the least-squares prediction over them (oldest
// first).
func pastRef(r *rollups, measure string, slice, target string, past []string, preds []pred, levels ...string) *ref {
	preds = append(preds, pred{slice, append([]string{target}, past...)})
	a := newAcc(r, false, []string{measure}, preds, levels...)
	p := a.pos(slice)
	return &ref{accs: []*acc{a}, expect: func() any {
		e := check.Expected{Measure: map[string]float64{}, Bench: map[string]float64{}}
		sums := map[string]float64{}
		var targets [][]string
		for k, v := range a.sums {
			c := a.coord(k)
			sums[check.Key(c...)] = v[0]
			if c[p] == target {
				targets = append(targets, c)
			}
		}
		ys := make([]float64, len(past))
	cells:
		for _, c := range targets {
			key := check.Key(c...)
			for i, m := range past {
				c[p] = m
				y, ok := sums[check.Key(c...)]
				if !ok {
					continue cells
				}
				ys[i] = y
			}
			e.Measure[key], e.Bench[key] = sums[key], check.PredictOLS(ys)
		}
		return e
	}}
}
