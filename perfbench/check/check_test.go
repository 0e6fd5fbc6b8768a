package check

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

var clause = Labels{
	{Lo: math.Inf(-1), Hi: 0.8, HiOpen: true, Label: "behind"},
	{Lo: 0.8, Hi: 1.2, Label: "onTarget"},
	{Lo: 1.2, Hi: math.Inf(1), LoOpen: true, Label: "ahead"},
}

// wireRow mirrors the server's JSON encoding of one /assess cell.
type wireRow struct {
	Coordinate []string `json:"coordinate"`
	Measure    *float64 `json:"measure"`
	Benchmark  *float64 `json:"benchmark"`
	Comparison *float64 `json:"comparison"`
	Label      string   `json:"label"`
}

func f(v float64) *float64 { return &v }

// external builds a correct ratio assessment of three cells against a
// reference budget, returning the response body and the reference.
func external(t *testing.T) ([]byte, Expected) {
	t.Helper()
	coords := [][]string{{"Customer#1", "1997"}, {"Customer#2", "1997"}, {"Customer \"3\"", "1997"}}
	meas := []float64{900, 1000, 1300}
	bench := []float64{1000, 1000, 1000}
	e := Expected{Measure: map[string]float64{}, Bench: map[string]float64{}}
	var rows []wireRow
	for i, c := range coords {
		cmp := meas[i] / bench[i]
		rows = append(rows, wireRow{c, f(meas[i]), f(bench[i]), f(cmp), clause.Of(cmp)})
		e.Measure[Key(c...)], e.Bench[Key(c...)] = meas[i], bench[i]
	}
	return encode(t, rows), e
}

func encode(t *testing.T, rows []wireRow) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"strategy": "JOP", "cells": len(rows), "totalMs": 1.5,
		"breakdownMs": map[string]float64{"Get C": 1}, "cache": "miss", "rows": rows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decode(t *testing.T, b []byte) *AssessResponse {
	t.Helper()
	r, err := DecodeAssess(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCorrectResponsePasses(t *testing.T) {
	b, e := external(t)
	r := decode(t, b)
	a := Assess{Using: "ratio", Labels: clause}
	if err := a.Properties(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Reference(r, e); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	rows := []wireRow{
		{[]string{"a\\b", "é\"x"}, f(1e-300), nil, f(-2.5e10), "top-1"},
		{[]string{"c"}, f(0), f(3), nil, "null"},
	}
	r := decode(t, encode(t, rows))
	if r.Cells != 2 || len(r.Rows) != 2 {
		t.Fatalf("decoded %d cells, %d rows", r.Cells, len(r.Rows))
	}
	got := r.Rows[0]
	if got.Key != Key("a\\b", "é\"x") || got.Measure != 1e-300 || !math.IsNaN(got.Benchmark) ||
		got.Comparison != -2.5e10 || got.Label != "top-1" {
		t.Fatalf("row 0 = %+v", got)
	}
	if !math.IsNaN(r.Rows[1].Comparison) || r.Rows[1].Benchmark != 3 {
		t.Fatalf("row 1 = %+v", r.Rows[1])
	}
	for _, bad := range []string{`{"rows":[{"measure":1}`, `{"cells":1}x`, `{"rows":[{"measure":tru}]}`} {
		if _, err := DecodeAssess([]byte(bad)); err == nil {
			t.Errorf("DecodeAssess(%s) accepted malformed JSON", bad)
		}
	}
}

func TestLabelInWrongIntervalIsCaught(t *testing.T) {
	b, _ := external(t)
	r := decode(t, b)
	r.Rows[1].Label = "ahead" // comparison 1.0 lies in [0.8, 1.2]
	if err := (Assess{Using: "ratio", Labels: clause}).Properties(r); err == nil {
		t.Fatal("a label moved to the wrong interval passed")
	}
	// A boundary value belongs to the closed side only.
	if l := clause.Of(1.2); l != "onTarget" {
		t.Fatalf("1.2 labeled %q", l)
	}
	if l := clause.Of(0.8); l != "onTarget" {
		t.Fatalf("0.8 labeled %q", l)
	}
}

func TestDroppedCellIsCaught(t *testing.T) {
	b, e := external(t)
	r := decode(t, b)
	r.Rows = r.Rows[:2]
	r.Cells = 2 // consistent with itself, so only the reference can tell
	a := Assess{Using: "ratio", Labels: clause}
	if err := a.Properties(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Reference(r, e); err == nil {
		t.Fatal("a dropped cell passed the reference check")
	}
}

func TestBenchmarkOffByATenthPercentIsCaught(t *testing.T) {
	b, e := external(t)
	r := decode(t, b)
	row := &r.Rows[0]
	row.Benchmark *= 1.001
	row.Comparison = row.Measure / row.Benchmark // self-consistent
	row.Label = clause.Of(row.Comparison)
	a := Assess{Using: "ratio", Labels: clause}
	if err := a.Properties(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Reference(r, e); err == nil {
		t.Fatal("a benchmark off by 0.1% passed the reference check")
	}
	// Against a constant the property check alone catches it.
	c := Assess{Using: "ratio", Labels: clause, Constant: 1000, IsConst: true}
	if err := c.Properties(r); err == nil {
		t.Fatal("a constant benchmark off by 0.1% passed")
	}
}

func TestComparisonMismatchIsCaught(t *testing.T) {
	b, _ := external(t)
	r := decode(t, b)
	r.Rows[2].Comparison = 1.3 * (1 + 1e-6)
	if err := (Assess{Using: "ratio", Labels: clause}).Properties(r); err == nil {
		t.Fatal("a comparison off by 1e-6 passed")
	}
}

func TestTotalMissingAppendedRowsIsCaught(t *testing.T) {
	body := `{"levels":["year"],"measures":["quantity"],"cells":2,"rows":[
		{"quantity":100,"year":"1997"},{"quantity":250,"year":"1998"}]}`
	var g GetResponse
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	if err := g.Properties(); err != nil {
		t.Fatal(err)
	}
	tally := 350.0
	if err := g.Total("quantity", tally); err != nil {
		t.Fatal(err)
	}
	tally += 7 // a batch of appended rows the (stale) answer lacks
	if err := g.Total("quantity", tally); err == nil {
		t.Fatal("a total missing the appended rows passed")
	}
	a := &AssessResponse{Cells: 2, Rows: []AssessRow{{Key: "1997", Measure: 100}, {Key: "1998", Measure: 250}}}
	if err := a.MeasureTotal(tally); err == nil {
		t.Fatal("an assessed total missing the appended rows passed")
	}
}

func TestGetReference(t *testing.T) {
	body := `{"levels":["brand","year"],"measures":["revenue"],"cells":2,"rows":[
		{"brand":"B1","revenue":10.5,"year":"1997"},{"brand":"B2","revenue":3,"year":"1997"}]}`
	var g GetResponse
	if err := json.Unmarshal([]byte(body), &g); err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{Key("B1", "1997"): {10.5}, Key("B2", "1997"): {3}}
	if err := g.Reference(want); err != nil {
		t.Fatal(err)
	}
	want[Key("B3", "1997")] = []float64{1}
	if err := g.Reference(want); err == nil {
		t.Fatal("a missing group passed")
	}
	delete(want, Key("B3", "1997"))
	want[Key("B2", "1997")] = []float64{3.003}
	if err := g.Reference(want); err == nil {
		t.Fatal("a value off by 0.1% passed")
	}
}

func TestPredictOLS(t *testing.T) {
	// y = 3 + 2x at x = 1..4 predicts 13 at x = 5.
	if got := PredictOLS([]float64{5, 7, 9, 11}); math.Abs(got-13) > 1e-12 {
		t.Fatalf("PredictOLS = %v, want 13", got)
	}
	// Against the normal equations on a noisy series.
	ys := []float64{1.2e6, 1.35e6, 1.1e6, 1.5e6, 1.42e6, 1.3e6}
	var n, sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i + 1)
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	want := (sy-b*sx)/n + b*(n+1)
	if got := PredictOLS(ys); !Close(got, want) {
		t.Fatalf("PredictOLS = %v, want %v", got, want)
	}
	if got := PredictOLS([]float64{42}); got != 42 {
		t.Fatalf("single point predicts %v", got)
	}
}
