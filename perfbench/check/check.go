// Package check verifies the program's /assess and /query responses
// against values computed apart from the program: plain-map group sums
// over the generated rows, the benchmark's own least-squares
// prediction, the comparison functions and the labeling intervals as the
// statements define them. It imports nothing from the program.
package check

import (
	"fmt"
	"math"
	"strings"
)

// Tol is the relative tolerance for every value comparison.
const Tol = 1e-9

// Close reports whether got equals want within Tol relative to want
// (absolute near zero).
func Close(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return false
	}
	return math.Abs(got-want) <= Tol*math.Max(1, math.Abs(want))
}

// Interval is one range of a labeling clause, e.g. "[0.8, 1.2]: onTarget".
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
	Label          string
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool {
	if v < iv.Lo || (iv.LoOpen && v == iv.Lo) {
		return false
	}
	return v < iv.Hi || (!iv.HiOpen && v == iv.Hi)
}

// String renders the interval in statement syntax.
func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%s, %s%s: %s", lb, bound(iv.Lo), bound(iv.Hi), rb, iv.Label)
}

func bound(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	return fmt.Sprint(v)
}

// Labels is a labeling clause: disjoint intervals.
type Labels []Interval

// Of returns the label of the interval containing v, or "" when none
// does.
func (ls Labels) Of(v float64) string {
	for _, iv := range ls {
		if iv.Contains(v) {
			return iv.Label
		}
	}
	return ""
}

// String renders the clause in statement syntax.
func (ls Labels) String() string {
	parts := make([]string, len(ls))
	for i, iv := range ls {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Compare applies a `using` function to a measure and its benchmark.
func Compare(fn string, m, b float64) (float64, error) {
	switch fn {
	case "ratio":
		return m / b, nil
	case "normDifference":
		return (m - b) / b, nil
	case "difference":
		return m - b, nil
	}
	return 0, fmt.Errorf("check: unknown comparison %q", fn)
}

// PredictOLS fits y = a + b·x by least squares over x = 1..k and returns
// the prediction at x = k+1, the benchmark of a "past k" assessment.
func PredictOLS(ys []float64) float64 {
	k := float64(len(ys))
	if k == 1 {
		return ys[0]
	}
	xbar := (k + 1) / 2
	var ybar float64
	for _, y := range ys {
		ybar += y
	}
	ybar /= k
	var sxy, sxx float64
	for i, y := range ys {
		dx := float64(i+1) - xbar
		sxy += dx * (y - ybar)
		sxx += dx * dx
	}
	return ybar + sxy/sxx*(k+1-xbar)
}

// Key joins a cell coordinate into a map key.
func Key(coord ...string) string { return strings.Join(coord, "\x1f") }

// AssessRow is one cell of an /assess response; nulls decode as NaN.
type AssessRow struct {
	Key                            string // Key(coordinate...)
	Measure, Benchmark, Comparison float64
	Label                          string
}

// AssessResponse is the checked part of an /assess response.
type AssessResponse struct {
	Cells int
	Rows  []AssessRow
}

// Assess describes what a statement asks for, as far as checks need.
type Assess struct {
	Using    string
	Labels   Labels
	Constant float64 // the benchmark of a constant assessment
	IsConst  bool
}

// Properties runs the checks every response gets: the cell count, one
// row per coordinate, the comparison equal to the `using` function of
// the reported measure and benchmark, each label the clause interval
// containing the comparison, and a constant benchmark where one is set.
func (a Assess) Properties(r *AssessResponse) error {
	if r.Cells != len(r.Rows) {
		return fmt.Errorf("cells = %d but %d rows", r.Cells, len(r.Rows))
	}
	seen := make(map[string]struct{}, len(r.Rows))
	for i, row := range r.Rows {
		if _, dup := seen[row.Key]; dup {
			return fmt.Errorf("row %d: duplicate coordinate %q", i, row.Key)
		}
		seen[row.Key] = struct{}{}
		if a.IsConst && row.Benchmark != a.Constant {
			return fmt.Errorf("row %d: benchmark %v, want the constant %v", i, row.Benchmark, a.Constant)
		}
		want, err := Compare(a.Using, row.Measure, row.Benchmark)
		if err != nil {
			return err
		}
		if !Close(row.Comparison, want) {
			return fmt.Errorf("row %d (%s): comparison %v, want %s(%v, %v) = %v",
				i, row.Key, row.Comparison, a.Using, row.Measure, row.Benchmark, want)
		}
		if l := a.Labels.Of(row.Comparison); l != row.Label {
			return fmt.Errorf("row %d (%s): label %q for comparison %v, want %q", i, row.Key, row.Label, row.Comparison, l)
		}
	}
	return nil
}

// Expected holds reference values by coordinate key: the assessed
// measure and its benchmark for every cell the result must contain.
type Expected struct {
	Measure, Bench map[string]float64
}

// Reference checks a response cell by cell against reference values:
// the same set of coordinates, and measure and benchmark within Tol.
// Run Properties too; Reference does not re-check comparisons or labels.
func (a Assess) Reference(r *AssessResponse, e Expected) error {
	if len(r.Rows) != len(e.Measure) {
		return fmt.Errorf("%d cells, reference has %d", len(r.Rows), len(e.Measure))
	}
	for i, row := range r.Rows {
		m, ok := e.Measure[row.Key]
		if !ok {
			return fmt.Errorf("row %d: coordinate %q not in the reference", i, row.Key)
		}
		if !Close(row.Measure, m) {
			return fmt.Errorf("row %d (%s): measure %v, reference %v", i, row.Key, row.Measure, m)
		}
		if b := e.Bench[row.Key]; !Close(row.Benchmark, b) {
			return fmt.Errorf("row %d (%s): benchmark %v, reference %v", i, row.Key, row.Benchmark, b)
		}
	}
	return nil
}

// MeasureTotal checks that the assessed measure summed over all cells
// equals want, e.g. the running tally of every row written.
func (r *AssessResponse) MeasureTotal(want float64) error {
	var s float64
	for _, row := range r.Rows {
		s += row.Measure
	}
	if !Close(s, want) {
		return fmt.Errorf("measure total %v, want %v (off by %v)", s, want, s-want)
	}
	return nil
}

// GetResponse is the checked part of a /query response.
type GetResponse struct {
	Levels   []string         `json:"levels"`
	Measures []string         `json:"measures"`
	Cells    int              `json:"cells"`
	Rows     []map[string]any `json:"rows"`
}

// Properties checks the cell count, one row per coordinate, and a
// finite value for every measure.
func (r *GetResponse) Properties() error {
	if r.Cells != len(r.Rows) {
		return fmt.Errorf("cells = %d but %d rows", r.Cells, len(r.Rows))
	}
	seen := make(map[string]struct{}, len(r.Rows))
	for i, row := range r.Rows {
		k, err := r.key(row)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("row %d: duplicate coordinate %q", i, k)
		}
		seen[k] = struct{}{}
		for _, m := range r.Measures {
			if v, ok := row[m].(float64); !ok || math.IsInf(v, 0) {
				return fmt.Errorf("row %d: measure %s = %v", i, m, row[m])
			}
		}
	}
	return nil
}

func (r *GetResponse) key(row map[string]any) (string, error) {
	coord := make([]string, len(r.Levels))
	for p, l := range r.Levels {
		s, ok := row[l].(string)
		if !ok {
			return "", fmt.Errorf("level %s = %v", l, row[l])
		}
		coord[p] = s
	}
	return Key(coord...), nil
}

// Reference checks every cell against plain-map group sums: one value
// per measure, in r.Measures order, keyed by the coordinate in r.Levels
// order. The cell count must equal the number of groups.
func (r *GetResponse) Reference(want map[string][]float64) error {
	if len(r.Rows) != len(want) {
		return fmt.Errorf("%d cells, reference has %d groups", len(r.Rows), len(want))
	}
	for i, row := range r.Rows {
		k, err := r.key(row)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("row %d: group %q not in the reference", i, k)
		}
		for j, m := range r.Measures {
			if v, _ := row[m].(float64); !Close(v, w[j]) {
				return fmt.Errorf("row %d (%s): %s = %v, reference %v", i, k, m, v, w[j])
			}
		}
	}
	return nil
}

// Total checks that a measure summed over all cells equals want.
func (r *GetResponse) Total(measure string, want float64) error {
	var s float64
	for _, row := range r.Rows {
		v, _ := row[measure].(float64)
		s += v
	}
	if !Close(s, want) {
		return fmt.Errorf("%s total %v, want %v (off by %v)", measure, s, want, s-want)
	}
	return nil
}
