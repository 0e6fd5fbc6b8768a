package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// DecodeAssess parses an /assess response body into the rows the checks
// read. It is a single-pass scanner over the body rather than
// encoding/json, which spends longer on a 10⁵-cell response than the
// program spends answering it; fields other than "cells" and "rows" are
// skipped, and a body that is not well-formed JSON is an error.
func DecodeAssess(b []byte) (*AssessResponse, error) {
	d := decoder{b: b, labels: map[string]string{}}
	r := &AssessResponse{}
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "cells":
			v, err := d.number()
			r.Cells = int(v)
			return err
		case "rows":
			return d.array(func() error {
				row, err := d.row()
				r.Rows = append(r.Rows, row)
				return err
			})
		}
		return d.skip()
	})
	if err != nil {
		return nil, err
	}
	if d.ws(); d.i != len(d.b) {
		return nil, d.errorf("trailing data")
	}
	return r, nil
}

type decoder struct {
	b      []byte
	i      int
	labels map[string]string // interned label strings
	coord  []string
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("check: decode at byte %d: %s", d.i, fmt.Sprintf(format, args...))
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) expect(c byte) error {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != c {
		return d.errorf("want %q", c)
	}
	d.i++
	return nil
}

// peek returns the next non-space byte without consuming it (0 at end).
func (d *decoder) peek() byte {
	d.ws()
	if d.i >= len(d.b) {
		return 0
	}
	return d.b[d.i]
}

// object calls field for each key, with the decoder positioned at the
// key's value.
func (d *decoder) object(field func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.rawString()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.errorf("want ',' or '}'")
		}
	}
}

func (d *decoder) array(elem func() error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.errorf("want ',' or ']'")
		}
	}
}

// rawString returns a string token's bytes without quotes. Escaped
// strings are unquoted into a fresh buffer.
func (d *decoder) rawString() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.i
	escaped := false
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case '\\':
			escaped = true
			d.i += 2
			continue
		case '"':
			s := d.b[start:d.i]
			d.i++
			if !escaped {
				return s, nil
			}
			var out string
			if err := json.Unmarshal(d.b[start-1:d.i], &out); err != nil {
				return nil, d.errorf("bad string: %v", err)
			}
			return []byte(out), nil
		}
		d.i++
	}
	return nil, d.errorf("unterminated string")
}

// number parses a JSON number, or null as NaN.
func (d *decoder) number() (float64, error) {
	d.ws()
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += 4
		return math.NaN(), nil
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			d.i++
			continue
		}
		break
	}
	v, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		return 0, d.errorf("bad number %q", d.b[start:d.i])
	}
	return v, nil
}

// skip consumes one value of any type.
func (d *decoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.array(d.skip)
	case '"':
		_, err := d.rawString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	}
	_, err := d.number()
	return err
}

func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.b[d.i:], []byte(word)) {
		return d.errorf("want %s", word)
	}
	d.i += len(word)
	return nil
}

// row decodes one result cell.
func (d *decoder) row() (AssessRow, error) {
	row := AssessRow{Measure: math.NaN(), Benchmark: math.NaN(), Comparison: math.NaN()}
	err := d.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "coordinate":
			d.coord = d.coord[:0]
			err = d.array(func() error {
				s, err := d.rawString()
				d.coord = append(d.coord, string(s))
				return err
			})
			row.Key = Key(d.coord...)
		case "measure":
			row.Measure, err = d.number()
		case "benchmark":
			row.Benchmark, err = d.number()
		case "comparison":
			row.Comparison, err = d.number()
		case "label":
			var s []byte
			if s, err = d.rawString(); err == nil {
				l, ok := d.labels[string(s)]
				if !ok {
					l = string(s)
					d.labels[l] = l
				}
				row.Label = l
			}
		default:
			err = d.skip()
		}
		return err
	})
	return row, err
}
