// Package bench is the experiment harness: one entry point per table and
// figure of the paper's evaluation section plus the composition
// patterns' grid runners, each returning a renderable grid, and the
// parameter Schema the scenario registry (internal/scenario) declares
// its entries with. The package holds no registry and no
// state: every entry point that simulates takes the caller's context and
// *sweep.Engine. A grid assembled under a cancelled context is partial —
// check ctx.Err() before rendering or caching it.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Grid is a rendered experiment result: a titled text table that can also
// be emitted as CSV.
type Grid struct {
	Title  string
	Notes  []string
	Header []string
	Rows   [][]string
}

// Add appends a row of preformatted cells.
func (g *Grid) Add(cells ...string) {
	if len(cells) != len(g.Header) {
		panic(fmt.Sprintf("bench: row of %d cells in grid of %d columns", len(cells), len(g.Header)))
	}
	g.Rows = append(g.Rows, cells)
}

// AddF appends a row of float cells rendered with the given precision.
func (g *Grid) AddF(prec int, vals ...float64) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = fmt.Sprintf("%.*f", prec, v)
	}
	g.Add(cells...)
}

// Note attaches a caption line printed under the table.
func (g *Grid) Note(format string, args ...any) {
	g.Notes = append(g.Notes, fmt.Sprintf(format, args...))
}

// Render writes an aligned text table.
func (g *Grid) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", g.Title)
	widths := make([]int, len(g.Header))
	for i, h := range g.Header {
		widths[i] = len(h)
	}
	for _, row := range g.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(g.Header)
	sep := make([]string, len(g.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range g.Rows {
		line(row)
	}
	for _, n := range g.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the grid as CSV (header + rows, notes as comments).
func (g *Grid) RenderCSV(w io.Writer) {
	for _, n := range g.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w, strings.Join(g.Header, ","))
	for _, row := range g.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// RenderJSON writes the grid as a JSON object {title, header, rows,
// notes}. encoding/json emits struct fields in declaration order, so the
// bytes are as deterministic as the CSV rendering.
func (g *Grid) RenderJSON(w io.Writer) error {
	doc := struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{Title: g.Title, Header: g.Header, Rows: g.Rows, Notes: g.Notes}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Column extracts a numeric column by header name (for assertions).
func (g *Grid) Column(name string) []float64 {
	idx := -1
	for i, h := range g.Header {
		if h == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("bench: no column " + name)
	}
	out := make([]float64, 0, len(g.Rows))
	for _, row := range g.Rows {
		var v float64
		fmt.Sscanf(row[idx], "%f", &v)
		out = append(out, v)
	}
	return out
}

// f3 formats a float with three decimals; i64 formats an integer cell.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }

// PowersOfTwo returns the sizes 2^lo .. 2^hi inclusive.
func PowersOfTwo(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, 1<<i)
	}
	return out
}
