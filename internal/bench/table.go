package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table accumulates experiment output rows and renders them aligned.
type Table struct {
	Title   string
	Notes   string
	Columns []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FprintCSV renders the table as CSV: a comment line with the title, a
// header row, then the data rows — the machine-readable counterpart of
// Fprint for plotting pipelines.
func (t *Table) FprintCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVMode switches every experiment's Fprint to CSV output. It is set
// once by `mha bench`'s -csv flag before any experiment runs; the
// harness is single-threaded per process.
var CSVMode bool

// Fprint renders the table (aligned text, or CSV under CSVMode).
func (t *Table) Fprint(w io.Writer) error {
	if CSVMode {
		return t.FprintCSV(w)
	}
	if _, err := fmt.Fprintf(w, "\n== %s ==\n", t.Title); err != nil {
		return err
	}
	if t.Notes != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Notes); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	underline := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		underline[i] = strings.Repeat("-", len(c))
	}
	fmt.Fprintln(tw, strings.Join(underline, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	return tw.Flush()
}
