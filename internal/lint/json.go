package lint

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
)

// Machine-readable output and the accepted-findings baseline. Both
// renderings are byte-deterministic: Check returns diagnostics in a
// total order, the JSON encoder walks structs (not maps), and baselines
// are sorted and deduplicated — so CI can diff either against a checked-
// in file without normalization.

// jsonDiagnostic is the wire form of one finding.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// jsonReport is the wire form of one run.
type jsonReport struct {
	Passes   []string         `json:"passes"`
	Findings []jsonDiagnostic `json:"findings"`
}

// RenderJSON encodes a run's findings (as returned by Check, already
// sorted) with the pass names that ran. The output ends in a newline and
// is byte-identical for identical inputs.
func RenderJSON(passNames []string, diags []Diagnostic) []byte {
	rep := jsonReport{Passes: passNames, Findings: []jsonDiagnostic{}}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonDiagnostic{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Pass: d.Pass, Message: d.Message,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		// Plain structs of strings and ints cannot fail to encode.
		panic("lint: rendering JSON: " + err.Error())
	}
	return buf.Bytes()
}

// Fingerprint is a finding's baseline identity: file, pass, and message,
// without the line and column. Accepted findings therefore survive
// unrelated edits that shift line numbers; any change to the message (or
// a second identical finding in the same file) surfaces as new.
func Fingerprint(d Diagnostic) string {
	return d.Pos.Filename + "\t" + d.Pass + "\t" + d.Message
}

// ParseBaseline reads a baseline file: one fingerprint per line, blank
// lines and #-comments ignored.
func ParseBaseline(data []byte) map[string]bool {
	base := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		base[line] = true
	}
	return base
}

// FormatBaseline renders findings as a baseline file.
func FormatBaseline(diags []Diagnostic) []byte {
	seen := map[string]bool{}
	var lines []string
	for _, d := range diags {
		fp := Fingerprint(d)
		if !seen[fp] {
			seen[fp] = true
			lines = append(lines, fp)
		}
	}
	sort.Strings(lines)
	var buf bytes.Buffer
	buf.WriteString("# mha lint baseline: accepted findings, one per line (file<TAB>pass<TAB>message).\n")
	buf.WriteString("# Regenerate with: go run ./cmd/mha lint -write-baseline lint.baseline ./...\n")
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteString("\n")
	}
	return buf.Bytes()
}

// ApplyBaseline splits findings into new (not in the baseline) and
// accepted. Baseline entries that matched nothing are stale but not an
// error — regenerating the file cleans them up.
func ApplyBaseline(diags []Diagnostic, base map[string]bool) (fresh, accepted []Diagnostic) {
	for _, d := range diags {
		if base[Fingerprint(d)] {
			accepted = append(accepted, d)
		} else {
			fresh = append(fresh, d)
		}
	}
	return fresh, accepted
}
