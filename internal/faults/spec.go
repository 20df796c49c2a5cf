package faults

import (
	"fmt"
	"strconv"
	"time"

	"mha/internal/kv"
	"mha/internal/sim"
)

// Parse reads the textual fault-schedule format: one fault per line,
//
//	down    node=0 rail=1 from=10us until=2ms
//	degrade node=* rail=1 frac=0.5
//	latency node=2 rail=* extra=5us from=1ms
//	flap    node=1 rail=0 period=200us down=50us until=forever
//
// Keys may appear in any order. Every kind takes node, rail, from and
// until; degrade adds frac, latency extra, and flap period and down. A
// key the kind does not take, a repeated key and an empty value are
// errors. node/rail default to * (every node/rail), from defaults to 0
// and until to forever. Durations use Go syntax (ns/us/ms/s). Blank
// lines and #-comments are skipped.
func Parse(text string) (*Schedule, error) {
	var fs []Fault
	err := kv.Lines(text, func(ln int, fields []string) error {
		f, err := parseFault(fields)
		if err != nil {
			return fmt.Errorf("faults: line %d: %w", ln, err)
		}
		fs = append(fs, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return New(fs...)
}

func parseFault(fields []string) (Fault, error) {
	f := Fault{Node: AllNodes, Rail: AllRails, Until: Forever}
	keys := []string{"node", "rail", "from", "until"}
	switch fields[0] {
	case "down":
		f.Kind = Down
	case "degrade":
		f.Kind, keys = Degrade, append(keys, "frac")
	case "latency":
		f.Kind, keys = Latency, append(keys, "extra")
	case "flap":
		f.Kind, keys = Flap, append(keys, "period", "down")
	default:
		return f, fmt.Errorf("unknown fault kind %q (want down|degrade|latency|flap)", fields[0])
	}
	set, err := kv.Parse(fields[1:], keys...)
	if err != nil {
		return f, err
	}
	for _, key := range keys {
		val, ok := set[key]
		if !ok {
			continue
		}
		switch key {
		case "node":
			f.Node, err = parseIndex(val)
		case "rail":
			f.Rail, err = parseIndex(val)
		case "from":
			var d sim.Duration
			d, err = parseDuration(val)
			f.From = sim.Time(d)
		case "until":
			if val == "forever" {
				f.Until = Forever
			} else {
				var d sim.Duration
				d, err = parseDuration(val)
				f.Until = sim.Time(d)
			}
		case "frac":
			f.Fraction, err = strconv.ParseFloat(val, 64)
		case "extra":
			f.Extra, err = parseDuration(val)
		case "period":
			f.Period, err = parseDuration(val)
		case "down":
			f.DownFor, err = parseDuration(val)
		}
		if err != nil {
			return f, fmt.Errorf("field %q: %w", key+"="+val, err)
		}
	}
	return f, nil
}

func parseIndex(s string) (int, error) {
	if s == "*" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("want a non-negative index or *, have %q", s)
	}
	return v, nil
}

func parseDuration(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("want a non-negative duration (e.g. 50us), have %q", s)
	}
	return sim.Duration(d.Nanoseconds()), nil
}

// specDuration renders a duration in the most compact unit Parse accepts.
func specDuration(d sim.Duration) string {
	switch {
	case d%sim.Millisecond == 0 && d != 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d%sim.Microsecond == 0 && d != 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

func specTime(t sim.Time) string { return specDuration(sim.Duration(t)) }
