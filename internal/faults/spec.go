package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mha/internal/sim"
	"mha/internal/world"
)

// Parse reads the textual fault-schedule format: one fault per line,
//
//	down    node=0 rail=1 from=10us until=2ms
//	degrade node=* rail=1 frac=0.5
//	latency node=2 rail=* extra=5us from=1ms
//	flap    node=1 rail=0 period=200us down=50us until=forever
//
// Keys may appear in any order, each at most once. node/rail default to * (every node/rail),
// from defaults to 0 and until to forever. Durations use Go syntax
// (ns/us/ms/s). Blank lines and #-comments are skipped.
func Parse(text string) (*Schedule, error) {
	var fs []Fault
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		f, err := parseFault(fields)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", ln+1, err)
		}
		fs = append(fs, f)
	}
	return New(fs...)
}

func parseFault(fields []string) (Fault, error) {
	f := Fault{Node: AllNodes, Rail: AllRails, Until: Forever}
	switch fields[0] {
	case "down":
		f.Kind = Down
	case "degrade":
		f.Kind = Degrade
	case "latency":
		f.Kind = Latency
	case "flap":
		f.Kind = Flap
	default:
		return f, fmt.Errorf("unknown fault kind %q (want down|degrade|latency|flap)", fields[0])
	}
	kvs, err := world.Tokenize(fields[1:], "node", "rail", "from", "until", "frac", "extra", "period", "down")
	if err != nil {
		return f, err
	}
	for _, kv := range kvs {
		switch kv.Key {
		case "node":
			f.Node, err = parseIndex(kv.Val)
		case "rail":
			f.Rail, err = parseIndex(kv.Val)
		case "from":
			var d sim.Duration
			d, err = parseDuration(kv.Val)
			f.From = sim.Time(d)
		case "until":
			if kv.Val == "forever" {
				f.Until = Forever
			} else {
				var d sim.Duration
				d, err = parseDuration(kv.Val)
				f.Until = sim.Time(d)
			}
		case "frac":
			f.Fraction, err = strconv.ParseFloat(kv.Val, 64)
		case "extra":
			f.Extra, err = parseDuration(kv.Val)
		case "period":
			f.Period, err = parseDuration(kv.Val)
		case "down":
			f.DownFor, err = parseDuration(kv.Val)
		}
		if err != nil {
			return f, fmt.Errorf("field %q: %w", kv.Key+"="+kv.Val, err)
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
