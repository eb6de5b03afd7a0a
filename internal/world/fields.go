package world

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// A Field is one key=value token of a spec line.
type Field struct{ Key, Val string }

// Fields are one line's key=value tokens in input order.
type Fields []Field

// Tokenize splits whitespace-separated "k=v" fields for every key=value
// grammar in the repo (world, hierarchy, repro-spec, schedule,
// composition and fault lines). Malformed fields (no '=', empty key or
// value), unknown keys and repeated keys are errors, so a line has one
// reading.
func Tokenize(fields []string, allowed ...string) (Fields, error) {
	out := make(Fields, 0, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		switch _, dup := out.Get(k); {
		case !ok || k == "" || v == "":
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		case !slices.Contains(allowed, k):
			return nil, fmt.Errorf("unknown key %q", k)
		case dup:
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		out = append(out, Field{k, v})
	}
	return out, nil
}

// Get returns the value of key k and whether it was given.
func (fs Fields) Get(k string) (string, bool) {
	for _, f := range fs {
		if f.Key == k {
			return f.Val, true
		}
	}
	return "", false
}

// Str returns the value of key k, or def when it was not given.
func (fs Fields) Str(k, def string) string {
	if v, ok := fs.Get(k); ok {
		return v
	}
	return def
}

// Int parses the value of key k as an integer, or returns def when it
// was not given. A parse failure is stored in *err unless it already
// holds one, so a run of Int calls reports the first bad field.
func (fs Fields) Int(k string, def int, err *error) int {
	v, ok := fs.Get(k)
	if !ok {
		return def
	}
	n, perr := atoi(k, v)
	if *err == nil {
		*err = perr
	}
	return n
}

func atoi(k, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", k, v)
	}
	return n, nil
}
