package compose

import (
	"fmt"
	"strings"

	"mha/internal/world"
)

// The composition spec is line-oriented, mirroring the sched text form:
//
//	compose rs-mha coll=reduce-scatter
//	red scope=node
//	red scope=leaders alg=ring
//	mc scope=node alg=pull
//
// A primitive line is its op ("mc", "red" or "fence") followed by
// key=value fields; "fence" takes none. Blank lines and '#' comments
// are skipped. String is the canonical renderer and
// String(ParseComposition(String(c))) is a fixed point.

// String renders the canonical text form.
func (c Composition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compose %s coll=%s\n", c.Name, c.Coll)
	for _, pr := range c.Pipeline {
		b.WriteString(pr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one primitive line.
func (pr Prim) String() string {
	if pr.Op == Fence {
		return "fence"
	}
	s := fmt.Sprintf("%s scope=%s alg=%s", pr.Op, pr.Scope, pr.Alg)
	if pr.Striped {
		s += " striped=1"
	}
	if pr.Offload != 0 {
		if pr.Offload == AutoOffload {
			s += " offload=auto"
		} else {
			s += fmt.Sprintf(" offload=%d", pr.Offload)
		}
	}
	return s
}

// ParseComposition reads the text form String produces. The result is
// shape-checked (known ops, scopes and algs; a non-empty pipeline);
// whether the pipeline actually lowers for a machine is Lower's job.
func ParseComposition(text string) (Composition, error) {
	var c Composition
	seen := false
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		at := fmt.Sprintf("compose: line %d", ln+1)
		switch fields[0] {
		case "compose":
			if seen {
				return c, fmt.Errorf("%s: duplicate compose header", at)
			}
			if len(fields) < 2 || strings.ContainsRune(fields[1], '=') {
				return c, fmt.Errorf("%s: compose header needs a name", at)
			}
			kv, err := world.Tokenize(fields[2:], "coll")
			if err != nil {
				return c, fmt.Errorf("%s: %v", at, err)
			}
			coll, err := ParseCollective(kv.Str("coll", ""))
			if err != nil {
				return c, fmt.Errorf("%s: %v", at, err)
			}
			c.Name, c.Coll = fields[1], coll
			seen = true
		case "mc", "red":
			if !seen {
				return c, fmt.Errorf("%s: primitive before compose header", at)
			}
			kv, err := world.Tokenize(fields[1:], "scope", "alg", "striped", "offload")
			if err != nil {
				return c, fmt.Errorf("%s: %v", at, err)
			}
			pr := Prim{Op: Multicast}
			if fields[0] == "red" {
				pr.Op = Reduce
			}
			if pr.Scope, err = parseScope(kv.Str("scope", "world")); err != nil {
				return c, fmt.Errorf("%s: %v", at, err)
			}
			if pr.Alg, err = parseAlg(kv.Str("alg", "direct")); err != nil {
				return c, fmt.Errorf("%s: %v", at, err)
			}
			pr.Striped = kv.Int("striped", 0, &err) != 0
			if off := kv.Str("offload", "0"); off == "auto" {
				pr.Offload = AutoOffload
			} else {
				pr.Offload = kv.Int("offload", 0, &err)
			}
			if err != nil {
				return c, fmt.Errorf("%s: %v", at, err)
			}
			if pr.Offload < AutoOffload {
				return c, fmt.Errorf("%s: offload %d out of range", at, pr.Offload)
			}
			c.Pipeline = append(c.Pipeline, pr)
		case "fence":
			if !seen {
				return c, fmt.Errorf("%s: primitive before compose header", at)
			}
			if len(fields) != 1 {
				return c, fmt.Errorf("%s: fence takes no arguments", at)
			}
			c.Pipeline = append(c.Pipeline, Prim{Op: Fence})
		default:
			return c, fmt.Errorf("%s: unknown directive %q", at, fields[0])
		}
	}
	if !seen {
		return c, fmt.Errorf("compose: empty input")
	}
	if len(c.Pipeline) == 0 {
		return c, fmt.Errorf("compose: %s has no primitives", c.Name)
	}
	return c, nil
}
