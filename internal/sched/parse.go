package sched

import (
	"encoding/json"
	"fmt"
	"strings"

	"mha/internal/topology"
	"mha/internal/world"
)

// The serialized forms. Text is line-oriented, mirroring the fault-
// schedule spec language of internal/faults:
//
//	schedule ring nodes=2 ppn=2 hcas=2 layout=block msg=1024
//	step
//	xfer src=0 dst=1 first=0 count=1
//	xfer src=2 dst=3 first=2 count=2 off=0 len=512 via=rail rail=1
//	copy rank=0 first=0 count=4
//
// Omitted off/len mean the whole range; omitted via means auto. Blank
// lines and '#' comments are skipped; a trailing "# ..." on any line is
// stripped. JSON is the same structure with lowercase keys; Parse
// dispatches on a leading '{'.

// jsonSchedule is the JSON shape of a Schedule.
type jsonSchedule struct {
	Name   string     `json:"name"`
	Nodes  int        `json:"nodes"`
	PPN    int        `json:"ppn"`
	HCAs   int        `json:"hcas"`
	Layout string     `json:"layout"`
	Msg    int        `json:"msg"`
	Blocks int        `json:"blocks,omitempty"`
	Steps  []jsonStep `json:"steps"`
}

type jsonStep struct {
	Xfers  []jsonXfer `json:"xfers,omitempty"`
	Copies []jsonCopy `json:"copies,omitempty"`
}

type jsonXfer struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	First int    `json:"first"`
	Count int    `json:"count"`
	Off   *int   `json:"off,omitempty"`
	Len   *int   `json:"len,omitempty"`
	Via   string `json:"via,omitempty"`
	Rail  int    `json:"rail,omitempty"`
	Red   bool   `json:"red,omitempty"`
}

type jsonCopy struct {
	Rank  int `json:"rank"`
	First int `json:"first"`
	Count int `json:"count"`
}

// JSON renders the schedule as indented JSON (the machine-readable
// counterpart of String, accepted back by Parse).
func (s *Schedule) JSON() ([]byte, error) {
	js := jsonSchedule{
		Name:   s.Name,
		Nodes:  s.Topo.Nodes,
		PPN:    s.Topo.PPN,
		HCAs:   s.Topo.HCAs,
		Layout: s.Topo.Layout.String(),
		Msg:    s.Msg,
		Blocks: s.NumBlocks,
	}
	for _, st := range s.Steps {
		jst := jsonStep{}
		for _, t := range st.Xfers {
			jx := jsonXfer{Src: t.Src, Dst: t.Dst, First: t.First, Count: t.Count, Rail: t.Rail, Red: t.Red}
			if !t.Whole(s.Msg) {
				off, n := t.Off, t.Len
				jx.Off, jx.Len = &off, &n
			}
			if t.Via != ViaAuto {
				jx.Via = t.Via.String()
			}
			jst.Xfers = append(jst.Xfers, jx)
		}
		for _, cp := range st.Copies {
			jst.Copies = append(jst.Copies, jsonCopy{Rank: cp.Rank, First: cp.First, Count: cp.Count})
		}
		js.Steps = append(js.Steps, jst)
	}
	return json.MarshalIndent(js, "", "  ")
}

// Parse reads a schedule in the text form produced by String, or in JSON
// when the input starts with '{'. The result is shape-validated; run
// Analyze for the semantic checks.
func Parse(text string) (*Schedule, error) {
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "{") {
		return parseJSON(trimmed)
	}
	return parseText(text)
}

func parseJSON(text string) (*Schedule, error) {
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	var js jsonSchedule
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("sched: bad JSON: %v", err)
	}
	layout, err := world.ParseLayout(js.Layout)
	if err != nil {
		return nil, fmt.Errorf("sched: %v", err)
	}
	s := &Schedule{
		Name:      js.Name,
		Topo:      topology.Cluster{Nodes: js.Nodes, PPN: js.PPN, HCAs: js.HCAs, Layout: layout},
		Msg:       js.Msg,
		NumBlocks: js.Blocks,
	}
	if s.Name == "" {
		return nil, fmt.Errorf("sched: schedule has no name")
	}
	for si, jst := range js.Steps {
		st := Step{}
		for xi, jx := range jst.Xfers {
			t := Transfer{Src: jx.Src, Dst: jx.Dst, First: jx.First, Count: jx.Count, Rail: jx.Rail, Red: jx.Red}
			if (jx.Off == nil) != (jx.Len == nil) {
				return nil, fmt.Errorf("sched: step %d xfer %d: off and len must appear together", si, xi)
			}
			if jx.Off != nil {
				t.Off, t.Len = *jx.Off, *jx.Len
			} else {
				t.Len = t.Count * s.Msg
			}
			if jx.Via != "" {
				if t.Via, err = parseVia(jx.Via); err != nil {
					return nil, fmt.Errorf("sched: step %d xfer %d: %v", si, xi, err)
				}
			}
			st.Xfers = append(st.Xfers, t)
		}
		for _, jc := range jst.Copies {
			st.Copies = append(st.Copies, Copy{Rank: jc.Rank, First: jc.First, Count: jc.Count})
		}
		s.Steps = append(s.Steps, st)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseText(text string) (*Schedule, error) {
	var s *Schedule
	inStep := false
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		at := fmt.Sprintf("sched: line %d", ln+1)
		switch fields[0] {
		case "schedule":
			if s != nil {
				return nil, fmt.Errorf("%s: duplicate schedule header", at)
			}
			if len(fields) < 2 || strings.ContainsRune(fields[1], '=') {
				return nil, fmt.Errorf("%s: schedule header needs a name", at)
			}
			kv, err := world.Tokenize(fields[2:], "nodes", "ppn", "hcas", "layout", "msg", "blocks")
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			layout, err := world.ParseLayout(kv.Str("layout", "block"))
			s = &Schedule{Name: fields[1], Msg: kv.Int("msg", -1, &err), NumBlocks: kv.Int("blocks", 0, &err),
				Topo: topology.Cluster{Nodes: kv.Int("nodes", -1, &err), PPN: kv.Int("ppn", -1, &err),
					HCAs: kv.Int("hcas", 1, &err), Layout: layout}}
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
		case "step":
			if s == nil {
				return nil, fmt.Errorf("%s: step before schedule header", at)
			}
			if len(fields) != 1 {
				return nil, fmt.Errorf("%s: step takes no arguments", at)
			}
			s.Steps = append(s.Steps, Step{})
			inStep = true
		case "xfer":
			if !inStep {
				return nil, fmt.Errorf("%s: xfer outside a step", at)
			}
			kv, err := world.Tokenize(fields[1:], "src", "dst", "first", "count", "off", "len", "via", "rail", "red")
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			t := Transfer{Src: kv.Int("src", -1, &err), Dst: kv.Int("dst", -1, &err),
				First: kv.Int("first", -1, &err), Count: kv.Int("count", -1, &err)}
			t.Off, t.Len = kv.Int("off", 0, &err), kv.Int("len", t.Count*s.Msg, &err)
			t.Rail, t.Red = kv.Int("rail", 0, &err), kv.Int("red", 0, &err) != 0
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			_, hasOff := kv.Get("off")
			if _, hasLen := kv.Get("len"); hasOff != hasLen {
				return nil, fmt.Errorf("%s: off and len must appear together", at)
			}
			if t.Via, err = parseVia(kv.Str("via", "auto")); err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			st := &s.Steps[len(s.Steps)-1]
			st.Xfers = append(st.Xfers, t)
		case "copy":
			if !inStep {
				return nil, fmt.Errorf("%s: copy outside a step", at)
			}
			kv, err := world.Tokenize(fields[1:], "rank", "first", "count")
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			cp := Copy{Rank: kv.Int("rank", -1, &err), First: kv.Int("first", -1, &err), Count: kv.Int("count", -1, &err)}
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			st := &s.Steps[len(s.Steps)-1]
			st.Copies = append(st.Copies, cp)
		default:
			return nil, fmt.Errorf("%s: unknown directive %q", at, fields[0])
		}
	}
	if s == nil {
		return nil, fmt.Errorf("sched: empty input")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
