package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function during the traced
// in-process replay. Spans of one request share Req; Parent is the index of
// the span that caused this one (-1 for a request root). A shadow span did
// not run inside its parent's interval: it re-times work the parent does
// internally (Agent.DecideBatch inside Server.BuildPlan cannot be wrapped
// from outside) and is subtracted from the parent like a nested child.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Req     int32  `json:"req"`
	Shadow  bool   `json:"shadow,omitempty"`
}

// recorder keeps spans in memory until write. A nil recorder records
// nothing, which is how the untraced replay that prices the tracer's own
// overhead runs the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, req int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNS: time.Since(r.t0).Nanoseconds(), Parent: parent, Req: req})
	return int32(len(r.spans) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = time.Since(r.t0).Nanoseconds()
}

// shadow records an already-measured duration as a shadow child of parent.
func (r *recorder) shadow(name string, parent, req int32, d time.Duration) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{Name: name, StartNS: now - d.Nanoseconds(), EndNS: now, Parent: parent, Req: req, Shadow: true})
}

// selfMS returns, per span name, every span's self time in ms: its duration
// minus what its children (nested or shadow) cover. keep filters spans by
// request id; nil keeps all.
func (r *recorder) selfMS(keep func(req int32) bool) map[string][]float64 {
	if r == nil {
		return nil
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		if keep != nil && !keep(s.Req) {
			continue
		}
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-child[i])/1e6)
	}
	return out
}

// write dumps the spans to benchmark/out/trace-<workload>.json.
func (r *recorder) write(root, workload string) error {
	dir, err := outDir(root)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
