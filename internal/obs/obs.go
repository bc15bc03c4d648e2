// Package obs is the repo's zero-dependency metrics and telemetry spine:
// atomic Counter and Gauge, a sharded lock-cheap Histogram with quantile
// summaries, and a Timer, all behind a named Registry with a Prometheus
// text-format exposition handler (Handler) and a programmatic Snapshot API
// so tests assert on metrics without scraping text.
//
// The package-global Default registry starts DISABLED: every metric op on a
// disabled registry is a single atomic bool load and an early return, so
// instrumented hot paths (serving, training) pay nothing until
// a daemon opts in with Default().SetEnabled(true). cmd/minicostd does; the
// experiment and bench binaries do not. BenchmarkDisabled* in obs and
// BenchmarkObsOverhead in agentserver guard that contract.
//
// Naming scheme (DESIGN.md §12): minicost_<subsystem>_<what>[_<unit>] with
// subsystems such as http, serve, train and online. Counters end in _total,
// durations are _seconds, money is _dollars; constant labels pick out a
// family member (e.g. minicost_http_requests_total{endpoint="plan"}).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a metric at creation.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is what every concrete type contributes to a collection pass.
type metric interface {
	id() metricID
	help() string
	// collect appends the metric's current samples to the snapshot.
	collect(s *Snapshot)
}

// metricID keys a registry entry: family name plus the rendered label set.
type metricID struct {
	name   string
	labels string // pre-rendered `k="v",k2="v2"` (sorted), "" when unlabeled
}

// String renders the exposition sample name: name or name{labels}.
func (id metricID) String() string {
	if id.labels == "" {
		return id.name
	}
	return id.name + "{" + id.labels + "}"
}

// Registry is a named collection of metrics. The zero value is not usable;
// create with NewRegistry or use the process-wide Default.
type Registry struct {
	on atomic.Bool

	mu      sync.Mutex
	metrics map[metricID]metric
	order   []metricID // registration order, families kept contiguous at scrape
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{metrics: make(map[metricID]metric)}
	r.on.Store(true)
	return r
}

var defaultRegistry = func() *Registry {
	r := NewRegistry()
	r.on.Store(false) // default-off: hot paths pay nothing until a daemon opts in
	return r
}()

// Default returns the process-wide registry every built-in instrumentation
// point records into. It starts disabled.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns recording on or off. Disabled metric ops return after one
// atomic load; collection (Snapshot, Handler) works either way.
func (r *Registry) SetEnabled(on bool) { r.on.Store(on) }

// Enabled reports whether metric ops record.
func (r *Registry) Enabled() bool { return r.on.Load() }

// renderLabels validates and renders a label set sorted by key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := ""
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return out
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func escapeLabelValue(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// lookup returns the existing metric for id or registers the one built by
// mk. Re-registering an id as a different concrete kind panics: that is a
// programming error the first scrape would otherwise hide.
func (r *Registry) lookup(name, help string, labels []Label, mk func(id metricID) metric) metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	id := metricID{name: name, labels: renderLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		return m
	}
	m := mk(id)
	r.metrics[id] = m
	r.order = append(r.order, id)
	return m
}

// Counter returns (registering on first use) the named monotonic counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.lookup(name, help, labels, func(id metricID) metric {
		return &Counter{meta: meta{mid: id, mhelp: help, reg: r}}
	})
	c, ok := m.(*Counter)
	if !ok {
		panic("obs: " + name + " already registered as a different kind")
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.lookup(name, help, labels, func(id metricID) metric {
		return &Gauge{meta: meta{mid: id, mhelp: help, reg: r}}
	})
	g, ok := m.(*Gauge)
	if !ok {
		panic("obs: " + name + " already registered as a different kind")
	}
	return g
}

// GaugeFunc registers (or re-points) a gauge whose value is computed by fn
// at collection time — for derived values like staleness or rates. fn must
// be safe to call from any goroutine. Re-registering the same id replaces
// the callback: the newest owner (e.g. the latest trainer) wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.lookup(name, help, labels, func(id metricID) metric {
		return &gaugeFunc{meta: meta{mid: id, mhelp: help, reg: r}}
	})
	gf, ok := m.(*gaugeFunc)
	if !ok {
		panic("obs: " + name + " already registered as a different kind")
	}
	gf.fn.Store(&fn)
}

// Histogram returns (registering on first use) the named histogram with the
// given upper bucket bounds (strictly increasing; +Inf is implicit). A nil
// bounds slice uses DefSecondsBuckets. Bounds are fixed by the first
// registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	m := r.lookup(name, help, labels, func(id metricID) metric {
		return newHistogram(meta{mid: id, mhelp: help, reg: r}, bounds)
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic("obs: " + name + " already registered as a different kind")
	}
	return h
}

// Timer returns (registering on first use) a duration histogram in seconds.
func (r *Registry) Timer(name, help string, labels ...Label) *Timer {
	return &Timer{h: r.Histogram(name, help, DefSecondsBuckets, labels...)}
}

// collectLocked snapshots every metric in registration order.
func (r *Registry) snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	r.mu.Lock()
	ids := append([]metricID(nil), r.order...)
	ms := make([]metric, len(ids))
	for i, id := range ids {
		ms[i] = r.metrics[id]
	}
	r.mu.Unlock()
	// Collect outside the registry lock: GaugeFunc callbacks may take
	// arbitrary locks of their own (e.g. the agentserver state mutex), and
	// holding r.mu across them invites ordering deadlocks.
	for _, m := range ms {
		m.collect(s)
	}
	return s
}

// Snapshot returns the current value of every registered metric. It is safe
// to call concurrently with metric writes (values are read atomically per
// cell; a histogram's count/sum/buckets are each atomically read but not
// mutually sequenced, so a concurrent Observe may appear in one and not yet
// the others — quantile math tolerates that).
func (r *Registry) Snapshot() *Snapshot { return r.snapshot() }
