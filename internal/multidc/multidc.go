// Package multidc extends MiniCost to workloads spread across multiple
// datacenters / CSPs, each with its own pricing policy — the paper's §4.1
// setting ("data files are distributed among one or multiple CSPs'
// datacenters, denoted by the set Ds; each datacenter has its own pricing
// policy") and its §4.2.1 remark that the formulation extends to more
// providers.
//
// The design exploits per-file separability: a trace is partitioned by each
// file's datacenter, every partition is evaluated under its own cost model,
// and the bills add. Any policy.Assigner works unchanged per partition.
package multidc

import (
	"errors"
	"fmt"
	"sort"

	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// Deployment maps datacenter IDs to price schedules. Files whose
// FileMeta.Datacenter is empty use Default.
type Deployment struct {
	catalog *pricing.Catalog
	models  map[string]*costmodel.Model
	// Default is the datacenter used for files without one.
	Default string
}

// New builds a deployment. The default datacenter must be registered in the
// catalog.
func New(catalog *pricing.Catalog, defaultDC string) (*Deployment, error) {
	if catalog == nil || catalog.Len() == 0 {
		return nil, errors.New("multidc: empty catalog")
	}
	if _, ok := catalog.Get(defaultDC); !ok {
		return nil, fmt.Errorf("multidc: default datacenter %q not in catalog", defaultDC)
	}
	models := make(map[string]*costmodel.Model, catalog.Len())
	for _, dc := range catalog.Datacenters() {
		p, _ := catalog.Get(dc)
		models[dc] = costmodel.New(p)
	}
	return &Deployment{catalog: catalog, models: models, Default: defaultDC}, nil
}

// Model returns the cost model of a file's datacenter.
func (d *Deployment) Model(meta trace.FileMeta) (*costmodel.Model, error) {
	dc := meta.Datacenter
	if dc == "" {
		dc = d.Default
	}
	m, ok := d.models[dc]
	if !ok {
		return nil, fmt.Errorf("multidc: file %d in unknown datacenter %q", meta.ID, dc)
	}
	return m, nil
}

// Datacenters lists the registered datacenter IDs, sorted.
func (d *Deployment) Datacenters() []string {
	out := d.catalog.Datacenters()
	sort.Strings(out)
	return out
}

// Partition splits a trace by datacenter; the map values are Subset traces
// (groups spanning datacenters are dropped by Subset's containment rule,
// which is also physically right: a replica cannot span datacenters).
func (d *Deployment) Partition(tr *trace.Trace) (map[string]*trace.Trace, error) {
	byDC := make(map[string][]int)
	for i, f := range tr.Files {
		dc := f.Datacenter
		if dc == "" {
			dc = d.Default
		}
		if _, ok := d.models[dc]; !ok {
			return nil, fmt.Errorf("multidc: file %d in unknown datacenter %q", f.ID, dc)
		}
		byDC[dc] = append(byDC[dc], i)
	}
	out := make(map[string]*trace.Trace, len(byDC))
	//minicost:allow-maprange builds a map from a map; per-DC subsets are order-independent
	for dc, idx := range byDC {
		out[dc] = tr.Subset(idx)
	}
	return out, nil
}

// Bill is one datacenter's share of an evaluation.
type Bill struct {
	Datacenter string
	Files      int
	Cost       costmodel.Breakdown
}

// Evaluate runs an assigner independently in every datacenter (each under
// its own prices) and returns the per-datacenter bills plus the total.
func (d *Deployment) Evaluate(a policy.Assigner, tr *trace.Trace, initial pricing.Tier) ([]Bill, costmodel.Breakdown, error) {
	parts, err := d.Partition(tr)
	if err != nil {
		return nil, costmodel.Breakdown{}, err
	}
	dcs := make([]string, 0, len(parts))
	//minicost:allow-maprange keys are sorted before use
	for dc := range parts {
		dcs = append(dcs, dc)
	}
	sort.Strings(dcs)
	var bills []Bill
	var total costmodel.Breakdown
	for _, dc := range dcs {
		part := parts[dc]
		board, err := policy.Score(d.models[dc], part, initial, 0, a)
		if err != nil {
			return nil, costmodel.Breakdown{}, fmt.Errorf("multidc: %s: %w", dc, err)
		}
		bd := board[0].Total
		bills = append(bills, Bill{Datacenter: dc, Files: part.NumFiles(), Cost: bd})
		total = total.Add(bd)
	}
	return bills, total, nil
}

// CheapestPlacement is a placement advisor (an extension the paper's
// related-work section motivates via SPANStore): for each file it reports
// the datacenter whose prices minimize the file's offline-optimal cost.
// Moving data between providers is out of scope — the result quantifies the
// placement headroom, it does not execute moves.
func (d *Deployment) CheapestPlacement(tr *trace.Trace, initial pricing.Tier) ([]string, float64, error) {
	if !initial.Valid() {
		return nil, 0, fmt.Errorf("multidc: invalid initial tier %d", int(initial))
	}
	placement := make([]string, tr.NumFiles())
	total := 0.0
	dcs := d.Datacenters()
	for i := 0; i < tr.NumFiles(); i++ {
		best := ""
		bestCost := 0.0
		for _, dc := range dcs {
			_, cost := policy.OptimalPlan(d.models[dc], tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], initial)
			if best == "" || cost < bestCost {
				best, bestCost = dc, cost
			}
		}
		placement[i] = best
		total += bestCost
	}
	return placement, total, nil
}

// AssignDatacenters deterministically spreads a trace's files across the
// given datacenters (round-robin over file index), returning a copy. Use it
// to turn a single-datacenter synthetic trace into a multi-DC workload.
func AssignDatacenters(tr *trace.Trace, dcs []string) (*trace.Trace, error) {
	if len(dcs) == 0 {
		return nil, errors.New("multidc: no datacenters to assign")
	}
	idx := make([]int, tr.NumFiles())
	for i := range idx {
		idx[i] = i
	}
	out := tr.Subset(idx) // deep-enough copy with re-indexed metadata
	for i := range out.Files {
		out.Files[i].Datacenter = dcs[i%len(dcs)]
	}
	return out, nil
}
