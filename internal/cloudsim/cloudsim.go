// Package cloudsim simulates the CSP side of the MiniCost system: an object
// store holding data files (and, for the aggregation enhancement, replica
// objects) in priced tiers, with a billing meter that accrues the paper's
// four cost components day by day.
//
// The simulator is the "environment" of Fig. 5: policies act on it by
// setting tiers, the trace drives requests through ServeDay, and the meter
// is the ground truth every experiment reports.
package cloudsim

import (
	"errors"
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/obs"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// simMetrics are the simulator's obs instruments (DESIGN.md §12), shared by
// every Store in the process and registered eagerly so the sim family is
// visible on /metrics from process start. The default registry is off
// outside daemons, so the per-day recording costs one atomic load each.
var simMet = func() (m struct {
	tierChanges *obs.Counter
	readOps     *obs.Counter
	writeOps    *obs.Counter
	days        *obs.Counter
	accrued     *obs.Gauge
}) {
	reg := obs.Default()
	m.tierChanges = reg.Counter("minicost_sim_tier_changes_total",
		"Executed tier transitions across all simulated stores.")
	m.readOps = reg.Counter("minicost_sim_read_ops_total",
		"Read requests served by the simulated stores.")
	m.writeOps = reg.Counter("minicost_sim_write_ops_total",
		"Write requests served by the simulated stores.")
	m.days = reg.Counter("minicost_sim_days_total",
		"Simulated billing days served across all stores.")
	m.accrued = reg.Gauge("minicost_sim_accrued_cost_dollars",
		"Cumulative simulated bill (all four Eq. 5 components) across all stores.")
	return m
}()

// ObjectID identifies an object (file or replica) inside a Store.
type ObjectID int

// Object is the mutable state of one stored object.
type Object struct {
	SizeGB float64
	Tier   pricing.Tier
	// Replica marks aggregation replicas (extra objects the enhancement
	// creates); Members lists the file objects aggregated into it.
	Replica bool
	Members []ObjectID
	alive   bool
}

// Store simulates one datacenter's object store under a price policy.
type Store struct {
	model   *costmodel.Model
	objects []Object
	day     int
	// pendingTransition accrues Eq. 9 charges since the last ServeDay; they
	// are folded into that day's bill, mirroring how a tier change made "for
	// the next time step" is billed with it.
	pendingTransition float64
	ledger            []costmodel.Breakdown
}

// NewStore returns an empty store billing under model.
func NewStore(model *costmodel.Model) *Store {
	return &Store{model: model}
}

// FromTrace builds a store containing one object per trace file, all placed
// in the given initial tier, and returns the store plus the per-file
// ObjectIDs (which equal the file indices).
func FromTrace(model *costmodel.Model, tr *trace.Trace, initial pricing.Tier) (*Store, []ObjectID) {
	s := NewStore(model)
	ids := make([]ObjectID, tr.NumFiles())
	for i, f := range tr.Files {
		ids[i] = s.AddObject(f.SizeGB, initial)
	}
	return s, ids
}

// AddObject stores a new object and returns its id. Adding an object does
// not bill a transition (uploads are billed as write operations by the
// caller, matching Eqs. 7–8 where reallocation traffic is ordinary
// requests).
func (s *Store) AddObject(sizeGB float64, tier pricing.Tier) ObjectID {
	if sizeGB <= 0 {
		panic("cloudsim: non-positive object size")
	}
	if !tier.Valid() {
		panic("cloudsim: invalid tier")
	}
	s.objects = append(s.objects, Object{SizeGB: sizeGB, Tier: tier, alive: true})
	return ObjectID(len(s.objects) - 1)
}

// AddReplica stores an aggregation replica covering the given member files.
// Its size is the sum of member sizes (the aggregated file contains a copy
// of each member, §5.2).
func (s *Store) AddReplica(members []ObjectID, tier pricing.Tier) (ObjectID, error) {
	if len(members) < 2 {
		return 0, errors.New("cloudsim: replica needs at least 2 members")
	}
	size := 0.0
	for _, m := range members {
		o, err := s.object(m)
		if err != nil {
			return 0, err
		}
		if o.Replica {
			return 0, fmt.Errorf("cloudsim: replica member %d is itself a replica", m)
		}
		size += o.SizeGB
	}
	id := s.AddObject(size, tier)
	s.objects[id].Replica = true
	s.objects[id].Members = append([]ObjectID(nil), members...)
	return id, nil
}

// RemoveObject deletes an object; its storage stops accruing from the next
// ServeDay.
func (s *Store) RemoveObject(id ObjectID) error {
	o, err := s.object(id)
	if err != nil {
		return err
	}
	o.alive = false
	return nil
}

func (s *Store) object(id ObjectID) (*Object, error) {
	if id < 0 || int(id) >= len(s.objects) {
		return nil, fmt.Errorf("cloudsim: unknown object %d", id)
	}
	if !s.objects[id].alive {
		return nil, fmt.Errorf("cloudsim: object %d was removed", id)
	}
	return &s.objects[id], nil
}

// Tier returns an object's current tier.
func (s *Store) Tier(id ObjectID) (pricing.Tier, error) {
	o, err := s.object(id)
	if err != nil {
		return 0, err
	}
	return o.Tier, nil
}

// Get returns a copy of the object's state.
func (s *Store) Get(id ObjectID) (Object, error) {
	o, err := s.object(id)
	if err != nil {
		return Object{}, err
	}
	return *o, nil
}

// Alive reports whether id names a live object.
func (s *Store) Alive(id ObjectID) bool {
	return id >= 0 && int(id) < len(s.objects) && s.objects[id].alive
}

// NumObjects returns the total number of slots (live and removed); valid
// ObjectIDs are [0, NumObjects).
func (s *Store) NumObjects() int { return len(s.objects) }

// SetTier changes an object's tier, billing Eq. 9 into the next day's bill.
// Setting the current tier is a no-op.
func (s *Store) SetTier(id ObjectID, tier pricing.Tier) error {
	if !tier.Valid() {
		return fmt.Errorf("cloudsim: invalid tier %d", int(tier))
	}
	o, err := s.object(id)
	if err != nil {
		return err
	}
	if o.Tier == tier {
		return nil
	}
	s.pendingTransition += s.model.TransitionCost(o.Tier, tier, o.SizeGB)
	o.Tier = tier
	simMet.tierChanges.Inc()
	return nil
}

// ServeDay bills one day: storage for every live object, read/write
// operation costs for the given per-object frequencies, plus any tier
// transitions accrued since the previous day. reads and writes are indexed
// by ObjectID and may be shorter than NumObjects (missing entries mean 0);
// entries for removed objects must be 0.
func (s *Store) ServeDay(reads, writes []float64) (costmodel.Breakdown, error) {
	var bd costmodel.Breakdown
	bd.Transition = s.pendingTransition
	s.pendingTransition = 0
	var rSum, wSum float64
	for id := range s.objects {
		o := &s.objects[id]
		r, w := at(reads, id), at(writes, id)
		if !o.alive {
			if r != 0 || w != 0 {
				return costmodel.Breakdown{}, fmt.Errorf("cloudsim: requests for removed object %d", id)
			}
			continue
		}
		if r < 0 || w < 0 {
			return costmodel.Breakdown{}, fmt.Errorf("cloudsim: negative request count for object %d", id)
		}
		rSum += r
		wSum += w
		bd.Storage += s.model.StorageDay(o.Tier, o.SizeGB)
		bd.Read += s.model.ReadCost(o.Tier, o.SizeGB, r)
		bd.Write += s.model.WriteCost(o.Tier, o.SizeGB, w)
	}
	s.ledger = append(s.ledger, bd)
	s.day++
	simMet.days.Inc()
	simMet.readOps.Add(rSum)
	simMet.writeOps.Add(wSum)
	simMet.accrued.Add(bd.Total())
	return bd, nil
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// Day returns the number of days served so far.
func (s *Store) Day() int { return s.day }

// Ledger returns the per-day bills (a copy).
func (s *Store) Ledger() []costmodel.Breakdown {
	return append([]costmodel.Breakdown(nil), s.ledger...)
}

// TotalBill returns the cumulative bill.
func (s *Store) TotalBill() costmodel.Breakdown {
	return costmodel.SumBreakdowns(s.ledger)
}
