// Package pricing models cloud-storage-tier price schedules: per-tier
// storage, operation, and retrieval prices plus the tier-transition fee that
// Eq. 9 of the MiniCost paper calls u_tran.
//
// A Policy is one datacenter's schedule. A workload spread over several
// datacenters is priced one datacenter at a time, each under its own Policy.
//
// The default schedule, Azure(), follows the structure and magnitudes of
// Microsoft Azure Block Blob pricing as quoted in the paper's introduction
// and the 2020 US-West list prices: hot storage is expensive to hold but
// cheap to access, archive the reverse.
package pricing

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Tier identifies a storage tier (the paper's storage "type").
type Tier int

// The three Azure tiers used throughout the paper. NumTiers is the paper's Γ.
const (
	Hot Tier = iota
	Cool
	Archive

	NumTiers = 3
)

var tierNames = [NumTiers]string{"hot", "cool", "archive"}

// String returns the lowercase tier name.
func (t Tier) String() string {
	if t < 0 || int(t) >= NumTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return tierNames[t]
}

// Valid reports whether t is one of the defined tiers.
func (t Tier) Valid() bool { return t >= 0 && int(t) < NumTiers }

// ParseTier converts a tier name ("hot", "cool"/"cold", "archive") to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "hot":
		return Hot, nil
	case "cool", "cold": // the paper says "cold"; Azure calls it "cool"
		return Cool, nil
	case "archive":
		return Archive, nil
	}
	return 0, fmt.Errorf("pricing: unknown tier %q", s)
}

// AllTiers lists every tier, in price-schedule order.
func AllTiers() []Tier { return []Tier{Hot, Cool, Archive} }

// TierPrice is the unit-price schedule of one tier.
//
// Storage is billed per GB-month ($/GB/month, the paper's up_j); operations
// per 10,000 calls (the paper's u_rf, u_wf are per-op unit prices — we keep
// the natural per-10k quote and convert); retrieval/ingress per GB (the
// paper's u_rs, u_ws).
type TierPrice struct {
	StoragePerGBMonth float64 `json:"storage_per_gb_month"`
	ReadPer10K        float64 `json:"read_per_10k"`
	WritePer10K       float64 `json:"write_per_10k"`
	RetrievalPerGB    float64 `json:"retrieval_per_gb"` // charged on reads
	IngressPerGB      float64 `json:"ingress_per_gb"`   // charged on writes
	// MinRetentionDays is the tier's minimum storage duration; leaving the
	// tier earlier can incur an early-deletion charge (an extension beyond
	// the paper's Eq. 9 model, off by default in the cost model).
	MinRetentionDays int `json:"min_retention_days"`
}

// Policy is one datacenter's full price schedule.
type Policy struct {
	Name  string              `json:"name"`
	Tiers [NumTiers]TierPrice `json:"tiers"`
	// TransitionPerGB is u_tran in Eq. 9: the one-time $/GB fee for changing
	// a file's tier.
	TransitionPerGB float64 `json:"transition_per_gb"`
}

// Azure returns the default Azure-Block-Blob-like schedule used by all
// experiments (see package comment for provenance).
func Azure() *Policy {
	return &Policy{
		Name: "azure-us-west-2020",
		Tiers: [NumTiers]TierPrice{
			Hot: {
				StoragePerGBMonth: 0.0184,
				ReadPer10K:        0.0044,
				WritePer10K:       0.055,
				RetrievalPerGB:    0,
				IngressPerGB:      0,
				MinRetentionDays:  0,
			},
			Cool: {
				StoragePerGBMonth: 0.01,
				ReadPer10K:        0.01,
				WritePer10K:       0.10,
				RetrievalPerGB:    0.01,
				IngressPerGB:      0,
				MinRetentionDays:  30,
			},
			Archive: {
				StoragePerGBMonth: 0.00099,
				ReadPer10K:        5.50,
				WritePer10K:       0.11,
				RetrievalPerGB:    0.022,
				IngressPerGB:      0,
				MinRetentionDays:  180,
			},
		},
		// A tier change in Azure is billed as write operations against the
		// destination plus (when leaving cool/archive) per-GB retrieval;
		// Eq. 9 models it as one symmetric per-GB fee. 0.0002 $/GB sits
		// between the near-free hot→cool direction and the retrieval-priced
		// cool→hot direction, and — deliberately — below the per-day
		// hot↔archive storage differential (~0.00057 $/GB-day), so that
		// tier changes can pay back within days and per-day policies face a
		// real churn-versus-hold tradeoff (see DESIGN.md §5).
		TransitionPerGB: 0.0002,
	}
}

// Validate checks the schedule for internal consistency: non-negative
// prices and the hot→archive structure (storage price non-increasing,
// access price non-decreasing) every real CSP schedule satisfies and the
// MDP's economics rely on.
func (p *Policy) Validate() error {
	if p == nil {
		return errors.New("pricing: nil policy")
	}
	for t, tp := range p.Tiers {
		if tp.StoragePerGBMonth < 0 || tp.ReadPer10K < 0 || tp.WritePer10K < 0 ||
			tp.RetrievalPerGB < 0 || tp.IngressPerGB < 0 || tp.MinRetentionDays < 0 {
			return fmt.Errorf("pricing: %s: negative price in tier %s", p.Name, Tier(t))
		}
	}
	for t := 1; t < NumTiers; t++ {
		prev, cur := p.Tiers[t-1], p.Tiers[t]
		if cur.StoragePerGBMonth > prev.StoragePerGBMonth {
			return fmt.Errorf("pricing: %s: storage price increases from %s to %s", p.Name, Tier(t-1), Tier(t))
		}
		if cur.ReadPer10K < prev.ReadPer10K {
			return fmt.Errorf("pricing: %s: read price decreases from %s to %s", p.Name, Tier(t-1), Tier(t))
		}
	}
	if p.TransitionPerGB < 0 {
		return fmt.Errorf("pricing: %s: negative transition price", p.Name)
	}
	return nil
}

// ReadOpPrice returns the per-operation read price of tier t (u_rf).
func (p *Policy) ReadOpPrice(t Tier) float64 { return p.Tiers[t].ReadPer10K / 10000 }

// WriteOpPrice returns the per-operation write price of tier t (u_wf).
func (p *Policy) WriteOpPrice(t Tier) float64 { return p.Tiers[t].WritePer10K / 10000 }

// DaysPerMonth converts monthly storage prices to daily ones; the Gregorian
// average keeps a 30/31-day month argument out of every experiment.
const DaysPerMonth = 30.44

// StoragePerGBDay returns the per-GB per-day storage price of tier t.
func (p *Policy) StoragePerGBDay(t Tier) float64 {
	return p.Tiers[t].StoragePerGBMonth / DaysPerMonth
}

// MarshalJSONIndent renders the policy as pretty JSON (for cmd tools).
func (p *Policy) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParsePolicy decodes a JSON policy and validates it.
func ParsePolicy(data []byte) (*Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("pricing: decode policy: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
