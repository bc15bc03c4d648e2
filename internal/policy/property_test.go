package policy

import (
	"testing"
	"testing/quick"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// randomTinyTrace builds a small random trace directly (bypassing the
// generator) so the property tests explore corners the calibrated generator
// never produces: single-day horizons, huge files, zero traffic.
func randomTinyTrace(seed uint64) *trace.Trace {
	r := rng.New(seed)
	files := 1 + r.Intn(6)
	days := 2 + r.Intn(6)
	tr := &trace.Trace{Days: days}
	for i := 0; i < files; i++ {
		tr.Files = append(tr.Files, trace.FileMeta{ID: i, SizeGB: 0.001 + r.Float64()*r.Float64()*50})
		reads := make([]float64, days)
		writes := make([]float64, days)
		for d := range reads {
			switch r.Intn(4) {
			case 0: // idle
			case 1:
				reads[d] = r.Float64()
			case 2:
				reads[d] = r.Float64() * 100
			default:
				reads[d] = r.Float64() * 100000
			}
			writes[d] = reads[d] * r.Float64() * 0.1
		}
		tr.Reads = append(tr.Reads, reads)
		tr.Writes = append(tr.Writes, writes)
	}
	return tr
}

// TestOptimalLowerBoundProperty: on random corner-case traces, Optimal's
// cost never exceeds any other policy's, under random initial tiers.
func TestOptimalLowerBoundProperty(t *testing.T) {
	m := costmodel.New(pricing.Azure())
	contenders := []Assigner{
		Static{Tier: pricing.Hot},
		Static{Tier: pricing.Cool},
		Static{Tier: pricing.Archive},
		Greedy{},
		Greedy{Oracle: true},
	}
	f := func(seed uint64, initRaw uint8) bool {
		tr := randomTinyTrace(seed)
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d: invalid fixture: %v", seed, err)
			return false
		}
		initial := pricing.Tier(initRaw % pricing.NumTiers)
		opt, err := bill(Optimal{}, tr, m, initial)
		if err != nil {
			return false
		}
		for _, c := range contenders {
			got, err := bill(c, tr, m, initial)
			if err != nil {
				return false
			}
			if opt.Total() > got.Total()+1e-9 {
				t.Logf("seed %d: optimal %v beaten by %s %v", seed, opt.Total(), c.Name(), got.Total())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalMatchesBruteForceOnRandomTraces extends the DP==brute-force
// equivalence to random multi-file fixtures with random initial tiers.
func TestOptimalMatchesBruteForceOnRandomTraces(t *testing.T) {
	m := costmodel.New(pricing.Azure())
	f := func(seed uint64, initRaw uint8) bool {
		tr := randomTinyTrace(seed)
		if tr.Days > MaxDays {
			return true
		}
		initial := pricing.Tier(initRaw % pricing.NumTiers)
		opt, err := bill(Optimal{}, tr, m, initial)
		if err != nil {
			return false
		}
		bf, err := bill(BruteForce{}, tr, m, initial)
		if err != nil {
			return false
		}
		diff := opt.Total() - bf.Total()
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-9*(1+bf.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyNeverStrandedProperty: greedy plans always bill finitely and
// keep valid tiers, even on degenerate traffic.
func TestGreedyNeverStrandedProperty(t *testing.T) {
	m := costmodel.New(pricing.Azure())
	f := func(seed uint64) bool {
		tr := randomTinyTrace(seed)
		asg, err := (Greedy{}).Assign(tr, m, pricing.Hot)
		if err != nil {
			return false
		}
		for i := range asg {
			if len(asg[i]) != tr.Days {
				return false
			}
			for _, tier := range asg[i] {
				if !tier.Valid() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
