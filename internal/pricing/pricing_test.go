package pricing

import (
	"math"
	"testing"
)

func TestAzureValidates(t *testing.T) {
	if err := Azure().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
}

func TestTierString(t *testing.T) {
	cases := map[Tier]string{Hot: "hot", Cool: "cool", Archive: "archive", Tier(9): "tier(9)"}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, want)
		}
	}
}

func TestParseTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
		ok   bool
	}{
		{"hot", Hot, true},
		{"cool", Cool, true},
		{"cold", Cool, true}, // the paper's name for the cool tier
		{"archive", Archive, true},
		{"glacier", 0, false},
	} {
		got, err := ParseTier(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseTier(%q) accepted", tc.in)
		}
	}
}

func TestTierValid(t *testing.T) {
	for _, tier := range AllTiers() {
		if !tier.Valid() {
			t.Errorf("%v should be valid", tier)
		}
	}
	if Tier(-1).Valid() || Tier(NumTiers).Valid() {
		t.Error("out-of-range tiers reported valid")
	}
}

func TestPriceStructure(t *testing.T) {
	p := Azure()
	// Storage strictly cheaper moving toward archive, access more expensive.
	if !(p.Tiers[Hot].StoragePerGBMonth > p.Tiers[Cool].StoragePerGBMonth &&
		p.Tiers[Cool].StoragePerGBMonth > p.Tiers[Archive].StoragePerGBMonth) {
		t.Error("storage prices should decrease toward archive")
	}
	if !(p.ReadOpPrice(Hot) < p.ReadOpPrice(Cool) && p.ReadOpPrice(Cool) < p.ReadOpPrice(Archive)) {
		t.Error("read prices should increase toward archive")
	}
}

func TestOpPriceConversion(t *testing.T) {
	p := Azure()
	if got, want := p.ReadOpPrice(Hot), 0.0044/10000; math.Abs(got-want) > 1e-15 {
		t.Errorf("ReadOpPrice(Hot) = %v, want %v", got, want)
	}
	if got, want := p.WriteOpPrice(Archive), 0.11/10000; math.Abs(got-want) > 1e-15 {
		t.Errorf("WriteOpPrice(Archive) = %v, want %v", got, want)
	}
}

func TestStoragePerGBDay(t *testing.T) {
	p := Azure()
	if got, want := p.StoragePerGBDay(Hot), 0.0184/DaysPerMonth; math.Abs(got-want) > 1e-15 {
		t.Errorf("StoragePerGBDay(Hot) = %v, want %v", got, want)
	}
}

func TestValidateRejectsBadPolicies(t *testing.T) {
	neg := Azure()
	neg.Tiers[Hot].ReadPer10K = -1
	if neg.Validate() == nil {
		t.Error("negative price accepted")
	}

	inverted := Azure()
	inverted.Tiers[Archive].StoragePerGBMonth = 1.0 // dearer than hot
	if inverted.Validate() == nil {
		t.Error("inverted storage prices accepted")
	}

	cheapArchiveReads := Azure()
	cheapArchiveReads.Tiers[Archive].ReadPer10K = 0.0001
	if cheapArchiveReads.Validate() == nil {
		t.Error("decreasing read prices accepted")
	}

	negTran := Azure()
	negTran.TransitionPerGB = -0.5
	if negTran.Validate() == nil {
		t.Error("negative transition price accepted")
	}

	var nilPolicy *Policy
	if nilPolicy.Validate() == nil {
		t.Error("nil policy accepted")
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	p := Azure()
	data, err := p.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *p {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, p)
	}
}

func TestParsePolicyRejectsInvalid(t *testing.T) {
	if _, err := ParsePolicy([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	bad := Azure()
	bad.TransitionPerGB = -1
	data, _ := bad.MarshalJSONIndent()
	if _, err := ParsePolicy(data); err == nil {
		t.Error("invalid policy accepted by ParsePolicy")
	}
}
