package cloudsim

import (
	"math"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

func newStore() *Store { return NewStore(costmodel.New(pricing.Azure())) }

func TestAddAndServe(t *testing.T) {
	s := newStore()
	a := s.AddObject(0.1, pricing.Hot)
	b := s.AddObject(0.2, pricing.Cool)
	bd, err := s.ServeDay([]float64{100, 50}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	wantStorage := m.StorageDay(pricing.Hot, 0.1) + m.StorageDay(pricing.Cool, 0.2)
	if math.Abs(bd.Storage-wantStorage) > 1e-15 {
		t.Fatalf("storage %v want %v", bd.Storage, wantStorage)
	}
	wantRead := m.ReadCost(pricing.Hot, 0.1, 100) + m.ReadCost(pricing.Cool, 0.2, 50)
	if math.Abs(bd.Read-wantRead) > 1e-15 {
		t.Fatalf("read %v want %v", bd.Read, wantRead)
	}
	if bd.Transition != 0 {
		t.Fatal("no transitions expected")
	}
	if s.Day() != 1 {
		t.Fatal("day not advanced")
	}
	_ = a
	_ = b
}

func TestSetTierBillsOnceIntoNextDay(t *testing.T) {
	s := newStore()
	id := s.AddObject(1.0, pricing.Hot)
	if err := s.SetTier(id, pricing.Cool); err != nil {
		t.Fatal(err)
	}
	// Same-tier set is free.
	if err := s.SetTier(id, pricing.Cool); err != nil {
		t.Fatal(err)
	}
	bd, err := s.ServeDay(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd.Transition-0.0002) > 1e-15 {
		t.Fatalf("transition %v want 0.0002", bd.Transition)
	}
	// Charge must not repeat.
	bd2, _ := s.ServeDay(nil, nil)
	if bd2.Transition != 0 {
		t.Fatal("transition billed twice")
	}
	tier, err := s.Tier(id)
	if err != nil || tier != pricing.Cool {
		t.Fatalf("tier %v err %v", tier, err)
	}
}

func TestSetTierValidation(t *testing.T) {
	s := newStore()
	id := s.AddObject(1, pricing.Hot)
	if err := s.SetTier(id, pricing.Tier(7)); err == nil {
		t.Fatal("invalid tier accepted")
	}
	if err := s.SetTier(ObjectID(99), pricing.Cool); err == nil {
		t.Fatal("unknown object accepted")
	}
}

func TestRemoveStopsBillingAndRejectsRequests(t *testing.T) {
	s := newStore()
	id := s.AddObject(1.0, pricing.Hot)
	keep := s.AddObject(1.0, pricing.Hot)
	if err := s.RemoveObject(id); err != nil {
		t.Fatal(err)
	}
	bd, err := s.ServeDay(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	if math.Abs(bd.Storage-m.StorageDay(pricing.Hot, 1.0)) > 1e-15 {
		t.Fatalf("removed object still billed: %v", bd.Storage)
	}
	if _, err := s.ServeDay([]float64{5, 0}, nil); err == nil {
		t.Fatal("requests to removed object accepted")
	}
	if s.Alive(id) || !s.Alive(keep) {
		t.Fatal("Alive wrong")
	}
	if err := s.RemoveObject(id); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := s.Get(id); err == nil {
		t.Fatal("Get on removed object accepted")
	}
}

func TestReplica(t *testing.T) {
	s := newStore()
	a := s.AddObject(0.1, pricing.Hot)
	b := s.AddObject(0.3, pricing.Hot)
	r, err := s.AddReplica([]ObjectID{a, b}, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get(r)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Replica || math.Abs(obj.SizeGB-0.4) > 1e-15 || len(obj.Members) != 2 {
		t.Fatalf("replica state %+v", obj)
	}
	// Replica of replica is rejected.
	if _, err := s.AddReplica([]ObjectID{r, a}, pricing.Hot); err == nil {
		t.Fatal("nested replica accepted")
	}
	if _, err := s.AddReplica([]ObjectID{a}, pricing.Hot); err == nil {
		t.Fatal("singleton replica accepted")
	}
	if _, err := s.AddReplica([]ObjectID{a, ObjectID(42)}, pricing.Hot); err == nil {
		t.Fatal("replica with unknown member accepted")
	}
}

func TestNegativeRequestsRejected(t *testing.T) {
	s := newStore()
	s.AddObject(1, pricing.Hot)
	if _, err := s.ServeDay([]float64{-1}, nil); err == nil {
		t.Fatal("negative reads accepted")
	}
}

func TestLedgerAndTotal(t *testing.T) {
	s := newStore()
	s.AddObject(1, pricing.Hot)
	for d := 0; d < 5; d++ {
		if _, err := s.ServeDay([]float64{10}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ledger := s.Ledger()
	if len(ledger) != 5 {
		t.Fatalf("ledger len %d", len(ledger))
	}
	total := s.TotalBill()
	want := costmodel.SumBreakdowns(ledger)
	if total != want {
		t.Fatal("TotalBill != ledger sum")
	}
	// Ledger is a copy: mutating it must not affect the store.
	ledger[0].Storage = 999
	if s.TotalBill() == costmodel.SumBreakdowns(ledger) {
		t.Fatal("Ledger returned internal storage")
	}
}

func TestFromTraceMatchesCostModel(t *testing.T) {
	// Replaying a trace through the store with a constant tier must equal
	// costmodel.TraceCost for the uniform assignment — the two accounting
	// paths must agree exactly.
	cfg := trace.DefaultGenConfig()
	cfg.NumFiles = 30
	cfg.Days = 10
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	s, ids := FromTrace(m, tr, pricing.Cool)
	reads := make([]float64, len(ids))
	writes := make([]float64, len(ids))
	for d := 0; d < tr.Days; d++ {
		for i := range ids {
			reads[i] = tr.Reads[i][d]
			writes[i] = tr.Writes[i][d]
		}
		if _, err := s.ServeDay(reads, writes); err != nil {
			t.Fatal(err)
		}
	}
	got := s.TotalBill()
	init := make([]pricing.Tier, tr.NumFiles())
	for i := range init {
		init[i] = pricing.Cool
	}
	bds, err := m.TraceCost(tr, costmodel.UniformAssignment(pricing.Cool, tr.NumFiles(), tr.Days), init, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := costmodel.SumBreakdowns(bds)
	if math.Abs(got.Total()-want.Total()) > 1e-9 {
		t.Fatalf("store bill %v != cost model %v", got, want)
	}
}

func TestAddObjectPanicsOnBadInput(t *testing.T) {
	s := newStore()
	assertPanics(t, func() { s.AddObject(0, pricing.Hot) })
	assertPanics(t, func() { s.AddObject(1, pricing.Tier(-1)) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func BenchmarkServeDay1kObjects(b *testing.B) {
	s := newStore()
	n := 1000
	reads := make([]float64, n)
	writes := make([]float64, n)
	for i := 0; i < n; i++ {
		s.AddObject(0.1, pricing.Hot)
		reads[i] = 100
		writes[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ServeDay(reads, writes); err != nil {
			b.Fatal(err)
		}
	}
}
