package main

import "testing"

// TestFinetuneA3CPassesWorkersThrough: the fine-tune shape reaches
// A3CConfig as given, so a worker count below one is refused by Validate
// instead of silently becoming the default's.
func TestFinetuneA3CPassesWorkersThrough(t *testing.T) {
	if err := finetuneA3C(0, 8, 0).Validate(); err == nil {
		t.Error("finetuneA3C(0, 8, 0) passed validation; want Workers 0 refused")
	}
	if err := finetuneA3C(-1, 8, 0).Validate(); err == nil {
		t.Error("finetuneA3C(-1, 8, 0) passed validation; want Workers -1 refused")
	}
	cfg := finetuneA3C(2, 8, 3)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 || cfg.EnvsPerWorker != 8 || cfg.Parallelism != 3 {
		t.Errorf("finetuneA3C(2, 8, 3) = Workers %d, EnvsPerWorker %d, Parallelism %d",
			cfg.Workers, cfg.EnvsPerWorker, cfg.Parallelism)
	}
}
