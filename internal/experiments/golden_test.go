package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"minicost/internal/rl"
	"minicost/internal/rng"
)

// figureSeriesGolden is the FNV-64a hash of the Quick profile's Fig. 7,
// Fig. 8, Fig. 13 and cost-breakdown output with a seeded random agent (see
// TestFigureSeriesGolden), recorded when Fig. 13 began billing
// minicost-w/E through aggregate.Bill's replica lifetimes. A moved hash
// means a figure moved.
const figureSeriesGolden uint64 = 0x0989bc977811b325

// TestFigureSeriesGolden pins the evaluation figures bit for bit. A seeded,
// untrained agent stands in for the trained one, so no training runs and the
// hash depends only on the workload, the assigners and the pricing.
func TestFigureSeriesGolden(t *testing.T) {
	cfg := Quick()
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.SetAgent(rl.NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(7))))

	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}

	f7, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MethodNames {
		for i := range f7.Days {
			put(f7.Costs[name][i])
		}
	}

	f8, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MethodNames {
		for _, c := range f8.Costs[name] {
			put(c)
		}
	}
	for _, n := range f8.Files {
		put(float64(n))
	}

	f13, err := l.Fig13(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"greedy", "minicost", "minicost-w/E", "optimal"} {
		for i := range f13.Days {
			put(f13.Costs[name][i])
		}
	}
	put(float64(f13.AggregatedGroups))

	var table bytes.Buffer
	if err := l.CostBreakdownTable(&table); err != nil {
		t.Fatal(err)
	}
	h.Write(table.Bytes())

	if got := h.Sum64(); got != figureSeriesGolden {
		t.Fatalf("figure series hash %#016x, want %#016x", got, figureSeriesGolden)
	}
}
