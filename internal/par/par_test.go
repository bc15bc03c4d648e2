package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000} {
		for _, w := range []int{-1, 1, 2, 3, 16, 2000} {
			seen := make([]atomic.Int32, max(n, 1))
			For(n, w, func(i int) { seen[i].Add(1) })
			for i := 0; i < n; i++ {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d w=%d index %d visited %d times", n, w, i, got)
				}
			}
		}
	}
}

func TestForShardsVisitsEveryShardOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4, 16, 63, 200} {
		for _, w := range []int{-1, 1, 2, 16, 500} {
			seen := make([]atomic.Int32, max(n, 1))
			ForShards(n, w, func(s int) { seen[s].Add(1) })
			for s := 0; s < n; s++ {
				if got := seen[s].Load(); got != 1 {
					t.Fatalf("n=%d w=%d shard %d visited %d times", n, w, s, got)
				}
			}
		}
	}
}

// TestForShardsFansOutSmallN pins the property ForShards exists for: a
// shard count far below For's serial threshold still runs on multiple
// goroutines when workers allow it.
func TestForShardsFansOutSmallN(t *testing.T) {
	const n = 8
	var (
		start   = make(chan struct{})
		release sync.Once
		arrived atomic.Int32
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForShards(n, n, func(s int) {
			// Every shard blocks until at least two goroutines are inside the
			// fan-out: impossible on a serial degrade.
			if arrived.Add(1) >= 2 {
				release.Do(func() { close(start) })
			}
			<-start
		})
	}()
	<-done
	if arrived.Load() != n {
		t.Fatalf("ForShards visited %d shards, want %d", arrived.Load(), n)
	}
}

func TestForChunkedPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 100, 1023} {
		for _, w := range []int{1, 2, 7, 64, 5000} {
			seen := make([]atomic.Int32, max(n, 1))
			ForChunked(n, w, func(lo, hi int) {
				if lo >= hi && n > 0 {
					t.Errorf("empty chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d w=%d index %d covered %d times", n, w, i, got)
				}
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be >= 1")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkForSerial(b *testing.B) {
	sink := make([]float64, 1<<14)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		For(len(sink), 1, func(i int) { sink[i] = float64(i) * 1.5 })
	}
}

func BenchmarkForParallel(b *testing.B) {
	sink := make([]float64, 1<<14)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		For(len(sink), 0, func(i int) { sink[i] = float64(i) * 1.5 })
	}
}

func BenchmarkForChunkedParallel(b *testing.B) {
	sink := make([]float64, 1<<14)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ForChunked(len(sink), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sink[i] = float64(i) * 1.5
			}
		})
	}
}
