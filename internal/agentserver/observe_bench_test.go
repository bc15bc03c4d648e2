package agentserver

import (
	"fmt"
	"slices"
	"testing"

	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// BenchmarkObserve is the store ingest's attribution benchmark:
// Server.Observe on 8192-file batches over 131 072 files in 16 shards —
// serve-ingest's shape without HTTP or the codec. One op is one batch.
//
//   - sweep posts the population in the same order every day, as
//     serve-ingest's client does: every file's slot is the one after its
//     shard's previous entry.
//   - shuffled posts the same batches permuted (four permutations of each,
//     taken in turn): the slot after the previous entry is almost never the
//     file's, so nearly every file is found through the ID map. It prices a
//     miss.
//   - fresh posts IDs the server has not seen: every entry creates its slot.
//     A new server is built every 16 batches, outside the timer.
//
// The batches are the day's entries in the harness's ID form (f%08d); only
// the ingest is timed, on servers that have already taken a full sweep.
func BenchmarkObserve(b *testing.B) {
	const files, batch, shards = 131072, 8192, 16
	const perSweep = files / batch
	r := rng.New(48)
	sweep := make([][]FileObservation, perSweep)
	for k := range sweep {
		sweep[k] = make([]FileObservation, batch)
		for i := range sweep[k] {
			id := k*batch + i
			sweep[k][i] = FileObservation{
				ID:     fmt.Sprintf("f%08d", id),
				SizeGB: 0.01 + float64(id%5000)/100,
				Reads:  float64(r.Intn(2000)),
				Writes: float64(r.Intn(20)),
			}
		}
	}
	shuffled := make([][]FileObservation, 4*perSweep)
	for k := range shuffled {
		shuffled[k] = slices.Clone(sweep[k%perSweep])
		r.Shuffle(batch, func(i, j int) {
			shuffled[k][i], shuffled[k][j] = shuffled[k][j], shuffled[k][i]
		})
	}
	newFilled := func(b *testing.B) *Server {
		s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		for _, files := range sweep {
			if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	run := func(b *testing.B, s *Server, batches [][]FileObservation) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Observe(&ObserveRequest{Files: batches[i%len(batches)]}); err != nil {
				b.Fatal(err)
			}
		}
	}

	// go test calls a row's function again for each b.N it tries; each row
	// fills its server once and keeps posting days to it.
	var sweepServer, shuffledServer *Server
	b.Run("sweep", func(b *testing.B) {
		if sweepServer == nil {
			sweepServer = newFilled(b)
		}
		run(b, sweepServer, sweep)
	})
	b.Run("shuffled", func(b *testing.B) {
		if shuffledServer == nil {
			shuffledServer = newFilled(b)
		}
		run(b, shuffledServer, shuffled)
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		var s *Server
		for i := 0; i < b.N; i++ {
			if i%perSweep == 0 {
				b.StopTimer()
				var err error
				if s, err = NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if _, err := s.Observe(&ObserveRequest{Files: sweep[i%perSweep]}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
