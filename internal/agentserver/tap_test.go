package agentserver

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"minicost/internal/pricing"
)

// tapRecorder captures every tap callback.
type tapRecorder struct {
	days    []int64
	batches [][]FileObservation
}

func (r *tapRecorder) TapObserve(day int64, files []FileObservation) {
	r.days = append(r.days, day)
	cp := append([]FileObservation(nil), files...)
	r.batches = append(r.batches, cp)
}

// TestObserveFeedsTap pins the ObserveTap contract: the tap fires once per
// accepted observe batch, after ingestion, with the server's monotonically
// increasing day counter and the validated batch — and rejected requests
// never reach it.
func TestObserveFeedsTap(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &tapRecorder{}
	s.SetTap(rec)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	for d := 0; d < 3; d++ {
		if _, err := c.Observe(&ObserveRequest{Files: []FileObservation{
			obsv("a", 100), obsv("b", 5),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Invalid batches are rejected before ingestion and must not be tapped.
	if _, err := c.Observe(&ObserveRequest{}); err == nil {
		t.Fatal("empty batch accepted")
	}

	if len(rec.days) != 3 {
		t.Fatalf("tap fired %d times, want 3", len(rec.days))
	}
	for i, day := range rec.days {
		if day != int64(i+1) {
			t.Fatalf("tap days %v, want 1,2,3", rec.days)
		}
		if len(rec.batches[i]) != 2 || rec.batches[i][0].ID != "a" || rec.batches[i][1].ID != "b" {
			t.Fatalf("tap batch %d = %+v", i, rec.batches[i])
		}
	}
}

// batchChecker is a tap that checks each batch is one client's: every ID
// carries the prefix of the first, and reads repeat the number in it.
type batchChecker struct{ t *testing.T }

func (c batchChecker) TapObserve(_ int64, files []FileObservation) {
	prefix, _, _ := strings.Cut(files[0].ID, "-")
	for i := range files {
		f := &files[i]
		if !strings.HasPrefix(f.ID, prefix+"-") || f.Reads != float64(len(prefix)) || f.ID[len(f.ID)-1] != byte('0'+i%10) {
			c.t.Errorf("entry %d of a batch from %q is %+v", i, prefix, *f)
			return
		}
	}
}

// TestConcurrentObserveScratchIsolation posts different bodies from several
// clients at once: the handlers share one pool of decode scratch, and no
// request may see another's entries or IDs. Run under -race by `make check`.
func TestConcurrentObserveScratchIsolation(t *testing.T) {
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTap(batchChecker{t})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	const clients, rounds = 6, 25
	var wg sync.WaitGroup
	for w := 1; w <= clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := strings.Repeat("c", w) // the client's number is the prefix's length
			files := make([]FileObservation, 40*w)
			for i := range files {
				files[i] = FileObservation{ID: prefix + "-" + itoa(i), SizeGB: 0.5, Reads: float64(w)}
			}
			for r := 0; r < rounds; r++ {
				resp, err := c.Observe(&ObserveRequest{Files: files})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Accepted != len(files) {
					t.Errorf("client %d: accepted %d of %d", w, resp.Accepted, len(files))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.TrackedFiles(), 40*clients*(clients+1)/2; got != want {
		t.Fatalf("tracked %d files, want %d", got, want)
	}
}
