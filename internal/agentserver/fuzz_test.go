package agentserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minicost/internal/pricing"
)

// FuzzObserveBody drives POST /v1/observe — the service's untrusted JSON
// boundary — with arbitrary bodies. Invariants: the handler never panics,
// always answers with a deliberate status (200, 4xx, or 413), and every
// 200 carries a decodable ObserveResponse with sane counts. Every body also
// goes through DecodeObserve and json.Unmarshal side by side
// (checkDecodeAgainstJSON): same verdict, same entries bit for bit.
func FuzzObserveBody(f *testing.F) {
	for _, body := range observeBodySeeds {
		f.Add(body)
	}

	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		accepted := checkDecodeAgainstJSON(t, []byte(body))

		req := httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if !accepted && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q is not a request, yet the handler answered %d", body, rec.Code)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp ObserveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", rec.Body.String(), err)
			}
			if resp.Accepted < 0 || resp.Tracked < 0 {
				t.Fatalf("200 with nonsense counts: %+v", resp)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
			// Deliberate rejection of bad input.
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}
