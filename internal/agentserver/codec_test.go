package agentserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// checkDecodeAgainstJSON holds DecodeObserve to its oracle on one body:
// json.Unmarshal into a fresh request must accept exactly when DecodeObserve
// does, and yield the same entries — IDs equal, floats equal bit for bit.
// (json.Unmarshal, unlike the Decoder the handler used to call, already
// refuses trailing data, so the two agree there too.) It reports whether the
// body was accepted.
func checkDecodeAgainstJSON(t *testing.T, body []byte) bool {
	t.Helper()
	var want ObserveRequest
	wantErr := json.Unmarshal(body, &want)
	// A dirty, too-short array: stale entries must not leak into the result.
	got := ObserveRequest{Files: []FileObservation{{ID: "stale", SizeGB: 9, Reads: 9, Writes: 9}}}
	gotErr := DecodeObserve(body, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json says %v, DecodeObserve says %v", body, wantErr, gotErr)
	}
	if gotErr != nil {
		if len(got.Files) != 0 {
			t.Fatalf("body %q: rejected, yet %d entries left in the request", body, len(got.Files))
		}
		return false
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("body %q: %d entries, encoding/json has %d", body, len(got.Files), len(want.Files))
	}
	for i := range want.Files {
		g, w := got.Files[i], want.Files[i]
		if g.ID != w.ID ||
			math.Float64bits(g.SizeGB) != math.Float64bits(w.SizeGB) ||
			math.Float64bits(g.Reads) != math.Float64bits(w.Reads) ||
			math.Float64bits(g.Writes) != math.Float64bits(w.Writes) {
			t.Fatalf("body %q entry %d: %+v, encoding/json has %+v", body, i, g, w)
		}
	}
	return true
}

// observeBodySeeds are the bodies the differential checks start from: the
// plain path, every way off it the codec knows of, and the entry path's
// near misses.
var observeBodySeeds = append([]string{
	`{"files":[{"id":"a","size_gb":0.1,"reads":2,"writes":0.1}]}`,
	`{"files":[]}`,
	`{"files":[{"id":"","size_gb":1}]}`,
	`{"files":[{"id":"a","size_gb":-1}]}`,
	`{"files":[{"id":"a","size_gb":1e308,"reads":1e308}]}`,
	`{"files":[{"id":"a","size_gb":null}]}`,
	`{"files":{"id":"a"}}`,
	`{nope`,
	`[]`,
	`null`,
	` null `,
	`nul`,
	``,
	`{}`,
	`{} garbage`,
	`{"files":[{"id":"a","size_gb":1}]} garbage`,
	`{"files":[{"id":"a","size_gb":1}]}{"files":[{"id":"b","size_gb":1}]}`,
	" \t\r\n{ \"files\" : [ { \"id\" : \"a\" , \"size_gb\" : 1 } , { \"id\" : \"b\" } ] } \n",
	// Strings off the plain path: escapes, surrogates, UTF-8 valid and not.
	`{"files":[{"id":"a\"b\\c\/d\n","size_gb":1}]}`,
	`{"files":[{"id":"é😀","size_gb":1}]}`,
	`{"files":[{"id":"\ud83d","size_gb":1},{"id":"\ude00x"}]}`,
	`{"files":[{"id":"\uZZZZ"}]}`,
	`{"files":[{"id":"bad\escape"}]}`,
	"{\"files\":[{\"id\":\"caf\xc3\xa9\",\"size_gb\":1}]}",
	"{\"files\":[{\"id\":\"\xff\xfe\",\"size_gb\":1}]}",
	"{\"files\":[{\"id\":\"tab\there\"}]}",
	`{"files":[{"id":"unterminated`,
	`{"files":[{"id":"x\`,
	// Numbers: exact path, its edges, and everything handed to ParseFloat.
	`{"files":[{"id":"n","size_gb":-0,"reads":-0.0,"writes":0}]}`,
	`{"files":[{"id":"n","size_gb":1e999}]}`,
	`{"files":[{"id":"n","size_gb":1e-999,"reads":1E+2,"writes":2.5e-7}]}`,
	`{"files":[{"id":"n","size_gb":12345678901234567890,"reads":0.12345678901234567890}]}`,
	`{"files":[{"id":"n","size_gb":123456789012345,"reads":1234567890.12345,"writes":0.00000000000001}]}`,
	`{"files":[{"id":"n","size_gb":1234567890123456,"reads":9007199254740993}]}`,
	`{"files":[{"id":"n","size_gb":0.1,"reads":0.3,"writes":2.675}]}`,
	`{"files":[{"id":"n","size_gb":01}]}`,
	`{"files":[{"id":"n","size_gb":1.}]}`,
	`{"files":[{"id":"n","size_gb":.5}]}`,
	`{"files":[{"id":"n","size_gb":-}]}`,
	`{"files":[{"id":"n","size_gb":+1}]}`,
	`{"files":[{"id":"n","size_gb":1e}]}`,
	`{"files":[{"id":"n","size_gb":12abc}]}`,
	`{"files":[{"id":"n","size_gb":"1"}]}`,
	`{"files":[{"id":"n","size_gb":true}]}`,
	`{"files":[{"id":5}]}`,
	`{"files":[{"id":"n","size_gb":1`,
	// Keys: folded, duplicated, unknown, escaped, non-ASCII.
	`{"FILES":[{"ID":"a","Size_GB":1,"READS":2,"wRiTeS":3}]}`,
	`{"files":[{"id":"a","id":"b","size_gb":1,"size_gb":2,"id":null}]}`,
	`{"files":[{"id":"a","mtime":123,"tags":["x",{"y":[1,2,{"z":null}]}],"size_gb":1,"note":"q\"uote"}],"day":7,"meta":{"a":[]}}`,
	`{"files":[{"id":"a","s":"\u00e9\n","big":1e999,"neg":-0.5E-3,"t":true,"f":false,"n":null,"size_gb":1}],"v":"x"}`,
	`{"files":[{"id":"a","s":"bad\q"}]}`,
	"{\"files\":[{\"id\":\"a\",\"s\":\"ctl\x01\"}]}",
	"{\"files\":[{\"id\":\"a\",\"s\":\"caf\xc3\xa9 \xff\"}]}",
	`{"files":[{"id":"a","extra":tru}]}`,
	`{"files":[{"id":"a","extra":falsey}]}`,
	`{"files":[{"id":"a","extra":-}]}`,
	`{"files":[{"id":"a","extra":[1,2}]}`,
	`{"files":[{"id":"a","extra":}]}`,
	`{"files":[{"\u0069d":"a","size_gb":1}],"f\u0069les":null}`,
	"{\"files\":[{\"id\":\"a\",\"read\u017f\":4,\"size_gb\":1}]}",
	"{\"file\u017f\":[{\"id\":\"a\"}]}",
	"{\"files\":[{\"\u212a\":1,\"id\":\"a\"}]}",
	// The files value: null, repeated, merged.
	`{"files":null}`,
	`{"files":[{"id":"a","size_gb":1}],"files":null}`,
	`{"files":null,"files":[{"id":"a","size_gb":1}]}`,
	`{"files":[{"id":"a","size_gb":1},{"id":"b","size_gb":2}],"files":[{"reads":5}]}`,
	`{"files":[{"id":"a"},{"id":"b"}],"files":[{}],"files":[{},{}]}`,
	`{"files":[null,{}]}`,
	`{"files":[null,{},1]}`,
	`{"files":[{"id":"a"},]}`,
	`{"files":[{"id":"a"}],}`,
	`{"files":[{"id":"a",}]}`,
	`{"files":[{"id":"a"}`,
	`{"files":[`,
	`{"files"`,
	`{"files":5}`,
	`{"files":"x"}`,
	`"files"`,
	`7`,
	`true`,
}, entryNearMisses()...)

// The near-miss bodies put the entry under test between two canonical
// entries, so that a decoder which goes wrong after a miss shows in the
// entries around it as well as in the entry itself.
const (
	nearMissHead  = `{"files":[{"id":"f0","size_gb":1.25,"reads":3,"writes":0},`
	nearMissEntry = `{"id":"f1","size_gb":0.5,"reads":120,"writes":2}`
	nearMissTail  = `,{"id":"f2","size_gb":7,"reads":0,"writes":1}]}`
)

// entryNearMisses returns the bodies whose middle entry is off the
// canonical shape: by one byte at every offset of each fixed literal
// (replaced, dropped, doubled or preceded by a space), by a named variation
// of keys, values, numbers or ID, and by a cut at every byte of the last
// entry.
func entryNearMisses() []string {
	var out []string
	body := func(entry string) string { return nearMissHead + entry + nearMissTail }
	e := nearMissEntry
	for _, lit := range []string{`{"id":"`, `","size_gb":`, `,"reads":`, `,"writes":`, `}`} {
		at := strings.LastIndex(e, lit)
		for k := at; k < at+len(lit); k++ {
			pre, c, post := e[:k], e[k], e[k+1:]
			for _, r := range []string{" ", "x", strings.ToUpper(string(c)), `"`, `\`, "\x00", "\xc3", "}"} {
				if r != string(c) {
					out = append(out, body(pre+r+post))
				}
			}
			out = append(out,
				body(pre+post),
				body(pre+string(c)+string(c)+post),
				body(pre+" "+string(c)+post))
		}
	}
	for _, entry := range []string{
		// Keys: case, order, duplicates, missing and extra members.
		`{"ID":"f1","size_gb":0.5,"reads":120,"writes":2}`,
		`{"id":"f1","Size_GB":0.5,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"WRITES":2}`,
		`{"size_gb":0.5,"id":"f1","reads":120,"writes":2}`,
		`{"id":"f1","reads":120,"size_gb":0.5,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"reads":7,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":2,"reads":7}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":2,"id":"f9"}`,
		`{"id":"f1","size_gb":0.5,"reads":120}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":2,"x":1}`,
		`{"id":"f1"}`,
		`{}`,
		// Values: null, and whitespace around the colons.
		`{"id":null,"size_gb":0.5,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":null,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":null,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":null}`,
		`{"id": "f1","size_gb":0.5,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb" :0.5,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":2 }`,
		"{\"id\":\"f1\",\"size_gb\":0.5,\"reads\":120,\"writes\":\n2}",
		// Numbers: the 15-digit limit, exponents, signs, bad forms.
		`{"id":"f1","size_gb":123456789012345,"reads":12345678901234.5,"writes":0.00000000000001}`,
		`{"id":"f1","size_gb":1234567890123456,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":1234567890.123456,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":0.000000000000001}`,
		`{"id":"f1","size_gb":9007199254740993,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":5e-1,"reads":1.2E+2,"writes":2e0}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":2e}`,
		`{"id":"f1","size_gb":-0,"reads":-0.0,"writes":-0}`,
		`{"id":"f1","size_gb":-0.5,"reads":-120,"writes":-2}`,
		`{"id":"f1","size_gb":05,"reads":120,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120.,"writes":2}`,
		`{"id":"f1","size_gb":0.5,"reads":120,"writes":-}`,
		`{"id":"f1","size_gb":"0.5","reads":120,"writes":2}`,
		`{"id":"f1","size_gb":true,"reads":120,"writes":2}`,
		// IDs: escapes, DEL, UTF-8 valid and not, control bytes, empty.
		`{"id":"f\u0041","size_gb":0.5,"reads":120,"writes":2}`,
		`{"id":"f\"1","size_gb":0.5,"reads":120,"writes":2}`,
		"{\"id\":\"f\x7f\",\"size_gb\":0.5,\"reads\":120,\"writes\":2}",
		"{\"id\":\"f\xc3\xa9\",\"size_gb\":0.5,\"reads\":120,\"writes\":2}",
		"{\"id\":\"f\xc3\",\"size_gb\":0.5,\"reads\":120,\"writes\":2}",
		"{\"id\":\"f\x01\",\"size_gb\":0.5,\"reads\":120,\"writes\":2}",
		`{"id":"","size_gb":0.5,"reads":120,"writes":2}`,
		`{"id":5,"size_gb":0.5,"reads":120,"writes":2}`,
	} {
		out = append(out, body(entry))
	}
	// The body cut at every byte of its last entry and after it.
	whole := nearMissHead + e + "]}"
	for k := len(nearMissHead); k < len(whole); k++ {
		out = append(out, whole[:k])
	}
	return out
}

func TestDecodeObserveMatchesEncodingJSON(t *testing.T) {
	for _, body := range observeBodySeeds {
		checkDecodeAgainstJSON(t, []byte(body))
	}
	// A skipped value nested around encoding/json's depth limit, which counts
	// from the top of the body.
	for depth := 9995; depth <= 10001; depth++ {
		nest := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		checkDecodeAgainstJSON(t, []byte(`{"files":[{"id":"a","x":`+nest+`}]}`))
		checkDecodeAgainstJSON(t, []byte(`{"x":`+nest+`,"files":[]}`))
	}
	// The exact-number path against ParseFloat across digit counts and
	// point positions, one and two past its 15-digit limit included.
	const digits = "98765432109876543"
	for n := 1; n <= len(digits); n++ {
		for point := 0; point <= n; point++ {
			num := digits[:n]
			if point < n {
				num = digits[:point] + "." + digits[point:n]
				if point == 0 {
					num = "0" + num
				}
			}
			for _, sign := range []string{"", "-"} {
				checkDecodeAgainstJSON(t, []byte(`{"files":[{"id":"n","size_gb":`+sign+num+`}]}`))
			}
		}
	}
}

// TestDecodeObserveEntryNearMisses holds the entry path's fallback to the
// member loop: every entry off the canonical shape, however little, decodes
// as encoding/json decodes it, and so do the canonical entries around it.
func TestDecodeObserveEntryNearMisses(t *testing.T) {
	bodies := entryNearMisses()
	accepted := 0
	for _, body := range bodies {
		if checkDecodeAgainstJSON(t, []byte(body)) {
			accepted++
		}
	}
	// Both verdicts must be exercised: the near misses that are still
	// requests (whitespace, key case, escapes) and the ones that are not.
	if accepted == 0 || accepted == len(bodies) {
		t.Fatalf("%d of %d near-miss bodies accepted", accepted, len(bodies))
	}
}

// TestDecodeObserveEntryPathTakesClientEntries pins who the entry path is
// for: every entry of the benchmark's bodies, and every entry json.Marshal
// writes for a FileObservation whose numbers print in at most 15 digits
// without an exponent — the Client's bodies — is taken whole by entry.
func TestDecodeObserveEntryPathTakesClientEntries(t *testing.T) {
	var entries [][]byte
	bench := benchObserveBody(8192)
	inner := bench[len(`{"files":[`) : len(bench)-len("]}")]
	entries = append(entries, bytes.Split(inner, []byte("},{"))...)
	for k := range entries {
		if k > 0 {
			entries[k] = append([]byte("{"), entries[k]...)
		}
		if k < len(entries)-1 {
			entries[k] = append(entries[k], '}')
		}
	}
	for _, f := range []FileObservation{
		{ID: "video.mp4", SizeGB: 2.5, Reads: 120, Writes: 1},
		{ID: "backup.tar", SizeGB: 40},
		{ID: "", SizeGB: 0.001, Reads: 1e-6, Writes: 123456789012345},
		{ID: "a b/c~d", SizeGB: -0.5, Reads: 0.1, Writes: 99999.25},
	} {
		out, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, out)
	}
	for _, e := range entries {
		d := observeDecoder{b: e}
		if end, ok := d.entry(0); !ok || end != len(e) {
			t.Fatalf("entry %q: taken %v up to %d of %d", e, ok, end, len(e))
		}
	}
}

// benchObserveBody is an n-file body in the shape the end-to-end benchmark
// posts: f%08d IDs, sizes with three decimals, whole-number rates.
func benchObserveBody(n int) []byte {
	b := []byte(`{"files":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"id":"f%08d","size_gb":%.3f,"reads":%d,"writes":%d}`,
			i, 0.01+float64(i%5000)/100, (i*37)%2000, i%20)
	}
	return append(b, "]}"...)
}

// TestDecodeObserveSteadyStateAllocs pins what the pooled scratch buys: a
// warm 8192-file decode allocates the batch's ID string and nothing per
// file.
func TestDecodeObserveSteadyStateAllocs(t *testing.T) {
	body := benchObserveBody(8192)
	sc := new(wireScratch)
	decode := func() {
		if err := sc.decode(body, &sc.req); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if got := len(sc.req.Files); got != 8192 {
		t.Fatalf("decoded %d entries, want 8192", got)
	}
	if allocs := testing.AllocsPerRun(10, decode); allocs > 2 {
		t.Fatalf("warm 8192-file decode allocates %v times, want at most 2", allocs)
	}
}

// TestWireScratchPoolHygiene pins which scratches go back to the pool: one
// sized by a default-cap body does, one that any buffer outgrew does not.
func TestWireScratchPoolHygiene(t *testing.T) {
	fits := &wireScratch{
		buf:   make([]byte, 0, maxPooledBuf),
		arena: make([]byte, 0, MaxObserveBytes),
		req:   ObserveRequest{Files: make([]FileObservation, 0, maxPooledFiles)},
		spans: make([]idSpan, 0, maxPooledFiles),
	}
	if !fits.poolable() {
		t.Error("a scratch at the bounds is dropped")
	}
	for name, sc := range map[string]*wireScratch{
		"body":  {buf: make([]byte, 0, maxPooledBuf+1)},
		"arena": {arena: make([]byte, 0, maxPooledBuf+1)},
		"files": {req: ObserveRequest{Files: make([]FileObservation, 0, maxPooledFiles+1)}},
		"spans": {spans: make([]idSpan, 0, maxPooledFiles+1)},
	} {
		if sc.poolable() {
			t.Errorf("a scratch whose %s outgrew a default-cap body goes back to the pool", name)
		}
	}
	// End to end: a body past the default cap, as -max-observe-bytes allows,
	// leaves a scratch that is dropped.
	big := bytes.Repeat([]byte(" "), maxPooledBuf+1)
	sc := new(wireScratch)
	if _, err := sc.readBody(bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	if sc.poolable() {
		t.Errorf("scratch with a %d-byte body buffer still poolable", cap(sc.buf))
	}
}

// checkPlanEncoding holds AppendPlan to its oracle on one plan.
func checkPlanEncoding(t *testing.T, p *PlanResponse) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(p); err != nil {
		t.Fatal(err)
	}
	got := AppendPlan([]byte("prefix"), p)
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("AppendPlan overwrote dst: %.40q", got)
	}
	if got = got[len("prefix"):]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendPlan wrote\n%q\nencoding/json wrote\n%q", got, want.Bytes())
	}
}

func TestAppendPlanMatchesEncodingJSON(t *testing.T) {
	for _, p := range []*PlanResponse{
		{},
		{Files: []PlanEntry{}},
		{Day: -3, Files: []PlanEntry{{ID: "a", Tier: "hot"}}, ElapsedMS: 0.001, Transition: 1, Decided: 1, Full: true},
		{Day: 1 << 40, Files: []PlanEntry{
			{ID: "plain-id_0.9~", Tier: "archive", Changed: true},
			{ID: `quote"back\slash`, Tier: "cold"},
			{ID: "<html>&amp;", Tier: "co\nol"},
			{ID: "café \U0001F600 \ufffd", Tier: "\u2028"},
			{ID: "line\u2029sep", Tier: "\x7f"},
			{ID: "bad\xffutf8\xc3", Tier: "\x00\x1f\b\f"},
			{ID: "", Tier: ""},
		}, ElapsedMS: 1e21},
		{ElapsedMS: 1e-7},
		{ElapsedMS: 123456.789},
		{ElapsedMS: math.Copysign(0, -1)},
	} {
		checkPlanEncoding(t, p)
	}
	// A non-finite elapsed time has no JSON form; encoding/json refuses the
	// plan, AppendPlan still writes valid JSON.
	for _, ms := range []float64{math.NaN(), math.Inf(1)} {
		out := AppendPlan(nil, &PlanResponse{ElapsedMS: ms})
		if !json.Valid(out) || !strings.Contains(string(out), `"elapsed_ms":null`) {
			t.Errorf("elapsed_ms %v encoded as %q", ms, out)
		}
	}
}

// checkPlanBlocks holds the block path to AppendPlan on one plan: its
// entries encoded in runs of blockLen, the way the server's plan view caches
// them, and joined by appendPlanBlocks must be the body AppendPlan writes.
func checkPlanBlocks(t *testing.T, p *PlanResponse, blockLen int) {
	t.Helper()
	var blocks [][]byte
	for lo := 0; lo < len(p.Files); lo += blockLen {
		blocks = append(blocks, appendPlanEntries(nil, p.Files[lo:min(lo+blockLen, len(p.Files))]))
	}
	meta := *p
	meta.Files = nil // the block path must not read it
	if got, want := appendPlanBlocks(nil, &meta, blocks), AppendPlan(nil, p); !bytes.Equal(got, want) {
		t.Fatalf("blocks of %d joined to\n%q\nAppendPlan wrote\n%q", blockLen, got, want)
	}
}

// FuzzAppendPlan fuzzes the plan encoder against encoding/json: IDs and
// tiers with anything in them, every flag, any finite elapsed time — and the
// same entries cut into blocks of a fuzzer-chosen length against AppendPlan.
func FuzzAppendPlan(f *testing.F) {
	f.Add("f00000001", "hot", "f00000002", "cold", true, false, 7, 0.25, 3, 1)
	f.Add(`a"b\c`, "<&>", "\u2028\u2029", "\xff", false, true, -1, 1e21, 0, 2)
	f.Add("café", "\x00\x1f", "\ud7ff\ue000", "\xed\xa0\x80", true, true, 0, 1e-7, 9, 3)
	f.Add("", "", "", "", false, false, 0, 0.0, 1, 0)
	f.Add("f1", "archive", `q"`, "cool", true, false, 3, 1.5, 7, -2)
	f.Fuzz(func(t *testing.T, id1, tier1, id2, tier2 string, changed, full bool, day int, elapsed float64, n, blockLen int) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			t.Skip("encoding/json refuses a non-finite elapsed_ms")
		}
		p := &PlanResponse{Day: day, ElapsedMS: elapsed, Transition: n, Decided: day ^ n, Full: full}
		// n%8 entries; 0 leaves Files nil, which goes out as null.
		for k := 0; k < (n%8+8)%8; k++ {
			e := PlanEntry{ID: id1 + strconv.Itoa(k), Tier: tier1, Changed: changed}
			if k%2 == 1 {
				e = PlanEntry{ID: id2, Tier: tier2, Changed: !changed}
			}
			p.Files = append(p.Files, e)
		}
		checkPlanEncoding(t, p)
		if p.Files != nil { // a view is never built over no files
			checkPlanBlocks(t, p, 1+(blockLen%4+4)%4)
		}
	})
}

// BenchmarkDecodeObserve is the observe codec's attribution benchmark: the
// handler's decode (pooled scratch, warm) and encoding/json on the same
// 8192-file body. codec is the body as the benchmark harness and Client
// write it, every entry on the entry path; offpath is the same entries
// with a space after each colon, every entry missing the entry path and
// read by the member loop. The end-to-end harness's codec.observe_* probes
// time encoding/json from its own files, so this is where the layer's own
// before/after is read.
func BenchmarkDecodeObserve(b *testing.B) {
	body := benchObserveBody(8192)
	decode := func(body []byte) func(b *testing.B) {
		return func(b *testing.B) {
			sc := new(wireScratch)
			if err := sc.decode(body, &sc.req); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sc.decode(body, &sc.req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("codec", decode(body))
	b.Run("offpath", decode(bytes.ReplaceAll(body, []byte(":"), []byte(": "))))
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ObserveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendPlan is the plan codec's: AppendPlan into a reused buffer
// and json.Encoder on the same 65 536-entry plan.
func BenchmarkAppendPlan(b *testing.B) {
	p := &PlanResponse{Day: 14, ElapsedMS: 12.345, Transition: 64, Decided: 64}
	tiers := []string{"hot", "cold", "archive"}
	for i := 0; i < 65536; i++ {
		p.Files = append(p.Files, PlanEntry{ID: fmt.Sprintf("f%08d", i), Tier: tiers[i%3], Changed: i%1024 == 0})
	}
	b.Run("codec", func(b *testing.B) {
		buf := AppendPlan(nil, p)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendPlan(buf[:0], p)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(p); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
