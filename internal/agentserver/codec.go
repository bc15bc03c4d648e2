package agentserver

// codec.go is the wire codec of the two per-file endpoints (DESIGN.md §15,
// "Wire codec"): DecodeObserve scans a POST /v1/observe body for exactly the
// ObserveRequest schema in one pass, AppendPlan writes a GET /v1/plan answer
// with appends — and appendPlanBlocks the same answer from runs of entries
// the same per-entry encoder wrote earlier, which is how the server's plan
// view (store.go) serves it. Neither reflects, and neither calls
// encoding/json per file.
//
// encoding/json stays the definition of what is accepted and what is
// written. The scanner handles the plain grammar itself — ASCII keys,
// unescaped ASCII string values, numbers of at most 15 digits without an
// exponent — and hands every other token to the standard library: an ID with
// a backslash or a non-ASCII byte, a number off the exact path (to
// strconv.ParseFloat, the call encoding/json makes), an ID or tier that
// needs escaping on the way out, the elapsed_ms float. A body whose structure
// is off the plain path — an escaped or non-ASCII key, an object or array
// under an unknown key, a second "files" array (which encoding/json merges
// into the first) — goes to json.Unmarshal whole. FuzzObserveBody and
// FuzzAppendPlan hold the two implementations side by side.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// idSpan locates one entry's ID in the decoder's arena.
type idSpan struct{ off, n int }

// wireScratch is the per-request scratch of the observe and plan handlers:
// the request body read off the wire (or the plan answer about to go on it),
// the request whose Files array is reused from one body to the next, and the
// decoder's ID arena. A scratch is owned by one request from wirePool.Get to
// release; ObserveTap's no-retain rule is what makes reusing Files safe.
type wireScratch struct {
	buf   []byte
	req   ObserveRequest
	spans []idSpan
	arena []byte
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// What a scratch may hold and still go back to the pool: the buffers a
// body of the default cap needs. minObserveEntryBytes is the shortest entry
// Server.Observe accepts, {"id":"a","size_gb":1} and its comma; a body of
// the default cap cannot carry more valid entries than maxPooledFiles.
// maxPooledBuf leaves room for the read loop's geometric growth.
const (
	minObserveEntryBytes = len(`{"id":"a","size_gb":1},`)
	maxPooledFiles       = MaxObserveBytes / minObserveEntryBytes
	maxPooledBuf         = 2 * MaxObserveBytes
)

// poolable reports whether the scratch is within those bounds. One request
// under a raised -max-observe-bytes (or one plan over a huge population)
// must not pin its buffers for the life of the daemon.
func (sc *wireScratch) poolable() bool {
	return cap(sc.buf) <= maxPooledBuf && cap(sc.arena) <= maxPooledBuf &&
		cap(sc.req.Files) <= maxPooledFiles && cap(sc.spans) <= maxPooledFiles
}

// release returns the scratch to the pool, or drops it when it outgrew the
// bounds.
func (sc *wireScratch) release() {
	if sc.poolable() {
		wirePool.Put(sc)
	}
}

// readBody reads r to its end into the scratch's buffer and returns the
// bytes read. It is io.ReadAll over a reused buffer.
func (sc *wireScratch) readBody(r io.Reader) ([]byte, error) {
	buf := sc.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 4096))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.buf = buf
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// DecodeObserve parses a /v1/observe body into req. It accepts exactly the
// bodies json.Unmarshal accepts for *ObserveRequest and yields the same
// entries bit for bit; an error means the body is not a valid request.
// req.Files' array is reused: on return req.Files holds the decoded entries
// and nothing else (empty, not nil, when the body carries none). The IDs of
// one body share one string, so an ID kept past the request should be cloned
// (the store does).
func DecodeObserve(body []byte, req *ObserveRequest) error {
	sc := wirePool.Get().(*wireScratch)
	err := sc.decode(body, req)
	sc.release()
	return err
}

// errOffPlainPath is the scanner's internal signal that the body's
// structure needs encoding/json itself.
var errOffPlainPath = errors.New("agentserver: body off the scanner's plain path")

func (sc *wireScratch) decode(body []byte, req *ObserveRequest) error {
	d := observeDecoder{b: body, files: req.Files[:0], spans: sc.spans[:0], arena: sc.arena[:0]}
	err := d.request()
	sc.spans, sc.arena = d.spans, d.arena
	req.Files = d.files
	if err == errOffPlainPath {
		var whole ObserveRequest
		err = json.Unmarshal(body, &whole)
		req.Files = append(req.Files[:0], whole.Files...)
	}
	if err != nil {
		req.Files = req.Files[:0]
	}
	return err
}

// observeDecoder is the state of one scan: the body, the entries decoded so
// far, and each entry's ID as a span of arena. Every method takes the index
// of the token it reads and returns the index after it.
type observeDecoder struct {
	b     []byte
	files []FileObservation
	spans []idSpan
	arena []byte
}

// request reads the whole body: null or one object, then only whitespace.
func (d *observeDecoder) request() error {
	b := d.b
	i := skipSpace(b, 0)
	var err error
	switch {
	case i < len(b) && b[i] == 'n':
		i, err = scanLiteral(b, i, "null")
	case i < len(b) && b[i] == '{':
		i, err = d.object(i)
	default:
		err = errAt(b, i, "a JSON object")
	}
	if err != nil {
		return err
	}
	if i = skipSpace(b, i); i != len(b) {
		return errAt(b, i, "end of body")
	}
	// One string holds every ID; the entries take substrings of it.
	ids := string(d.arena)
	for k, sp := range d.spans {
		d.files[k].ID = ids[sp.off : sp.off+sp.n]
	}
	return nil
}

// object reads the top-level object at b[i] == '{'.
func (d *observeDecoder) object(i int) (int, error) {
	b := d.b
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	sawArray := false
	for {
		key, j, err := scanKey(b, i)
		if err != nil {
			return j, err
		}
		i = j
		switch {
		case !foldEqual(key, "files"):
			i, err = skipValue(b, i)
		case i < len(b) && b[i] == '[':
			if sawArray {
				// encoding/json decodes a second array over the first one's
				// elements, field by field.
				return i, errOffPlainPath
			}
			sawArray = true
			i, err = d.array(i)
		case i < len(b) && b[i] == 'n':
			d.files, d.spans = d.files[:0], d.spans[:0]
			i, err = scanLiteral(b, i, "null")
		default:
			err = errAt(b, i, `an array for "files"`)
		}
		if err != nil {
			return i, err
		}
		var more bool
		if i, more, err = scanSeparator(b, i, '}'); err != nil || !more {
			return i, err
		}
	}
}

// array reads the files array at b[i] == '['. A null element is an entry
// left at its zero value, as in encoding/json. An object element is first
// tried as the canonical entry; one that is not is read from its '{' again
// by the member loop.
func (d *observeDecoder) array(i int) (int, error) {
	b := d.b
	d.files, d.spans = d.files[:0], d.spans[:0]
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, nil
	}
	for {
		var err error
		switch {
		case i < len(b) && b[i] == '{':
			if end, ok := d.entry(i); ok {
				i = end
			} else {
				i, err = d.file(i)
			}
		case i < len(b) && b[i] == 'n':
			d.files = append(d.files, FileObservation{})
			d.spans = append(d.spans, idSpan{})
			i, err = scanLiteral(b, i, "null")
		default:
			err = errAt(b, i, "a file object")
		}
		if err != nil {
			return i, err
		}
		var more bool
		if i, more, err = scanSeparator(b, i, ']'); err != nil || !more {
			return i, err
		}
	}
}

// entry takes the element at b[i] == '{' when it is the canonical entry,
// {"id":"…","size_gb":N,"reads":N,"writes":N}: encoding/json's field order
// for FileObservation with no whitespace, a plain ID and exact numbers —
// what json.Marshal and the benchmark harness write. It compares the fixed
// literals, scans the ID and the numbers, and appends the entry only once
// the closing '}' is seen; on any other byte it appends nothing and reports
// false, and the caller reads the element from its '{' with the member
// loop. An entry taken here is the one the member loop would decode.
func (d *observeDecoder) entry(i int) (end int, ok bool) {
	// Each literal is compared as a constant, which the compiler does with
	// a few word loads instead of a call.
	const idKey, sizeKey, readsKey, writesKey = `{"id":"`, `,"size_gb":`, `,"reads":`, `,"writes":`
	b := d.b
	if len(b)-i < len(idKey) || string(b[i:i+len(idKey)]) != idKey {
		return i, false
	}
	idEnd, plain := scanString(b, i+len(idKey)-1)
	if !plain {
		return i, false
	}
	var f FileObservation
	j := idEnd
	if len(b)-j < len(sizeKey) || string(b[j:j+len(sizeKey)]) != sizeKey {
		return i, false
	}
	if j, f.SizeGB, ok = exactNumber(b, j+len(sizeKey)); !ok {
		return i, false
	}
	if len(b)-j < len(readsKey) || string(b[j:j+len(readsKey)]) != readsKey {
		return i, false
	}
	if j, f.Reads, ok = exactNumber(b, j+len(readsKey)); !ok {
		return i, false
	}
	if len(b)-j < len(writesKey) || string(b[j:j+len(writesKey)]) != writesKey {
		return i, false
	}
	if j, f.Writes, ok = exactNumber(b, j+len(writesKey)); !ok {
		return i, false
	}
	if j >= len(b) || b[j] != '}' {
		return i, false
	}
	id := b[i+len(idKey) : idEnd-1]
	d.files = append(d.files, f)
	d.spans = append(d.spans, idSpan{off: len(d.arena), n: len(id)})
	d.arena = append(d.arena, id...)
	return j + 1, true
}

// exactNumber reads the exact number at b[i]; ok is false when there is
// none.
//
//minicost:hotpath
func exactNumber(b []byte, i int) (end int, v float64, ok bool) {
	end, mant, frac, exact := scanNumber(b, i)
	if !exact {
		return i, 0, false
	}
	return end, exactFloat(b[i] == '-', mant, frac), true
}

// file reads one entry object at b[i] == '{' and appends it. Duplicate keys
// are last-wins and a null value leaves the field as it was.
func (d *observeDecoder) file(i int) (int, error) {
	b := d.b
	var f FileObservation
	var id idSpan
	i = skipSpace(b, i+1)
	more := i >= len(b) || b[i] != '}'
	if !more {
		i++
	}
	for more {
		key, j, err := scanKey(b, i)
		if err != nil {
			return j, err
		}
		i = j
		switch {
		case foldEqual(key, "id"):
			i, id, err = d.idValue(i, id)
		case foldEqual(key, "size_gb"):
			i, f.SizeGB, err = numberValue(b, i, f.SizeGB)
		case foldEqual(key, "reads"):
			i, f.Reads, err = numberValue(b, i, f.Reads)
		case foldEqual(key, "writes"):
			i, f.Writes, err = numberValue(b, i, f.Writes)
		default:
			i, err = skipValue(b, i)
		}
		if err != nil {
			return i, err
		}
		if i, more, err = scanSeparator(b, i, '}'); err != nil {
			return i, err
		}
	}
	d.files = append(d.files, f)
	d.spans = append(d.spans, id)
	return i, nil
}

// idValue reads an "id" value: null keeps old, a plain string is copied to
// the arena as it stands, and a string with an escape or a non-ASCII byte is
// unquoted by encoding/json first.
func (d *observeDecoder) idValue(i int, old idSpan) (int, idSpan, error) {
	b := d.b
	if i < len(b) && b[i] == 'n' {
		i, err := scanLiteral(b, i, "null")
		return i, old, err
	}
	if i >= len(b) || b[i] != '"' {
		return i, old, errAt(b, i, `a string for "id"`)
	}
	end, plain := scanString(b, i)
	if end < 0 {
		return len(b), old, errAt(b, len(b), "a closing quote")
	}
	sp := idSpan{off: len(d.arena)}
	if plain {
		d.arena = append(d.arena, b[i+1:end-1]...)
	} else {
		var s string
		if err := json.Unmarshal(b[i:end], &s); err != nil {
			return i, old, err
		}
		d.arena = append(d.arena, s...)
	}
	sp.n = len(d.arena) - sp.off
	return end, sp, nil
}

// numberValue reads a value for a float field: null keeps old; a number of
// at most 15 digits and no exponent is its integer mantissa over an exact
// power of ten, which IEEE division rounds correctly — the value
// strconv.ParseFloat returns; any other number goes to ParseFloat.
func numberValue(b []byte, i int, old float64) (int, float64, error) {
	if i < len(b) && b[i] == 'n' {
		i, err := scanLiteral(b, i, "null")
		return i, old, err
	}
	end, mant, frac, exact := scanNumber(b, i)
	if end < 0 {
		return i, old, errAt(b, i, "a number")
	}
	if exact {
		return end, exactFloat(b[i] == '-', mant, frac), nil
	}
	v, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return i, old, fmt.Errorf("agentserver: observe body offset %d: %w", i, err)
	}
	return end, v, nil
}

// exactFloat is the value of an exact number: its integer mantissa over an
// exact power of ten, negated when the number starts with a minus. The
// mantissa is under 10^15, so it converts as a signed integer, in one
// instruction.
func exactFloat(neg bool, mant uint64, frac int) float64 {
	v := float64(int64(mant)) / pow10[frac]
	if neg {
		v = -v
	}
	return v
}

// pow10[k] is 10^k, exact in a float64 up to k = 22.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// scanNumber scans the JSON number at b[i]. end is the index after it, or -1
// when b[i] does not start a number. exact reports that the number has no
// exponent and at most 15 digits in all; mant is then its digits as an
// integer (sign left out) and frac how many of them follow the point.
//
//minicost:hotpath
func scanNumber(b []byte, i int) (end int, mant uint64, frac int, exact bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
		digits = 1
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, mant, digits = scanDigits(b, i, 0)
	default:
		return -1, 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i, mant, frac = scanDigits(b, i+1, mant)
		if frac == 0 {
			return -1, 0, 0, false
		}
		digits += frac
	}
	exact = digits < len(pow10)
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		var n int
		if i, _, n = scanDigits(b, i, 0); n == 0 {
			return -1, 0, 0, false
		}
	}
	return i, mant, frac, exact
}

// scanDigits scans the run of decimal digits at b[i], appending them to
// mant (which wraps past 19 digits; exact is false by then), and returns the
// index after the run and how many digits it held.
//
//minicost:hotpath
func scanDigits(b []byte, i int, mant uint64) (end int, m uint64, n int) {
	start := i
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		mant = mant*10 + uint64(c)
	}
	return i, mant, i - start
}

// scanString scans the string at b[i] == '"'. end is the index after its
// closing quote, or -1 when there is none. plain reports that the bytes
// between the quotes are the string: printable ASCII without a backslash.
// Anything else — escapes, UTF-8, bytes no JSON string may hold — is left
// for encoding/json to unquote or refuse.
//
//minicost:hotpath
func scanString(b []byte, i int) (end int, plain bool) {
	plain = true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	return -1, false
}

// scanKey reads the object key at b[i] and the colon after it, and returns
// the key's bytes and the index of the value. A key that is not plain is for
// encoding/json to fold: the body leaves the plain path.
func scanKey(b []byte, i int) (key []byte, next int, err error) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, errAt(b, i, "an object key")
	}
	end, plain := scanString(b, i)
	if end < 0 {
		return nil, len(b), errAt(b, len(b), "a closing quote")
	}
	if !plain {
		return nil, i, errOffPlainPath
	}
	next = skipSpace(b, end)
	if next >= len(b) || b[next] != ':' {
		return nil, next, errAt(b, next, "':'")
	}
	return b[i+1 : end-1], skipSpace(b, next+1), nil
}

// scanSeparator reads what follows a member or element: a comma (more is
// true, and the index returned is that of the next member) or the closing
// byte.
func scanSeparator(b []byte, i int, closing byte) (next int, more bool, err error) {
	i = skipSpace(b, i)
	switch {
	case i < len(b) && b[i] == ',':
		return skipSpace(b, i+1), true, nil
	case i < len(b) && b[i] == closing:
		return i + 1, false, nil
	}
	return i, false, errAt(b, i, "',' or '"+string(closing)+"'")
}

// scanLiteral reads lit — null, true or false — at b[i].
func scanLiteral(b []byte, i int, lit string) (int, error) {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return i, errAt(b, i, lit)
	}
	return i + len(lit), nil
}

// skipValue reads past the value of an unknown key, checking only its
// syntax, as encoding/json does. Scalars are scanned here (a string that is
// not plain is validated by json.Valid); an object or array would have to be
// validated to the library's nesting limit counted from the top of the
// body, so it sends the body off the plain path.
func skipValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return i, errAt(b, i, "a value")
	}
	switch c := b[i]; {
	case c == '"':
		end, plain := scanString(b, i)
		if end < 0 || !plain && !json.Valid(b[i:end]) {
			return i, errAt(b, i, "a valid string")
		}
		return end, nil
	case c == '-' || '0' <= c && c <= '9':
		end, _, _, _ := scanNumber(b, i)
		if end < 0 {
			return i, errAt(b, i, "a number")
		}
		return end, nil
	case c == 'n':
		return scanLiteral(b, i, "null")
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == '{' || c == '[':
		return i, errOffPlainPath
	}
	return i, errAt(b, i, "a value")
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
//
//minicost:hotpath
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// foldEqual reports whether a plain key names the field: equal bytes, or
// equal once ASCII letters are upper-cased, which for an ASCII key is
// encoding/json's case folding.
//
//minicost:hotpath
func foldEqual(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(key); i++ {
		if upperASCII(key[i]) != upperASCII(name[i]) {
			return false
		}
	}
	return true
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
}

func errAt(b []byte, i int, want string) error {
	if i >= len(b) {
		return fmt.Errorf("agentserver: observe body ends where %s should be", want)
	}
	return fmt.Errorf("agentserver: observe body offset %d: %q where %s should be", i, b[i], want)
}

// AppendPlan appends p as JSON and a newline to dst, byte for byte what
// json.NewEncoder(w).Encode(p) writes. ElapsedMS must be finite — BuildPlan's
// always is, and encoding/json refuses any other; it is written as null
// then.
func AppendPlan(dst []byte, p *PlanResponse) []byte {
	// Room for the fixed members and entries with IDs of some twenty bytes;
	// append grows it for longer ones.
	dst = slices.Grow(dst, 160+64*len(p.Files))
	dst = appendPlanHead(dst, p)
	if p.Files == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		dst = appendPlanEntries(dst, p.Files)
		dst = append(dst, ']')
	}
	return appendPlanTail(dst, p)
}

// appendPlanBlocks is AppendPlan for a plan whose files array is already
// encoded: blocks are consecutive runs of it, each as appendPlanEntries
// wrote it (the server's plan view caches them, store.go), and p carries the
// scalar members; p.Files is not read. Joined by commas the blocks are the
// array, so the body is the one AppendPlan writes for the same entries.
func appendPlanBlocks(dst []byte, p *PlanResponse, blocks [][]byte) []byte {
	n := 160 + len(blocks)
	for _, b := range blocks {
		n += len(b)
	}
	dst = slices.Grow(dst, n)
	dst = appendPlanHead(dst, p)
	dst = append(dst, '[')
	for i, b := range blocks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, b...)
	}
	dst = append(dst, ']')
	return appendPlanTail(dst, p)
}

// appendPlanHead appends a plan up to the value of "files".
func appendPlanHead(dst []byte, p *PlanResponse) []byte {
	dst = append(dst, `{"day":`...)
	dst = strconv.AppendInt(dst, int64(p.Day), 10)
	return append(dst, `,"files":`...)
}

// appendPlanEntries appends the entries as the elements of a JSON array,
// comma-separated, without the brackets — the one per-entry encoder behind
// both a whole plan and a cached block of one.
func appendPlanEntries(dst []byte, files []PlanEntry) []byte {
	for i := range files {
		e := &files[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = appendString(dst, e.ID)
		dst = append(dst, `,"tier":`...)
		dst = appendString(dst, e.Tier)
		dst = append(dst, `,"changed":`...)
		dst = strconv.AppendBool(dst, e.Changed)
		dst = append(dst, '}')
	}
	return dst
}

// appendPlanTail appends the members after "files" and closes the plan.
func appendPlanTail(dst []byte, p *PlanResponse) []byte {
	dst = append(dst, `,"elapsed_ms":`...)
	// One float per plan: encoding/json's own formatting, not a copy of it.
	if ms, err := json.Marshal(p.ElapsedMS); err == nil {
		dst = append(dst, ms...)
	} else {
		dst = append(dst, "null"...)
	}
	dst = append(dst, `,"transitions":`...)
	dst = strconv.AppendInt(dst, int64(p.Transition), 10)
	dst = append(dst, `,"decided":`...)
	dst = strconv.AppendInt(dst, int64(p.Decided), 10)
	dst = append(dst, `,"full":`...)
	dst = strconv.AppendBool(dst, p.Full)
	return append(dst, "}\n"...)
}

// appendString appends s as a JSON string. A string encoding/json would
// write between quotes unchanged goes out that way; one it would escape, or
// repair, goes through it.
func appendString(dst []byte, s string) []byte {
	if !verbatimString(s) {
		quoted, _ := json.Marshal(s) // a string always marshals
		return append(dst, quoted...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// verbatimString reports whether encoding/json's HTML-escaping encoder
// writes s as it stands: no control byte, quote, backslash, <, > or &, valid
// UTF-8, and neither U+2028 nor U+2029.
//
//minicost:hotpath
func verbatimString(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !verbatimASCII[c] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// verbatimASCII[c] is true for the ASCII bytes that encoder never escapes.
var verbatimASCII = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
