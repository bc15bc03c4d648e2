package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV drives the trace loader — the repo's main untrusted parser —
// with arbitrary bytes. Invariants: ReadCSV never panics, and every trace
// it accepts (a) passes Validate and (b) survives a WriteCSV/ReadCSV
// round trip (formatF uses strconv 'g'/-1, which round-trips float64
// exactly).
func FuzzReadCSV(f *testing.F) {
	// A small valid trace as the structured seed.
	cfg := DefaultGenConfig()
	cfg.NumFiles, cfg.Days, cfg.Workers = 3, 4, 1
	tr, err := Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("days,2\nfile,0,1.5,0,dc1,1,2,3,4\n")
	f.Add("days,2\nfile,0,1.5,0,dc1,1,2,3,4\ngroup,0,0.5,0.25\n")
	f.Add("days,0\n")
	f.Add("days,9999999999\n") // no records: nothing may be sized by the day count alone
	f.Add("days,notanumber\n")
	f.Add("file,0\n")
	f.Add("days,1\nfile,0,nan,0,dc1,inf,-inf\n")
	f.Add("days,1\nunknown,record\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("WriteCSV of accepted trace: %v", err)
		}
		tr2, err := ReadCSV(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if tr2.Days != tr.Days || len(tr2.Files) != len(tr.Files) || len(tr2.Groups) != len(tr.Groups) {
			t.Fatalf("round trip changed shape: days %d->%d files %d->%d groups %d->%d",
				tr.Days, tr2.Days, len(tr.Files), len(tr2.Files), len(tr.Groups), len(tr2.Groups))
		}
	})
}
