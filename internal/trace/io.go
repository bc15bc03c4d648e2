package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The CSV layout is record-typed so one file can carry metadata, series and
// groups:
//
//	days,<D>
//	file,<id>,<sizeGB>,<bucket>,<datacenter>,r0,...,rD-1,w0,...,wD-1
//	group,<m0;m1;...>,c0,...,cD-1
//
// Readers accept records in any order after the leading "days" record.

// WriteCSV serializes the trace.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"days", strconv.Itoa(tr.Days)}); err != nil {
		return err
	}
	// Grown by the first record and reused; sizing it from tr.Days up front
	// let an empty trace declaring billions of days exhaust memory.
	var rec []string
	for i, f := range tr.Files {
		rec = rec[:0]
		rec = append(rec, "file",
			strconv.Itoa(f.ID),
			formatF(f.SizeGB),
			strconv.Itoa(f.Bucket),
			f.Datacenter)
		for _, v := range tr.Reads[i] {
			rec = append(rec, formatF(v))
		}
		for _, v := range tr.Writes[i] {
			rec = append(rec, formatF(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	for _, g := range tr.Groups {
		rec = rec[:0]
		members := make([]string, len(g.Members))
		for j, m := range g.Members {
			members[j] = strconv.Itoa(m)
		}
		rec = append(rec, "group", strings.Join(members, ";"))
		for _, v := range g.Concurrent {
			rec = append(rec, formatF(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ReadCSV parses a trace written by WriteCSV and validates it.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if len(first) != 2 || first[0] != "days" {
		return nil, fmt.Errorf("trace: expected days record, got %v", first)
	}
	days, err := strconv.Atoi(first[1])
	if err != nil || days <= 0 {
		return nil, fmt.Errorf("trace: bad day count %q", first[1])
	}
	tr := &Trace{Days: days}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case "file":
			if len(rec) != 5+2*days {
				return nil, fmt.Errorf("trace: line %d: file record has %d fields, want %d", line, len(rec), 5+2*days)
			}
			id, err := strconv.Atoi(rec[1])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: id: %w", line, err)
			}
			size, err := strconv.ParseFloat(rec[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: size: %w", line, err)
			}
			bucket, err := strconv.Atoi(rec[3])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bucket: %w", line, err)
			}
			reads, err := parseFloats(rec[5 : 5+days])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: reads: %w", line, err)
			}
			writes, err := parseFloats(rec[5+days:])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: writes: %w", line, err)
			}
			tr.Files = append(tr.Files, FileMeta{ID: id, SizeGB: size, Bucket: bucket, Datacenter: rec[4]})
			tr.Reads = append(tr.Reads, reads)
			tr.Writes = append(tr.Writes, writes)
		case "group":
			if len(rec) != 2+days {
				return nil, fmt.Errorf("trace: line %d: group record has %d fields, want %d", line, len(rec), 2+days)
			}
			var members []int
			for _, s := range strings.Split(rec[1], ";") {
				m, err := strconv.Atoi(s)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: member %q: %w", line, s, err)
				}
				members = append(members, m)
			}
			conc, err := parseFloats(rec[2:])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: concurrency: %w", line, err)
			}
			tr.Groups = append(tr.Groups, Group{Members: members, Concurrent: conc})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record type %q", line, rec[0])
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	for i, s := range fields {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
