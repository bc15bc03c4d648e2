package main

import (
	"fmt"
	"math"
	"strconv"

	"minicost/internal/agentserver"
	"minicost/internal/rng"
)

// cycleDays is the period of the synthetic request rhythm: day d's
// observations equal day d+7's, so seven pre-encoded sweeps cover any run
// length.
const cycleDays = 7

// population is the seeded synthetic file set every serving workload draws
// from: IDs f%08d, sizes spread over three orders of magnitude, request
// rates on a weekly rhythm so every sweep changes every file's features.
// The daemon only ever sees what observation/appendBody produce from it.
type population struct {
	ids  []string
	base []float64 // per-file draw in [0,1) fixing its size and rate scale
}

func newPopulation(seed uint64, n int) *population {
	p := &population{ids: make([]string, n), base: make([]float64, n)}
	for i := range p.ids {
		p.ids[i] = fmt.Sprintf("f%08d", i)
		p.base[i] = rng.New(seed + uint64(i)*2654435761).Float64()
	}
	return p
}

// observation is file i's measurement on the given day. Reads and writes
// are whole numbers and size_gb has three decimals, so the JSON body and
// this struct carry bit-identical values. drifted selects the cold-and-bulky
// regime (sizes ~8× up, read rates ~100× down) that cmd/loadgen -drift uses
// to move the learner's drift detector.
func (p *population) observation(i, day int, drifted bool) agentserver.FileObservation {
	b := p.base[i]
	phase := (i + day) % cycleDays
	size, reads, writes := 0.01+b*b*50, b*2000, b*20
	if drifted {
		size, reads, writes = 0.1+b*b*400, b*20, b*2
	}
	return agentserver.FileObservation{
		ID:     p.ids[i],
		SizeGB: math.Round(size*1000) / 1000,
		Reads:  math.Floor(reads * float64(1+phase) / cycleDays),
		Writes: math.Floor(writes * float64(1+phase%3) / 3),
	}
}

// fill writes files [lo,hi)'s observations for the day into dst[:hi-lo].
func (p *population) fill(dst []agentserver.FileObservation, lo, hi, day int, drifted bool) []agentserver.FileObservation {
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		dst = append(dst, p.observation(i, day, drifted))
	}
	return dst
}

// appendBody appends the /v1/observe JSON body for files [lo,hi) on the
// given day. Hand-rolled so the generator never becomes the bottleneck.
func (p *population) appendBody(dst []byte, lo, hi, day int, drifted bool) []byte {
	dst = append(dst, `{"files":[`...)
	for i := lo; i < hi; i++ {
		o := p.observation(i, day, drifted)
		if i > lo {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":"`...)
		dst = append(dst, o.ID...)
		dst = append(dst, `","size_gb":`...)
		dst = strconv.AppendFloat(dst, o.SizeGB, 'f', 3, 64)
		dst = append(dst, `,"reads":`...)
		dst = strconv.AppendInt(dst, int64(o.Reads), 10)
		dst = append(dst, `,"writes":`...)
		dst = strconv.AppendInt(dst, int64(o.Writes), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// sweepBodies pre-encodes one full-population sweep per cycle day:
// bodies[day%cycleDays][batch].
func (p *population) sweepBodies(batch int, drifted bool) [][][]byte {
	n := len(p.ids)
	out := make([][][]byte, cycleDays)
	for d := range out {
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			out[d] = append(out[d], p.appendBody(nil, lo, hi, d, drifted))
		}
	}
	return out
}
