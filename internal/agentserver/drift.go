package agentserver

// drift.go is the ingest side of the online learner's drift detector
// (internal/online/drift.go scores what is counted here): with a learner
// attached, every shard buckets each ingested observation — daily reads,
// daily writes, size, and the file's observed days since it was last active
// — into fixed-edge histograms under the shard lock ingest already holds.
// Counts are integers, so the sum the learner drains is the same whatever
// order the shard fan-out ran in.

// Drift dimensions, the first index of DriftCounts.
const (
	DriftReads = iota
	DriftWrites
	DriftSize
	DriftGap
	NumDriftDims
)

// DriftBuckets is the bucket count per dimension: bucket i holds values v
// with edge[i-1] <= v < edge[i].
const DriftBuckets = 8

// driftEdges are fixed and log-scale, spanning the workload ranges the paper
// and the smoke scripts produce, so bucketing allocates nothing and a count
// is a function of the observed values alone. Rows: operations per file per
// day (reads, writes), size in GB (the smoke traffic spans 0.01–50), and
// inter-access gap in per-file observed days.
var driftEdges = [NumDriftDims][DriftBuckets - 1]float64{
	DriftReads:  {0.5, 5, 50, 500, 5e3, 5e4, 5e5},
	DriftWrites: {0.5, 5, 50, 500, 5e3, 5e4, 5e5},
	DriftSize:   {0.02, 0.1, 0.5, 2, 10, 50, 250},
	DriftGap:    {1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5},
}

// DriftCounts is one histogram per drift dimension.
type DriftCounts [NumDriftDims][DriftBuckets]uint64

// Observe counts one sample of dimension dim. Linear scan: seven edges are
// shorter than a branchy binary search for values that concentrate in the
// low buckets.
//
//minicost:hotpath
func (c *DriftCounts) Observe(dim int, v float64) {
	edges := &driftEdges[dim]
	i := 0
	for i < len(edges) && v >= edges[i] {
		i++
	}
	c[dim][i]++
}

// Add folds src's counts into c.
//
//minicost:hotpath
func (c *DriftCounts) Add(src *DriftCounts) {
	for d := range c {
		for i := range c[d] {
			c[d][i] += src[d][i]
		}
	}
}
