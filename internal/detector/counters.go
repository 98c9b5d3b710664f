package detector

// Period indexes counters by whether the operation happened during a
// sampling period.
type Period int

const (
	// NonSampling indexes operations outside sampling periods.
	NonSampling Period = 0
	// Sampling indexes operations inside sampling periods.
	Sampling Period = 1
)

// PeriodOf converts a sampling flag to a Period index.
func PeriodOf(sampling bool) Period {
	if sampling {
		return Sampling
	}
	return NonSampling
}

// Counters tallies the analysis operations that Table 3 of the paper
// reports, split by sampling vs non-sampling period, plus the work totals
// the cost model (Figures 7-9) is built from. Detectors without sampling
// record everything under the Sampling index, since they behave as if
// always sampling.
type Counters struct {
	// SlowJoins counts vector clock joins that required O(n) work (an
	// element-wise comparison or join). FastJoins counts joins avoided in
	// O(1) via version epochs.
	SlowJoins, FastJoins [2]uint64
	// DeepCopies counts element-by-element vector clock copies;
	// ShallowCopies counts PACER's O(1) shared copies.
	DeepCopies, ShallowCopies [2]uint64
	// ReadSlow/WriteSlow count data accesses that executed the analysis
	// slow path; ReadFast/WriteFast count accesses dispatched by the inline
	// fast-path check (no metadata and not sampling → no action).
	ReadSlow, ReadFast   [2]uint64
	WriteSlow, WriteFast [2]uint64
	// SyncOps counts synchronization operations (acq/rel/fork/join/volatile
	// accesses), which the sampling controller uses as its measure of
	// program work (Section 4).
	SyncOps [2]uint64
	// Increments counts vector clock increments actually performed.
	Increments [2]uint64
	// Clones counts copy-on-write clones of shared clocks.
	Clones [2]uint64
	// JoinWork and CopyWork accumulate the vector lengths touched by slow
	// joins and deep copies: the O(n) element work driving the cost model.
	JoinWork, CopyWork uint64
	// Races counts reported races.
	Races uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	for p := 0; p < 2; p++ {
		c.SlowJoins[p] += o.SlowJoins[p]
		c.FastJoins[p] += o.FastJoins[p]
		c.DeepCopies[p] += o.DeepCopies[p]
		c.ShallowCopies[p] += o.ShallowCopies[p]
		c.ReadSlow[p] += o.ReadSlow[p]
		c.ReadFast[p] += o.ReadFast[p]
		c.WriteSlow[p] += o.WriteSlow[p]
		c.WriteFast[p] += o.WriteFast[p]
		c.SyncOps[p] += o.SyncOps[p]
		c.Increments[p] += o.Increments[p]
		c.Clones[p] += o.Clones[p]
	}
	c.JoinWork += o.JoinWork
	c.CopyWork += o.CopyWork
	c.Races += o.Races
}

// TotalReads returns all observed reads.
func (c *Counters) TotalReads() uint64 {
	return c.ReadSlow[0] + c.ReadSlow[1] + c.ReadFast[0] + c.ReadFast[1]
}

// TotalWrites returns all observed writes.
func (c *Counters) TotalWrites() uint64 {
	return c.WriteSlow[0] + c.WriteSlow[1] + c.WriteFast[0] + c.WriteFast[1]
}

// TotalSyncOps returns all observed synchronization operations.
func (c *Counters) TotalSyncOps() uint64 {
	return c.SyncOps[0] + c.SyncOps[1]
}
