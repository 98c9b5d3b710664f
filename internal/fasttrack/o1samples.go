package fasttrack

import (
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
)

// O1Samples is the O(1)-samples preset of the engine (see the package
// documentation). It adds the sampling periods FASTTRACK lacks, so it is a
// detector.Sampler and *Detector is not.
type O1Samples struct{ *Detector }

var (
	_ detector.Sampler   = (*O1Samples)(nil)
	_ detector.Accounted = (*O1Samples)(nil)
	_ detector.Sharded   = (*O1Samples)(nil)
)

// NewO1Samples returns the preset over the store cfg describes, outside
// any sampling period.
func NewO1Samples(report detector.Reporter, cfg shardbase.Config) *O1Samples {
	d := newDetector(report, cfg, Options{})
	d.capped = true
	return &O1Samples{d}
}

// Name implements detector.Detector.
func (o *O1Samples) Name() string { return "o1samples" }

// Stages implements detector.Sharded: the no-metadata stage, which
// dismisses unsampled accesses to never-sampled variables, then the
// same-epoch stage, whose no-op holds in either period. A one-entry read
// map has no shared-read case for the owned-access stage to serve.
func (o *O1Samples) Stages() []detector.Stage {
	return []detector.Stage{
		{Name: detector.StageNoMetadata, Try: o.NoMetadata},
		{Name: detector.StageSameEpoch, Try: o.TrySameEpoch},
	}
}

// Sampling implements detector.Sampler.
func (o *O1Samples) Sampling() bool { return o.sampling }

// SampleBegin enters a sampling period. No clock advances: logical time
// never freezes, so only the recording flag flips.
func (o *O1Samples) SampleBegin() {
	if !o.sampling {
		o.sampling = true
		o.State().Publish(true)
	}
}

// SampleEnd leaves the sampling period. Records persist, since unsampled
// accesses check against them.
func (o *O1Samples) SampleEnd() {
	if o.sampling {
		o.sampling = false
		o.State().Publish(false)
	}
}

// MetadataWords implements detector.Accounted: the synchronization clocks
// plus six words per record (a write epoch and site, a read epoch and
// site, and their two mirrors). Like ReadMap.MemoryWords it counts the
// algorithm's words, not the engine's record layout.
func (o *O1Samples) MetadataWords() int {
	return o.sync.MetadataWords() + 6*o.VarsTracked()
}
