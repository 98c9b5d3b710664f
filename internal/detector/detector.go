// Package detector defines the interface shared by every race detector in
// this repository (GENERIC, FASTTRACK, PACER, LITERACE), the race report
// type, operation counters reproducing Table 3, and helpers for replaying
// traces through detectors.
package detector

import (
	"fmt"

	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Detector is the dynamic analysis interface. A detector observes every
// synchronization operation and (depending on sampling) data accesses, and
// reports data races through its reporter callback. Implementations are not
// safe for concurrent use; callers serialize events in execution order,
// which is exactly what the paper's per-operation instrumentation does
// under its low-level metadata synchronization.
type Detector interface {
	// Read observes rd(t, x) at program location site within method.
	Read(t vclock.Thread, x event.Var, site event.Site, method uint32)
	// Write observes wr(t, x).
	Write(t vclock.Thread, x event.Var, site event.Site, method uint32)
	// Acquire observes acq(t, m).
	Acquire(t vclock.Thread, m event.Lock)
	// Release observes rel(t, m).
	Release(t vclock.Thread, m event.Lock)
	// Fork observes fork(t, u).
	Fork(t, u vclock.Thread)
	// Join observes join(t, u).
	Join(t, u vclock.Thread)
	// VolRead observes vol_rd(t, vx).
	VolRead(t vclock.Thread, vx event.Volatile)
	// VolWrite observes vol_wr(t, vx).
	VolWrite(t vclock.Thread, vx event.Volatile)
	// Name identifies the algorithm, e.g. "pacer".
	Name() string
}

// Sampler is implemented by detectors that honor global sampling periods
// (PACER). SampleBegin and SampleEnd correspond to the sbegin()/send()
// actions of Appendix A.
type Sampler interface {
	SampleBegin()
	SampleEnd()
	Sampling() bool
}

// Apply dispatches a single event to d. Sampling events are forwarded only
// to detectors implementing Sampler.
func Apply(d Detector, e event.Event) {
	switch e.Kind {
	case event.Read:
		d.Read(e.Thread, event.Var(e.Target), e.Site, e.Method)
	case event.Write:
		d.Write(e.Thread, event.Var(e.Target), e.Site, e.Method)
	case event.Acquire:
		d.Acquire(e.Thread, event.Lock(e.Target))
	case event.Release:
		d.Release(e.Thread, event.Lock(e.Target))
	case event.Fork:
		d.Fork(e.Thread, vclock.Thread(e.Target))
	case event.Join:
		d.Join(e.Thread, vclock.Thread(e.Target))
	case event.VolRead:
		d.VolRead(e.Thread, event.Volatile(e.Target))
	case event.VolWrite:
		d.VolWrite(e.Thread, event.Volatile(e.Target))
	case event.SampleBegin:
		if s, ok := d.(Sampler); ok {
			s.SampleBegin()
		}
	case event.SampleEnd:
		if s, ok := d.(Sampler); ok {
			s.SampleEnd()
		}
	default:
		panic(fmt.Sprintf("detector: unknown event kind %v", e.Kind))
	}
}

// Replay feeds an entire trace to d in order.
func Replay(d Detector, tr event.Trace) {
	for _, e := range tr {
		Apply(d, e)
	}
}
