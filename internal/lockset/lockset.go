// Package lockset implements the Eraser-style lockset race detector
// (Savage et al., SOSP 1997) that Section 6.2 of the PACER paper discusses
// as the imprecise alternative to happens-before tracking: it checks a
// locking discipline — every shared variable is consistently protected by
// some common lock — rather than the happens-before relation itself.
//
// Lockset is cheap and schedule-insensitive, but *imprecise*: programs
// synchronized by fork/join, volatiles, or lock-free handoff violate the
// discipline without racing, producing false positives. The package exists
// as a baseline so the repository's tests can demonstrate the paper's
// argument for precise vector-clock detection (see the differential tests
// against FASTTRACK).
package lockset

import (
	"sort"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// state is the Eraser per-variable state machine, which delays lockset
// refinement until a variable is genuinely shared to avoid false positives
// on initialization patterns.
type state uint8

const (
	// virgin: never accessed.
	virgin state = iota
	// exclusive: accessed by a single thread so far.
	exclusive
	// shared: read by multiple threads, never written after sharing —
	// lockset is refined but empty locksets are not reported.
	shared
	// sharedModified: written while shared; an empty lockset is a report.
	sharedModified
)

// varState tracks one variable.
type varState struct {
	st        state
	owner     vclock.Thread
	candidate map[event.Lock]struct{} // nil until refinement starts
	reported  bool
	lastSite  event.Site
	lastWrite event.Site
}

// Detector is the lockset analysis. It is not safe for concurrent use.
type Detector struct {
	vars   map[event.Var]*varState
	held   map[vclock.Thread]map[event.Lock]struct{}
	report detector.Reporter
	stats  detector.Counters
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Accounted = (*Detector)(nil)
)

// New returns a lockset detector reporting discipline violations to
// report. Each variable is reported at most once (Eraser's behaviour).
func New(report detector.Reporter) *Detector {
	return &Detector{
		vars:   make(map[event.Var]*varState),
		held:   make(map[vclock.Thread]map[event.Lock]struct{}),
		report: report,
	}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "lockset" }

// Stats returns the detector's operation counters.
func (d *Detector) Stats() *detector.Counters { return &d.stats }

// VarsTracked implements detector.Accounted.
func (d *Detector) VarsTracked() int { return len(d.vars) }

// MetadataWords implements detector.Accounted. A variable costs four
// words of Eraser state (its state and owner, the candidate set's
// pointer, the reported flag and the two sites) plus one word per lock
// in its candidate set. The per-thread held sets are synchronization
// state and are not counted.
func (d *Detector) MetadataWords() int {
	w := 0
	for _, v := range d.vars {
		w += 4 + len(v.candidate)
	}
	return w
}

func (d *Detector) heldBy(t vclock.Thread) map[event.Lock]struct{} {
	h, ok := d.held[t]
	if !ok {
		h = make(map[event.Lock]struct{})
		d.held[t] = h
	}
	return h
}

// refine intersects the candidate set with the locks held by t, starting
// from t's current holdings on the first refinement.
func (v *varState) refine(held map[event.Lock]struct{}) {
	if v.candidate == nil {
		v.candidate = make(map[event.Lock]struct{}, len(held))
		for l := range held {
			v.candidate[l] = struct{}{}
		}
		return
	}
	for l := range v.candidate {
		if _, ok := held[l]; !ok {
			delete(v.candidate, l)
		}
	}
}

// Locks returns the variable's current candidate lockset, for tests.
func (d *Detector) Locks(x event.Var) []event.Lock {
	v, ok := d.vars[x]
	if !ok || v.candidate == nil {
		return nil
	}
	out := make([]event.Lock, 0, len(v.candidate))
	for l := range v.candidate {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *Detector) access(t vclock.Thread, x event.Var, site event.Site, isWrite bool) {
	v, ok := d.vars[x]
	if !ok {
		v = &varState{st: virgin, owner: vclock.NoThread}
		d.vars[x] = v
	}
	held := d.heldBy(t)

	switch v.st {
	case virgin:
		v.st = exclusive
		v.owner = t
	case exclusive:
		if t == v.owner {
			break
		}
		// Second thread: transition to shared (reads) or shared-modified
		// (writes) and begin refining.
		v.refine(held)
		if isWrite {
			v.st = sharedModified
		} else {
			v.st = shared
		}
	case shared:
		v.refine(held)
		if isWrite {
			v.st = sharedModified
		}
	case sharedModified:
		v.refine(held)
	}

	if v.st == sharedModified && len(v.candidate) == 0 && !v.reported {
		v.reported = true
		d.stats.Races++
		if d.report != nil {
			kind := detector.WriteRead
			if isWrite {
				kind = detector.WriteWrite
			}
			first := v.lastWrite
			if first == 0 {
				first = v.lastSite
			}
			d.report(detector.Race{
				Var: x, Kind: kind,
				FirstThread: v.owner, SecondThread: t,
				FirstSite: first, SecondSite: site,
			})
		}
	}
	v.lastSite = site
	if isWrite {
		v.lastWrite = site
	}
}

// Read observes rd(t, x).
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	d.stats.ReadSlow[detector.Sampling]++
	d.access(t, x, site, false)
}

// Write observes wr(t, x).
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	d.stats.WriteSlow[detector.Sampling]++
	d.access(t, x, site, true)
}

// Acquire adds m to t's held set.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) {
	d.stats.SyncOps[detector.Sampling]++
	d.heldBy(t)[m] = struct{}{}
}

// Release removes m from t's held set.
func (d *Detector) Release(t vclock.Thread, m event.Lock) {
	d.stats.SyncOps[detector.Sampling]++
	delete(d.heldBy(t), m)
}

// Fork is ignored: the locking discipline has no notion of fork/join
// ordering — the source of lockset's false positives.
func (d *Detector) Fork(t, u vclock.Thread) { d.stats.SyncOps[detector.Sampling]++ }

// Join is ignored (see Fork).
func (d *Detector) Join(t, u vclock.Thread) { d.stats.SyncOps[detector.Sampling]++ }

// VolRead is ignored: volatile synchronization is invisible to the
// discipline.
func (d *Detector) VolRead(t vclock.Thread, vx event.Volatile) {
	d.stats.SyncOps[detector.Sampling]++
}

// VolWrite is ignored (see VolRead).
func (d *Detector) VolWrite(t vclock.Thread, vx event.Volatile) {
	d.stats.SyncOps[detector.Sampling]++
}
