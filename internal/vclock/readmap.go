package vclock

import (
	"fmt"
	"sort"
	"strings"
)

// ReadEntry is one entry of a read map: thread T last read the variable at
// clock C from program site Site. The site travels with the entry so that a
// later racing write can report the first access of the race (Section 4,
// "Reporting Races").
type ReadEntry struct {
	T    Thread
	C    uint64
	Site uint32
}

// Epoch returns the entry as a packed epoch C@T.
func (e ReadEntry) Epoch() Epoch { return MakeEpoch(e.T, e.C) }

// ReadMap records the reads that may still race with a future write
// (Section 2.2). A read map with one entry is an epoch; with several it is
// the read vector clock FastTrack falls back to for concurrent reads. The
// representation inlines the single-entry case and spills to a map only
// when reads are concurrent, matching FastTrack's adaptive design.
//
// The spilled map is treated as live representation only while n > 1;
// Clear, SetEpoch, and a shrinking Remove empty it but keep it allocated as
// a spare, so a variable whose reads repeatedly inflate and collapse pays
// the map allocation once, not per cycle.
//
// The zero value is the empty read map (equivalent to the epoch 0@0).
type ReadMap struct {
	single ReadEntry
	n      int
	m      map[Thread]ReadEntry // live iff n > 1; retained empty as a spare
}

// Size returns the number of entries |R|.
func (r *ReadMap) Size() int { return r.n }

// IsEmpty reports whether the read map has no entries.
func (r *ReadMap) IsEmpty() bool { return r.n == 0 }

// Single returns the sole entry of a one-entry read map. It panics when
// Size() != 1.
func (r *ReadMap) Single() ReadEntry {
	if r.n != 1 {
		panic(fmt.Sprintf("vclock: Single on read map of size %d", r.n))
	}
	return r.single
}

// Get returns the clock recorded for thread t and whether an entry exists.
func (r *ReadMap) Get(t Thread) (uint64, bool) {
	switch {
	case r.n == 0:
		return 0, false
	case r.n > 1:
		e, ok := r.m[t]
		return e.C, ok
	case r.single.T == t:
		return r.single.C, true
	default:
		return 0, false
	}
}

// Set records R[t] ← c (with its site), inflating to a map when a second
// thread appears. Inflation reuses the spare map if one is on hand.
func (r *ReadMap) Set(t Thread, c uint64, site uint32) {
	e := ReadEntry{T: t, C: c, Site: site}
	switch {
	case r.n == 0:
		r.single, r.n = e, 1
	case r.n > 1:
		if _, ok := r.m[t]; !ok {
			r.n++
		}
		r.m[t] = e
	case r.single.T == t:
		r.single = e
	default:
		if r.m == nil {
			r.m = make(map[Thread]ReadEntry, 2)
		}
		r.m[r.single.T] = r.single
		r.m[t] = e
		r.n = 2
	}
}

// SetEpoch collapses the read map to the single entry e (FastTrack's
// R ← epoch(t) update).
func (r *ReadMap) SetEpoch(e ReadEntry) {
	if r.n > 1 {
		clear(r.m)
	}
	r.single, r.n = e, 1
}

// Remove discards thread t's entry if present (PACER's non-sampling-period
// read update, Table 4 Rule 3) and reports whether an entry was removed.
func (r *ReadMap) Remove(t Thread) bool {
	switch {
	case r.n == 0:
		return false
	case r.n > 1:
		if _, ok := r.m[t]; !ok {
			return false
		}
		delete(r.m, t)
		r.n--
		if r.n == 1 {
			for _, e := range r.m {
				r.single = e
			}
			clear(r.m)
		}
		return true
	case r.single.T == t:
		r.Clear()
		return true
	default:
		return false
	}
}

// Clear empties the read map (FastTrack's modified write rule; PACER's
// metadata discarding). The spare map is retained.
func (r *ReadMap) Clear() {
	if r.n > 1 {
		clear(r.m)
	}
	r.single, r.n = ReadEntry{}, 0
}

// Leq reports R ⊑ C: every entry's clock is ≤ the corresponding component
// of vc. The empty map is ⊑ everything.
func (r *ReadMap) Leq(vc *VC) bool {
	switch {
	case r.n == 0:
		return true
	case r.n > 1:
		for t, e := range r.m {
			if e.C > vc.Get(t) {
				return false
			}
		}
		return true
	default:
		return r.single.C <= vc.Get(r.single.T)
	}
}

// Racing calls fn for each entry that does NOT happen before vc, i.e. each
// prior read that races with a write by a thread whose clock is vc.
// Entries are visited in ascending thread order so reports are
// deterministic.
func (r *ReadMap) Racing(vc *VC, fn func(ReadEntry)) {
	switch {
	case r.n == 0:
	case r.n > 1:
		ts := make([]Thread, 0, len(r.m))
		for t := range r.m {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, t := range ts {
			if e := r.m[t]; e.C > vc.Get(t) {
				fn(e)
			}
		}
	default:
		if r.single.C > vc.Get(r.single.T) {
			fn(r.single)
		}
	}
}

// ForEach visits every entry in ascending thread order.
func (r *ReadMap) ForEach(fn func(ReadEntry)) {
	switch {
	case r.n == 0:
	case r.n > 1:
		ts := make([]Thread, 0, len(r.m))
		for t := range r.m {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, t := range ts {
			fn(r.m[t])
		}
	default:
		fn(r.single)
	}
}

// MemoryWords approximates the read map's footprint in 8-byte words for the
// space accountant. A retained spare map is not charged: the accountant
// models the algorithm's live metadata (Figure 10), not spare capacity.
func (r *ReadMap) MemoryWords() int {
	if r.n > 1 {
		return 2 + 3*r.n
	}
	return 4
}

// String renders the read map as {c@t, …}.
func (r *ReadMap) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	r.ForEach(func(e ReadEntry) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d@%d", e.C, e.T)
	})
	b.WriteByte('}')
	return b.String()
}
