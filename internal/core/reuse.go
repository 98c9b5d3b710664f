package core

import (
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Thread identifier reuse, in the spirit of the accordion clocks the paper
// cites as the fix for its prototype's unbounded vector clock growth
// (Section 5.1: "Our prototype implementation does not reuse thread
// identifiers, so vector clock sizes are proportional to Total. A
// production implementation could use accordion clocks to reuse thread
// identifiers soundly").
//
// A slot u may be reassigned to a brand-new thread when:
//
//  1. u has terminated (ThreadExit) and been joined (so its final time has
//     propagated into its joiner, keeping happens-before intact), and
//  2. no surviving metadata names u: no write epoch c@u, no read map entry
//     by u, and no lock or volatile version epoch v@u. A stale epoch
//     naming u could otherwise be compared against the *new* thread's
//     clock component and silently look ordered.
//
// The reused slot keeps its clock and version vector, which are monotone:
// the new thread's own component continues from the old thread's final
// time, so epochs recorded by the new thread are strictly larger than any
// the old thread could have produced — third parties' stale C[u] values
// (≤ the old final time) correctly read as "have not synchronized with the
// new thread".

// Join also records that u has been joined, making its slot a reuse
// candidate; see the Join method in pacer.go and markJoined below.

func (d *Detector) markJoined(u vclock.Thread) {
	if d.joined == nil {
		d.joined = make(map[vclock.Thread]bool)
	}
	d.joined[u] = true
}

// referenced reports whether any live metadata names thread u.
func (d *Detector) referenced(u vclock.Thread) bool {
	found := false
	d.Range(func(_ event.Var, m *varMeta) bool {
		if !m.w.IsZero() && m.w.Thread() == u {
			found = true
			return false
		}
		if _, ok := m.r.Get(u); ok {
			found = true
			return false
		}
		return true
	})
	if found {
		return true
	}
	for _, s := range d.locks {
		if !s.vepoch.IsTop() && s.vepoch != vclock.VEBottom && s.vepoch.Thread() == u {
			return true
		}
	}
	for _, s := range d.vols {
		if !s.vepoch.IsTop() && s.vepoch != vclock.VEBottom && s.vepoch.Thread() == u {
			return true
		}
	}
	return false
}

// ReusableThread returns a dead, joined, unreferenced thread slot and
// revives it for a new thread, or reports false when none is available.
// The scan is O(tracked variables + locks); callers fork rarely relative
// to accesses, so this costs far less than letting clocks grow without
// bound.
func (d *Detector) ReusableThread() (vclock.Thread, bool) {
	for u := range d.joined {
		if !d.dead[u] || d.referenced(u) {
			continue
		}
		delete(d.joined, u)
		delete(d.dead, u)
		// The slot keeps its monotone clock and version vector; bump both
		// so the new thread's first epoch is distinct from the old
		// thread's final state even before any synchronization.
		tm := d.thread(u)
		d.ownThreadClock(u, tm)
		tm.clock.Inc(u)
		tm.ver.Inc(u)
		d.publishVersion(u, tm)
		return u, true
	}
	return vclock.NoThread, false
}

// ThreadSlots returns the number of thread slots ever created — with
// reuse, the vector clock width.
func (d *Detector) ThreadSlots() int { return len(d.threads) }
