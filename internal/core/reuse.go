package core

import (
	"slices"

	"pacer/internal/vclock"
)

// Thread identifier reuse, in the spirit of the accordion clocks the paper
// cites as the fix for its prototype's unbounded vector clock growth
// (Section 5.1: "Our prototype implementation does not reuse thread
// identifiers, so vector clock sizes are proportional to Total. A
// production implementation could use accordion clocks to reuse thread
// identifiers soundly").
//
// Join(t, u) retires u: it records u's final version Ver(u) = ver_u(u)
// (before the join's inc(u)) and lists the slot. A fork by parent p may
// hand a listed slot u to its new child when
//
//	ver_p(u) ≥ the recorded version of u,
//
// one comparison per listed slot. The condition says p has received a
// snapshot of u at or after u's last clock change (every change of a
// thread's clock advances its version), so C_p ⊒ u's final clock. Fork
// then revives the slot: its clock and version vector are kept and both
// advance u's own component, so the new thread's values continue strictly
// above every value the old thread produced or published, and its clock
// (the old one joined with C_p) equals the clock a fresh identifier would
// get from p, but for the one component. The kept version vector records
// only snapshots the old clock, and so the new one, already holds.
//
// That makes every surviving metadatum naming u, a write epoch c@u, a
// read-map entry, or a lock's or volatile's version epoch v@u, compare
// exactly as it would against a fresh identifier. A clock that holds none
// of the new thread's values has the same u component it would have had.
// A clock that holds some has received the new thread's clock, hence C_p
// and all of the old thread, as it would have through the fresh thread's
// fork edge. And the new thread's own epochs and versions lie above
// anything the old one left. Nothing needs to be scanned for stale
// references; the condition costs nothing at Join and one comparison per
// candidate at Fork.
//
// Reuse is offered only by the full algorithm (zero Options), the
// configuration that publishes version epochs too. Fork revives a listed
// slot whichever way its identifier was chosen, so replaying a recorded
// trace that re-forks an identifier (pacer.Detector.Apply) analyses it
// exactly as the live run did.

// retire lists u, joined at version ver, as a candidate for reuse.
func (d *Detector) retire(u vclock.Thread, um *threadMeta, ver uint64) {
	if um.retired == 0 {
		d.free = append(d.free, u)
	}
	um.retired = ver
}

// revive takes the listed slot u off the free list for a new thread and
// advances its clock and version past everything the old thread left.
func (d *Detector) revive(u vclock.Thread, um *threadMeta) {
	if i := slices.Index(d.free, u); i >= 0 {
		d.free = slices.Delete(d.free, i, i+1)
	}
	um.retired = 0
	delete(d.dead, u)
	d.ownThreadClock(u, um, 0)
	um.clock.Inc(u)
	um.ver.Inc(u)
	d.publishVersion(u, um)
}

// ReusableThread returns the first listed slot whose recorded version
// parent has received, for parent's next Fork, or reports false when none
// qualifies. It changes nothing: Fork revives the slot.
func (d *Detector) ReusableThread(parent vclock.Thread) (vclock.Thread, bool) {
	if d.opts != (Options{}) || int(parent) >= len(d.threads) || d.threads[parent] == nil {
		return vclock.NoThread, false
	}
	ver := d.threads[parent].ver
	for _, u := range d.free {
		if u != parent && ver.Get(u) >= d.threads[u].retired {
			return u, true
		}
	}
	return vclock.NoThread, false
}

// ThreadSlots returns the number of thread slots ever created — with
// reuse, the vector clock width.
func (d *Detector) ThreadSlots() int { return len(d.threads) }
