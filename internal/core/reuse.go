package core

import (
	"sort"

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
//
// The bound this buys: vector clocks are as wide as the threads alive at
// once plus the joined slots that no forking thread has received the final
// version of. Only a thread that received u's own version can reuse u, and
// receiving the joiner's clock later does not raise ver_p(u). So when one
// thread forks and another joins, as a dispatcher hands work to
// goroutines a collector joins, the forker never qualifies and no slot is
// ever reused: the free list grows by one entry per join and the clocks by
// one thread per fork, exactly as without reuse. 8,000 such fork/join
// pairs through the public API end with clocks 8,002 wide. A fork by the
// joiner itself reuses at once.

// A fork examines each listed slot about once. A version vector entry
// ver_p(u) changes only when recordVersion raises it, so a slot u that
// failed p's check keeps failing it until p receives a newer version of u
// itself: u's recorded version only grows while it stays listed, and a
// revived slot is listed anew, behind every slot listed before. Each
// thread therefore keeps a watermark below which every listed slot has
// failed its check, and a fork examines only the slots listed above it.
// recordVersion lowers the mark to just below u's listing when it raises
// ver_p(u) for a slot u listed at or below it, and leaves it alone for any
// other thread's version, so a parent that forks while other threads join
// its children examines each joined slot once, not once per fork, however
// much it synchronizes with the joiners, as long as it never receives a
// joined child's version. Revived slots leave their entries behind,
// compacted away once they are half the list.

// freeSlot is one entry of the free list: a joined slot and its listing
// number, which identifies the listing (threadMeta.listed).
type freeSlot struct {
	t   vclock.Thread
	seq uint64
}

// retire lists u, joined at version ver, as a candidate for reuse.
func (d *Detector) retire(u vclock.Thread, um *threadMeta, ver uint64) {
	if um.retired == 0 {
		d.listings++
		um.listed = d.listings
		d.free = append(d.free, freeSlot{u, um.listed})
	}
	um.retired = ver
}

// revive takes the listed slot u off the free list for a new thread and
// advances its clock and version past everything the old thread left.
func (d *Detector) revive(u vclock.Thread, um *threadMeta) {
	um.retired, um.listed = 0, 0
	if d.unlisted++; 2*d.unlisted > len(d.free) {
		live := d.free[:0]
		for _, e := range d.free {
			if d.threads[e.t].listed == e.seq {
				live = append(live, e)
			}
		}
		clear(d.free[len(live):])
		d.free, d.unlisted = live, 0
	}
	delete(d.dead, u)
	d.ownThreadClock(um, 0)
	um.clock.Inc(u)
	um.ver.Inc(u)
	d.publishVersion(u, um)
}

// ReusableThread returns the first listed slot whose recorded version
// parent has received, for parent's next Fork, or reports false when none
// qualifies. It changes nothing but parent's watermark, so, like Fork,
// which revives the slot, it needs exclusive access.
func (d *Detector) ReusableThread(parent vclock.Thread) (vclock.Thread, bool) {
	if d.opts != (Options{}) || int(parent) >= len(d.threads) || d.threads[parent] == nil {
		return vclock.NoThread, false
	}
	pm := d.threads[parent]
	i := sort.Search(len(d.free), func(i int) bool { return d.free[i].seq > pm.scanned })
	for _, e := range d.free[i:] {
		um := d.threads[e.t]
		if um.listed == e.seq && e.t != parent {
			d.reuseChecks++
			if pm.ver.Get(e.t) >= um.retired {
				return e.t, true
			}
		}
		pm.scanned = e.seq
	}
	return vclock.NoThread, false
}

// ThreadSlots returns the number of thread slots ever created — with
// reuse, the vector clock width.
func (d *Detector) ThreadSlots() int { return len(d.threads) }
