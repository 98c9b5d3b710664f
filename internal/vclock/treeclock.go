package vclock

import "sync"

// This file implements the last-update-aware ("tree clock") timestamp
// representation behind the ordinary VC API, following Mathur,
// Pavlogiannis, and Viswanathan, "Tree Clocks: An Efficient Data Structure
// for Dynamic Race Detection" (PLDI 2022), adapted for PACER's sampling
// regime. The flat entry array v.c stays authoritative at all times —
// Get, Leq, Equal, and the differential suites read it directly — and the
// tree is a pruning index layered on top of it, so every fallback path is
// trivially sound: dropping the tree yields a plain flat clock.
//
// # Why labels instead of clock values
//
// The published tree-clock algorithm prunes joins by comparing clock
// values: a subtree rooted at thread i's entry can be skipped when the
// destination has already absorbed a publication of i with an equal or
// larger C(i). That is sound only when every publication of a clock is
// preceded by an increment of the publisher's own component, so distinct
// publications carry distinct C(i). PACER violates exactly that: outside
// sampling periods inc is elided (Algorithm 10), and a thread's clock can
// change through joins without its own component moving, so two distinct
// publications can share one C(i) and value-based pruning would skip real
// knowledge. Instead, every tree-backed clock carries a private label
// counter (lclk) that advances on every mutation, and all pruning runs in
// label space:
//
//   - lbl[i] is the label of thread i's publication this clock absorbed
//     (0 = thread i has no node here). ABSORB: lbl[i] = L implies this
//     clock contains everything thread i's clock contained at label L.
//   - ack[i] is the attach label: the label of the parent thread's
//     publication stream at the moment i's subtree was (re)attached.
//     Children hang in descending ack order, so a join walk can stop
//     scanning a child list at the first already-covered entry.
//
// Labels are strictly monotone per publisher regardless of the caller's
// inc discipline, which restores the pruning soundness argument for both
// the always-inc backends (FASTTRACK/BaseSync) and the PACER core.
//
// # Invariants
//
// For every node u with label lbl[u] and finite-ack child w:
//
//	SUBTREE: subtree(u) ⊑ (u's thread's clock at label lbl[u])
//	ACK:     subtree(w) ⊑ (u's thread's clock at label ack[w])
//	ABSORB:  the whole clock ⊒ (i's clock at label lbl[i]) for every i
//	ORDER:   the children of u are in non-increasing ack order
//	COVER:   c[i] > 0 implies lbl[i] > 0 (the tree indexes every entry)
//
// Nodes are updated only by detaching and re-attaching under their source
// walk parent, never in place under a stale parent, which is what keeps
// SUBTREE true for retained descendants. Foreign subtrees merged into an
// ownerless clock (a volatile accumulating several writers) attach at the
// root with ack = ackUnordered — but on a dedicated side list (infHead),
// never interleaved into a child list. Keeping child lists pure finite
// descending-ack is what makes the ORDER+ACK early break sound at every
// level including the root; without the segregation a covered root child
// could hide an unordered edge behind it and the root scan would have to
// visit all of its — potentially width-many — children on every join.

const (
	treeNone     = int32(-1)
	ackUnordered = ^uint64(0)
)

// tree is the last-update index attached to a VC. The four aux vectors are
// ordinary VCs drawn from the same allocator as the main entry array, so
// arena-backed clocks keep their index on the same slabs and the existing
// grow/recycle/accounting machinery applies unchanged.
type tree struct {
	lbl *VC // lbl.c[i]: label of thread i's absorbed publication (0 = no node)
	ack *VC // ack.c[i]: attach label in the parent thread's label space
	pn  *VC // pn.c[i]: packed links (parent+1)<<32 | (next sibling+1)
	hp  *VC // hp.c[i]: packed links (head child+1)<<32 | (prev sibling+1)

	root    int32 // node the walk starts from; treeNone when empty
	owner   int32 // thread whose live clock this is; treeNone for sync clocks
	pub     int32 // single-publisher certificate (see joinFrom); treeNone if invalid
	infHead int32 // side list of unordered (ack = ackUnordered) root edges
	lclk    uint64
	sum     uint64 // Σ c[i], maintained incrementally for the monotone-copy check

	// scratch holds the label-updated nodes of the current join walk in
	// preorder, encoded (tid<<1 | parentInWalk). Reused across joins.
	scratch []uint64

	link *tree // free-list link (treeAlloc)
}

func (t *tree) lblAt(i int32) uint64 {
	if int(i) < len(t.lbl.c) {
		return t.lbl.c[i]
	}
	return 0
}

func (t *tree) parent(i int32) int32 { return int32(t.pn.c[i]>>32) - 1 }
func (t *tree) next(i int32) int32   { return int32(t.pn.c[i]&0xffffffff) - 1 }
func (t *tree) head(i int32) int32   { return int32(t.hp.c[i]>>32) - 1 }
func (t *tree) prev(i int32) int32   { return int32(t.hp.c[i]&0xffffffff) - 1 }

func (t *tree) setParent(i, p int32) {
	t.pn.c[i] = t.pn.c[i]&0xffffffff | uint64(p+1)<<32
}
func (t *tree) setNext(i, n int32) {
	t.pn.c[i] = t.pn.c[i]&^uint64(0xffffffff) | uint64(uint32(n+1))
}
func (t *tree) setHead(i, h int32) {
	t.hp.c[i] = t.hp.c[i]&0xffffffff | uint64(h+1)<<32
}
func (t *tree) setPrev(i, p int32) {
	t.hp.c[i] = t.hp.c[i]&^uint64(0xffffffff) | uint64(uint32(p+1))
}

// growAux keeps the aux vectors as wide as the entry array.
func (t *tree) growAux(n int) {
	t.lbl.grow(n)
	t.ack.grow(n)
	t.pn.grow(n)
	t.hp.grow(n)
}

// detach unlinks node w from the list it is on — its parent's child list,
// or the unordered side list (membership decided by the attach-time ack).
// w keeps its own children. w must not be the root.
func (t *tree) detach(w int32) {
	p, nx, pv := t.parent(w), t.next(w), t.prev(w)
	if pv >= 0 {
		t.setNext(pv, nx)
	} else if t.ack.c[w] == ackUnordered {
		t.infHead = nx
	} else if p >= 0 {
		t.setHead(p, nx)
	}
	if nx >= 0 {
		t.setPrev(nx, pv)
	}
	t.setParent(w, treeNone)
	t.setNext(w, treeNone)
	t.setPrev(w, treeNone)
}

// attachFront links node w as the first child of p with attach label ak.
// w keeps its own children (hp head half is preserved). Unordered edges
// (ak = ackUnordered, p always the root) go onto the side list instead of
// the child list, so child lists stay pure and break-early-scannable.
func (t *tree) attachFront(p, w int32, ak uint64) {
	t.setParent(w, p)
	t.setPrev(w, treeNone)
	t.ack.c[w] = ak
	if ak == ackUnordered {
		h := t.infHead
		t.setNext(w, h)
		if h >= 0 {
			t.setPrev(h, w)
		}
		t.infHead = w
		return
	}
	h := t.head(p)
	t.setNext(w, h)
	if h >= 0 {
		t.setPrev(h, w)
	}
	t.setHead(p, w)
}

// SetOwner declares v to be thread t's live clock and materializes the
// last-update index rooted at t. It is a no-op on clocks that are not
// tree-capable (not drawn from a Tree allocator), so detectors call it
// unconditionally. Must precede the first mutation.
func (v *VC) SetOwner(t Thread) {
	if v.talloc == nil {
		return
	}
	if tr := v.tr; tr != nil {
		// Re-owning a clone: Clone disowns (see cloneTree), and the
		// thread's copy-on-write path reclaims its label stream here.
		// Sound only for the unique continuation of the thread's own
		// frozen clock, which is the only caller; the structural guards
		// (rooted at t, owner label current) keep a misuse unowned —
		// slower, never wrong.
		if tr.owner < 0 && tr.root == int32(t) && tr.lblAt(int32(t)) == tr.lclk {
			tr.owner = int32(t)
			tr.pub = int32(t)
		}
		return
	}
	tr := v.talloc.newTree(len(v.c))
	v.tr = tr
	tr.owner = int32(t)
	tr.pub = int32(t)
	// The owner's node exists from birth (value 0, label 1): owned trees
	// are always rooted at their owner, so join targets never re-root.
	v.grow(int(t) + 1)
	tr.growAux(len(v.c))
	tr.root = int32(t)
	tr.lclk = 1
	tr.lbl.c[t] = 1
	tr.sum = 0
	for _, c := range v.c {
		tr.sum += c
	}
}

// Disown releases the clock's claim on its owner's label stream (if any)
// while keeping the index: the clock keeps absorbing labels but never
// mints them. Sync-side reclamation (Unshare on a lock or volatile clock)
// must disown before mutating — the snapshot may still carry the tree
// ownership of the thread that shared it, and that thread's clone has
// since reclaimed the same stream via SetOwner; two minters of one stream
// would let distinct states share a label and break label-space pruning.
// A no-op on ownerless or flat clocks.
func (v *VC) Disown() {
	if tr := v.tr; tr != nil {
		tr.owner = treeNone
	}
}

// Owner returns the thread this clock is the live clock of, or NoThread.
func (v *VC) Owner() Thread {
	if v.tr == nil {
		return NoThread
	}
	return Thread(v.tr.owner)
}

// TreeBacked reports whether v currently carries a last-update index.
func (v *VC) TreeBacked() bool { return v.tr != nil }

// dropTree releases the last-update index, leaving v a permanently flat
// clock with identical contents. It is the safety valve for mutations the
// index cannot track (arbitrary Set, joins from untracked clocks).
func (v *VC) dropTree() {
	if v.tr == nil {
		return
	}
	tr := v.tr
	v.tr = nil
	tr.lbl.Release()
	tr.ack.Release()
	tr.pn.Release()
	tr.hp.Release()
	if v.talloc != nil {
		v.talloc.freeTree(tr)
	}
	v.talloc = nil
}

// bumpOwner advances the owner's label stream: every mutation of an owned
// clock is a new publication state.
func (t *tree) bumpOwner() {
	t.lclk++
	t.lbl.c[t.owner] = t.lclk
}

// treeSet implements Set on a tree-backed clock. Only the owner's own
// component can be tracked (it advances the label stream like Inc); any
// other assignment degrades the clock to flat.
func (v *VC) treeSet(t Thread, c uint64) {
	tr := v.tr
	if int32(t) == tr.owner && c >= v.c[t] {
		tr.sum += c - v.c[t]
		v.c[t] = c
		tr.growAux(len(v.c))
		tr.bumpOwner()
		return
	}
	v.dropTree()
	v.c[t] = c
}

// treeInc implements Inc on a tree-backed clock: O(1) for the owner.
func (v *VC) treeInc(t Thread) {
	tr := v.tr
	if int32(t) != tr.owner {
		v.dropTree()
		v.c[t]++
		return
	}
	v.c[t]++
	tr.sum++
	tr.growAux(len(v.c))
	tr.bumpOwner()
}

// zero reports whether the clock carries no information.
func (v *VC) zero() bool {
	for _, c := range v.c {
		if c != 0 {
			return false
		}
	}
	return true
}

// joinFrom dispatches JoinFrom for the cases where either side carries (or
// could carry) a last-update index. The result is element-for-element the
// flat pointwise maximum; only the cost differs.
func (v *VC) joinFrom(o *VC) bool {
	if v == o {
		return false
	}
	if o.tr == nil {
		// Source has no index: the merge is untracked, so if it would
		// change anything the destination's index cannot account for the
		// result and degrades to flat. A subsumed source changes nothing
		// and the index survives.
		if v.tr != nil {
			if o.Leq(v) {
				return false
			}
			v.dropTree()
		}
		return v.flatJoinFrom(o)
	}
	if v.tr == nil {
		// Tree-capable empty destinations (a fresh lock or volatile clock
		// receiving its first publication) adopt an index; anything else
		// stays flat. A clock that lost its index (talloc nil) never
		// regains one here.
		if v.talloc != nil && v.zero() {
			tr := v.talloc.newTree(len(v.c))
			tr.owner = treeNone
			tr.pub = treeNone
			tr.root = treeNone
			v.tr = tr
			return v.treeJoinFrom(o)
		}
		return v.flatJoinFrom(o)
	}
	return v.treeJoinFrom(o)
}

// flatJoinFrom is the original O(width) pointwise maximum. It never runs
// against a live index (joinFrom degrades first).
func (v *VC) flatJoinFrom(o *VC) bool {
	v.grow(len(o.c))
	changed := false
	for i, oc := range o.c {
		if oc > v.c[i] {
			v.c[i] = oc
			changed = true
		}
	}
	return changed
}

// collect appends the label-updated region of o's tree rooted at u to
// v's scratch list in preorder. parentIn records whether u's source parent
// is itself part of the walk (determining where u re-attaches). It reads
// both trees and mutates nothing; all label comparisons use v's
// pre-join state.
func (v *VC) collect(o *VC, u int32, parentIn uint64) {
	tv, to := v.tr, o.tr
	tv.scratch = append(tv.scratch, uint64(u)<<1|parentIn)
	for w := to.head(u); w >= 0; w = to.next(w) {
		if to.lbl.c[w] > tv.lblAt(w) {
			v.collect(o, w, 1)
			continue
		}
		// w itself is covered (ABSORB at lbl[w] ≥ the source's label). If
		// its attach label is covered too, so is every remaining sibling
		// (ORDER + ACK): stop scanning. Child lists carry only finite-ack
		// edges — unordered foreign edges live on the root side list,
		// walked separately by treeJoinFrom — so the break is sound at
		// every level, the root included.
		if to.ack.c[w] <= tv.lblAt(u) {
			break
		}
	}
}

// treeJoinFrom is the pruned join: v ← v ⊔ o touching only the entries o
// publishes that v has not already absorbed. Reports whether any entry
// value changed (labels may advance without value changes; flat-join
// semantics ignore that).
func (v *VC) treeJoinFrom(o *VC) bool {
	tv, to := v.tr, o.tr
	if to.root < 0 {
		return false
	}
	// O(1) whole-clock subsumption: everything o contains is bounded by
	// its publisher's clock at the certified label (SUBTREE at the root),
	// and v has absorbed that publication (ABSORB).
	if p := to.pub; p >= 0 && tv.lblAt(p) >= to.lblAt(p) {
		return false
	}

	// Pass 1 (read-only): collect the label-updated region in preorder.
	// Unordered foreign subtrees sit outside the root's SUBTREE guarantee
	// (and outside its child list), so their side list is scanned whether
	// or not the root itself was covered; each is its own walk root.
	tv.scratch = tv.scratch[:0]
	r := to.root
	if to.lbl.c[r] > tv.lblAt(r) {
		v.collect(o, r, 0)
	}
	for w := to.infHead; w >= 0; w = to.next(w) {
		if to.lbl.c[w] > tv.lblAt(w) {
			v.collect(o, w, 0)
		}
	}
	if len(tv.scratch) == 0 {
		return false
	}

	v.grow(len(o.c))
	tv.growAux(len(v.c))

	// Pass 2: detach every updated node that already exists, then absorb
	// values and labels. Label monotonicity guarantees the source value is
	// ≥ ours for every updated node, so plain assignment is the maximum.
	changed := false
	for _, e := range tv.scratch {
		w := int32(e >> 1)
		if tv.lbl.c[w] != 0 && w != tv.root {
			tv.detach(w)
		}
		if oc := o.c[w]; oc != v.c[w] {
			tv.sum += oc - v.c[w]
			v.c[w] = oc
			changed = true
		}
		if tv.root < 0 {
			// First adoption into an empty ownerless clock: the first walk
			// root becomes the root.
			tv.root = w
		}
		tv.lbl.c[w] = to.lbl.c[w]
	}

	// Pass 3 (reverse preorder, so same-parent groups land in source
	// order): re-attach. Nodes whose source parent is in the walk keep
	// their source position and attach label; walk roots hang under our
	// root — at the post-join label for owned clocks, unordered otherwise.
	rootAck := ackUnordered
	if tv.owner >= 0 {
		rootAck = tv.lclk + 1
	}
	for i := len(tv.scratch) - 1; i >= 0; i-- {
		e := tv.scratch[i]
		w := int32(e >> 1)
		if w == tv.root {
			continue
		}
		if e&1 != 0 {
			tv.attachFront(to.parent(w), w, to.ack.c[w])
		} else {
			tv.attachFront(tv.root, w, rootAck)
		}
	}
	if tv.owner >= 0 {
		tv.bumpOwner()
	} else {
		tv.pub = treeNone
	}
	return changed
}

// copyFrom dispatches CopyFrom when either side is index-aware. The result
// is always an exact element-for-element copy.
func (v *VC) copyFrom(o *VC) {
	if v == o {
		return
	}
	if o.tr == nil {
		// Copying untracked contents: degrade and fall through to flat.
		v.dropTree()
		v.flatCopyFrom(o)
		return
	}
	if v.tr != nil {
		// Monotone fast path: a pruned join followed by an O(1) totals
		// check. v ⊒ o pointwise with equal sums means v == o exactly —
		// the common case (a release copying the holder's clock into a
		// lock whose content the holder had absorbed at acquire) costs
		// only the entries that changed since.
		v.treeJoinFrom(o)
		if v.tr != nil && v.tr.sum == o.tr.sum && len(v.c) >= len(o.c) {
			if tail := v.c[len(o.c):]; !allZero(tail) {
				// Equal sums but trailing entries o does not even store:
				// not a copy; fall through to the exact path.
			} else {
				v.tr.pub = o.tr.pub
				return
			}
		}
	}
	// Exact path: flat copy plus a structural replica of o's index. This
	// is also the recovery route by which a degraded-but-capable clock
	// regains an index.
	v.flatCopyFrom(o)
	if v.talloc == nil {
		v.dropTree()
		return
	}
	if v.tr == nil {
		tr := v.talloc.newTree(len(v.c))
		tr.owner = treeNone
		v.tr = tr
	}
	tv, to := v.tr, o.tr
	if tv.owner >= 0 && tv.owner != to.root {
		// Replicating a foreign tree into a live thread clock would break
		// the owned-root invariant; degrade instead (detectors never copy
		// into thread clocks — this is a test-surface corner).
		v.dropTree()
		return
	}
	tv.growAux(len(v.c))
	n := len(v.c)
	for _, pair := range [4][2]*VC{{tv.lbl, to.lbl}, {tv.ack, to.ack}, {tv.pn, to.pn}, {tv.hp, to.hp}} {
		dst, src := pair[0], pair[1]
		m := min(n, len(src.c))
		copy(dst.c[:m], src.c[:m])
		// Zero everything past the replicated prefix: a shrinking copy
		// must not leave stale labels claiming knowledge v no longer has.
		clear(dst.c[m:])
	}
	tv.root = to.root
	tv.infHead = to.infHead
	tv.pub = to.pub
	tv.sum = to.sum
	if tv.owner >= 0 {
		// v remains the owner's live clock: the replica is a new state in
		// its label stream.
		tv.lclk = max(tv.lclk, to.lclk)
		tv.bumpOwner()
		tv.pub = tv.owner
	} else {
		tv.lclk = to.lclk
	}
}

func allZero(s []uint64) bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}

// flatCopyFrom is the original exact full-width copy.
func (v *VC) flatCopyFrom(o *VC) {
	prev := len(v.c)
	if cap(v.c) < len(o.c) {
		// Grow geometrically, as grow does: a lock's clock copied from a
		// source that widens by one thread at a time reallocates O(log n)
		// times. Fresh storage is zero past len, as the invariant requires.
		v.c = make([]uint64, len(o.c), max(len(o.c), 2*cap(v.c)))
	} else {
		v.c = v.c[:len(o.c)]
		if len(o.c) < prev {
			clear(v.c[len(o.c):prev])
		}
	}
	copy(v.c, o.c)
	if v.tr != nil {
		v.tr.sum = 0
		for _, c := range v.c {
			v.tr.sum += c
		}
	}
}

// leqFast is the O(1) sufficient check behind Leq: v's certified publisher
// bound against o's absorbed labels.
func (v *VC) leqFast(o *VC) bool {
	if v.tr == nil || o.tr == nil {
		return false
	}
	p := v.tr.pub
	return p >= 0 && o.tr.lblAt(p) >= v.tr.lblAt(p)
}

// cloneTree attaches a deep copy of o's index to v (a fresh clone with
// identical contents). Used by Clone; v must be tree-capable.
func (v *VC) cloneTree(o *VC) {
	to := o.tr
	tr := v.talloc.newTree(len(v.c))
	v.tr = tr
	tr.growAux(len(v.c))
	n := min(len(v.c), len(to.lbl.c))
	copy(tr.lbl.c[:n], to.lbl.c[:n])
	copy(tr.ack.c[:n], to.ack.c[:n])
	copy(tr.pn.c[:n], to.pn.c[:n])
	copy(tr.hp.c[:n], to.hp.c[:n])
	tr.root = to.root
	tr.infHead = to.infHead
	// A clone is always disowned, even when the original is a live thread
	// clock: if both the thread's copy-on-write continuation and a sync
	// object's clone of one frozen snapshot kept publishing thread t's
	// label stream, two different states would carry the same label and
	// label-space pruning would become unsound. The thread side reclaims
	// its stream explicitly via SetOwner; sync-side clones stay ownerless
	// (they absorb labels but never mint them). The publisher certificate
	// survives disowning — it bounds content, not ownership.
	tr.owner = treeNone
	tr.pub = to.pub
	tr.lclk = to.lclk
	tr.sum = to.sum
}

// treeMemoryWords is the index's footprint in 8-byte words.
func (v *VC) treeMemoryWords() int {
	t := v.tr
	return t.lbl.MemoryWords() + t.ack.MemoryWords() + t.pn.MemoryWords() +
		t.hp.MemoryWords() + 7 + cap(t.scratch)
}

// treeAlloc is the Allocator wrapper that makes every clock it hands out
// tree-capable: the four aux vectors draw from the wrapped allocator, so
// heap stays heap and arena-backed detectors keep their index on slabs.
// Construct with Tree or TreeStriped.
type treeAlloc struct {
	inner Allocator
	free  *tree // reuse of tree structs (and their scratch) across recycles
}

// Tree wraps an Allocator so the clocks it returns carry last-update
// indexes. The wrapper interposes on the recycle path to release the aux
// vectors back to the wrapped allocator. Like the allocator it wraps, a
// Tree allocator must only be used under the owning shard's
// serialization.
func Tree(inner Allocator) Allocator { return &treeAlloc{inner: inner} }

func (a *treeAlloc) NewVC(n int) *VC {
	v := a.inner.NewVC(n)
	if v.alloc != nil {
		v.alloc = a
	}
	v.talloc = a
	v.tr = nil
	return v
}

func (a *treeAlloc) Recycle(v *VC) {
	v.dropTree() // releases the aux vectors and parks the tree struct
	a.inner.Recycle(v)
}

// newTree returns a zeroed tree struct backed by aux vectors of width n.
func (a *treeAlloc) newTree(n int) *tree {
	t := a.free
	if t != nil {
		a.free = t.link
		t.link = nil
	} else {
		t = &tree{}
	}
	t.lbl = a.inner.NewVC(n)
	t.ack = a.inner.NewVC(n)
	t.pn = a.inner.NewVC(n)
	t.hp = a.inner.NewVC(n)
	t.root = treeNone
	t.owner = treeNone
	t.pub = treeNone
	t.infHead = treeNone
	t.lclk = 0
	t.sum = 0
	t.scratch = t.scratch[:0]
	return t
}

func (a *treeAlloc) freeTree(t *tree) {
	t.lbl, t.ack, t.pn, t.hp = nil, nil, nil, nil
	t.link = a.free
	a.free = t
}

// TreeHeap returns a striped source of heap-backed tree-capable
// allocators for detectors that mount tree clocks without an arena:
// each stripe gets its own wrapper (and tree-struct free list), matching
// the concurrency discipline of arena striping — two stripes may be
// driven concurrently, one stripe may not.
func TreeHeap(stripes int) func(int) Allocator {
	if stripes < 1 {
		stripes = 1
	}
	ws := make([]Allocator, stripes)
	for i := range ws {
		ws[i] = Tree(Heap)
	}
	return func(i int) Allocator {
		i %= stripes
		if i < 0 {
			i += stripes
		}
		return ws[i]
	}
}

// TreeStriped adapts a striped allocator source (as installed via
// SetAllocator hooks) so each stripe is wrapped exactly once: wrapping per
// call would defeat the per-wrapper tree-struct reuse. Distinct stripes
// may be driven concurrently, so the cache is locked; each wrapper itself
// remains single-stripe and needs no locking of its own.
func TreeStriped(alloc func(int) Allocator) func(int) Allocator {
	var mu sync.Mutex
	cache := map[Allocator]Allocator{}
	return func(i int) Allocator {
		inner := alloc(i)
		mu.Lock()
		defer mu.Unlock()
		if w, ok := cache[inner]; ok {
			return w
		}
		w := Tree(inner)
		cache[inner] = w
		return w
	}
}
