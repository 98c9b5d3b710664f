package vclock

// Allocator supplies vector-clock storage. The package-level functions New,
// FromSlice, and friends use the Go heap (the default every detector gets);
// internal/arena provides slab-backed allocators that recycle clock storage
// through per-shard free lists.
//
// A clock owned by an allocator is "managed": it carries a holder count,
// and the last holder's Release hands the clock back to its allocator via
// Recycle. Unmanaged (heap) clocks ignore Retain/Release entirely — the
// garbage collector reclaims them — so code written against the
// retain/release protocol runs unchanged, and allocation-free, on the
// default heap path.
type Allocator interface {
	// NewVC returns an unshared clock of length n, all entries zero, with
	// exactly one holder (the caller).
	NewVC(n int) *VC
	// Recycle reclaims v's storage after its last holder released it. The
	// clock must not be used afterwards; allocators are expected to poison
	// it (Scrub) so a stale holder fails loudly instead of corrupting a
	// reused slab.
	Recycle(v *VC)
}

// Heap is the heap-backed Allocator: NewVC is New, and Recycle is a no-op
// because the garbage collector owns the storage. It exists so callers can
// treat "no arena configured" uniformly; clocks it returns are unmanaged.
var Heap Allocator = heapAllocator{}

type heapAllocator struct{}

func (heapAllocator) NewVC(n int) *VC { return New(n) }
func (heapAllocator) Recycle(*VC)     {}

// NewManaged returns an unshared clock owned by alloc, backed by limbs,
// with one holder. It is the constructor arena allocators use for a fresh
// slab; recycled slabs are revived with Reinit instead.
func NewManaged(limbs []uint64, alloc Allocator) *VC {
	return &VC{c: limbs, alloc: alloc, ref: 1}
}

// Managed reports whether the clock is owned by an allocator.
func (v *VC) Managed() bool { return v.alloc != nil }

// Retain adds a holder to a managed clock; a no-op for heap clocks. A
// holder is a stored reference (a thread's clock field, a lock's clock
// field); transient locals under the detector's locking discipline need no
// holder of their own.
//
// Retain and Release require the same serialization the rest of the
// mutating VC API does: PACER only shares clocks on paths that hold the
// detector's exclusive lock, so the holder count needs no atomics.
func (v *VC) Retain() {
	if v.alloc == nil {
		return
	}
	if v.ref <= 0 {
		panic("vclock: retain of a recycled clock")
	}
	v.ref++
}

// Release drops one holder of a managed clock; the last release returns
// the clock to its allocator for recycling. A no-op for heap clocks and
// nil. Releasing more holders than were retained panics: a double free
// would otherwise recycle a slab some live holder still reads.
func (v *VC) Release() {
	if v == nil || v.alloc == nil {
		return
	}
	v.ref--
	switch {
	case v.ref == 0:
		v.alloc.Recycle(v)
	case v.ref < 0:
		panic("vclock: release of a clock with no holders (double free?)")
	}
}

// Holders returns the holder count of a managed clock (0 for heap clocks).
// It exists for allocator invariant tests.
func (v *VC) Holders() int {
	if v.alloc == nil {
		return 0
	}
	return int(v.ref)
}

// CapLimbs returns the clock's storage capacity in limbs, which is how an
// allocator classifies a recycled slab.
func (v *VC) CapLimbs() int { return cap(v.c) }

// Scrub zeroes the clock's full storage capacity and poisons its holder
// count. Allocators call it when parking a recycled slab on a free list:
// the zeroing keeps grow()'s zero-beyond-length invariant for the next
// user, and the poison makes a stale Release or Retain panic instead of
// silently corrupting whoever holds the slab next.
func (v *VC) Scrub() {
	clear(v.c[:cap(v.c)])
	v.c = v.c[:0]
	v.shared = false
	v.ref = -1 << 30
}

// Reinit revives a scrubbed clock for reuse: unshared, one holder, length
// n (entries all zero — storage was zeroed by Scrub). The allocator must
// guarantee cap ≥ n.
func (v *VC) Reinit(n int) *VC {
	v.shared = false
	v.ref = 1
	v.c = v.c[:n]
	return v
}
