package vclock

import (
	"fmt"
	"strings"
)

// VC is a growable vector clock C[0..n) mapping thread identifiers to clock
// values (Appendix A.1). Entries beyond the stored length are implicitly 0,
// so a VC represents a total map Tid → Nat with finite support.
//
// A VC also carries a shared flag used by PACER's copy-on-write sharing of
// synchronization clocks during non-sampling periods (Algorithm 9). Once a
// clock is marked shared it may be referenced by several synchronization
// objects; any owner that needs to mutate it must Clone first (Algorithms
// 10, 11, 16). The flag is never cleared — only a fresh Clone starts out
// unshared — mirroring the paper's "once an object is marked shared it
// remains that way for the rest of its lifetime". Clocks live on the Go
// heap: a snapshot no object references any longer is reclaimed by the
// garbage collector.
type VC struct {
	c      []uint64
	shared bool
}

// New returns a vector clock with capacity for n threads, all zero.
func New(n int) *VC {
	return &VC{c: make([]uint64, n)}
}

// FromSlice builds a vector clock from explicit per-thread values, mainly
// for tests.
func FromSlice(vals []uint64) *VC {
	v := &VC{c: make([]uint64, len(vals))}
	copy(v.c, vals)
	return v
}

// Len returns the number of explicitly stored entries.
func (v *VC) Len() int { return len(v.c) }

// Get returns C(t); threads beyond the stored length map to 0.
func (v *VC) Get(t Thread) uint64 {
	if int(t) < len(v.c) {
		return v.c[t]
	}
	return 0
}

// Set assigns C(t) = c, growing the vector as needed. The clock must not be
// shared.
func (v *VC) Set(t Thread, c uint64) {
	v.mustOwn()
	v.grow(int(t) + 1)
	v.c[t] = c
}

// Inc increments C(t) by one (Equation 2, the passage of logical time). The
// clock must not be shared; PACER clones shared clocks before incrementing
// (Algorithm 10).
func (v *VC) Inc(t Thread) {
	v.mustOwn()
	v.grow(int(t) + 1)
	v.c[t]++
}

// JoinFrom computes v ← v ⊔ o, the pointwise maximum (Equation 3), and
// reports whether v changed. The receiver must not be shared.
func (v *VC) JoinFrom(o *VC) bool {
	v.mustOwn()
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

// Leq reports v ⊑ o, the pointwise partial order (Appendix A.1).
func (v *VC) Leq(o *VC) bool {
	for i, vc := range v.c {
		if vc == 0 {
			continue
		}
		if i >= len(o.c) || vc > o.c[i] {
			return false
		}
	}
	return true
}

// CopyFrom performs a deep, element-by-element copy of o into v. The
// receiver must not be shared. A shrinking copy zeroes the vacated tail,
// so a later grow() re-exposes zeros, never stale clock values.
func (v *VC) CopyFrom(o *VC) {
	v.mustOwn()
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
}

// Clone returns a deep, unshared copy of v.
func (v *VC) Clone() *VC { return v.CloneWidth(0) }

// CloneWidth is Clone with the copy at least n entries wide, the entries
// past v's length zero: a caller about to join a wider clock into the copy
// allocates it once, at the width the join would grow it to.
func (v *VC) CloneWidth(n int) *VC {
	c := New(max(n, len(v.c)))
	copy(c.c, v.c)
	return c
}

// Shared reports whether the clock is marked as shared.
func (v *VC) Shared() bool { return v.shared }

// SetShared marks the clock shared for life; Clone returns a fresh
// unshared copy.
func (v *VC) SetShared() { v.shared = true }

// Equal reports pointwise equality (treating missing entries as 0).
func (v *VC) Equal(o *VC) bool { return v.Leq(o) && o.Leq(v) }

// MemoryWords approximates the clock's footprint in 8-byte words, used by
// the space accountant reproducing Figure 10.
func (v *VC) MemoryWords() int { return len(v.c) + 2 }

func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	if cap(v.c) >= n {
		v.c = v.c[:n]
		return
	}
	c := make([]uint64, n, max(n, 2*cap(v.c)))
	copy(c, v.c)
	v.c = c
}

func (v *VC) mustOwn() {
	if v.shared {
		panic("vclock: mutation of shared vector clock (clone first)")
	}
}

// String renders the clock as ⟨c0 c1 …⟩.
func (v *VC) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, c := range v.c {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteString("⟩")
	return b.String()
}
