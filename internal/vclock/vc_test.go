package vclock

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
)

// vcFromShorts builds a bounded-width VC from fuzz input.
func vcFromShorts(vals []uint16) *VC {
	v := New(0)
	for i, x := range vals {
		if i >= 24 {
			break
		}
		v.Set(Thread(i), uint64(x))
	}
	return v
}

func TestVCGetSetGrow(t *testing.T) {
	v := New(2)
	if v.Get(0) != 0 || v.Get(5) != 0 {
		t.Fatal("fresh clock not zero")
	}
	v.Set(5, 7)
	if v.Get(5) != 7 {
		t.Fatalf("Get(5) = %d, want 7", v.Get(5))
	}
	if v.Len() != 6 {
		t.Fatalf("Len = %d, want 6", v.Len())
	}
	v.Inc(5)
	v.Inc(9)
	if v.Get(5) != 8 || v.Get(9) != 1 {
		t.Fatal("Inc misbehaved")
	}
}

func TestVCJoinBasics(t *testing.T) {
	a := FromSlice([]uint64{1, 5, 0})
	b := FromSlice([]uint64{3, 2, 0, 7})
	changed := a.JoinFrom(b)
	if !changed {
		t.Error("join should report change")
	}
	want := []uint64{3, 5, 0, 7}
	for i, w := range want {
		if a.Get(Thread(i)) != w {
			t.Errorf("a[%d] = %d, want %d", i, a.Get(Thread(i)), w)
		}
	}
	// Joining again is idempotent and reports no change.
	if a.JoinFrom(b) {
		t.Error("second join should be a no-op")
	}
}

func TestVCJoinCommutative(t *testing.T) {
	f := func(x, y []uint16) bool {
		a, b := vcFromShorts(x), vcFromShorts(y)
		ab := a.Clone()
		ab.JoinFrom(b)
		ba := b.Clone()
		ba.JoinFrom(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCJoinAssociative(t *testing.T) {
	f := func(x, y, z []uint16) bool {
		a, b, c := vcFromShorts(x), vcFromShorts(y), vcFromShorts(z)
		l := a.Clone()
		l.JoinFrom(b)
		l.JoinFrom(c)
		bc := b.Clone()
		bc.JoinFrom(c)
		r := a.Clone()
		r.JoinFrom(bc)
		return l.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCJoinIsLeastUpperBound(t *testing.T) {
	f := func(x, y []uint16) bool {
		a, b := vcFromShorts(x), vcFromShorts(y)
		j := a.Clone()
		j.JoinFrom(b)
		return a.Leq(j) && b.Leq(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCJoinChangedIffNotLeq(t *testing.T) {
	// JoinFrom reports a change exactly when o ⋢ v — the fact PACER's
	// version optimization relies on (a skipped join must be a no-op).
	f := func(x, y []uint16) bool {
		a, b := vcFromShorts(x), vcFromShorts(y)
		leq := b.Leq(a)
		changed := a.JoinFrom(b)
		return changed == !leq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCLeqPartialOrder(t *testing.T) {
	f := func(x, y, z []uint16) bool {
		a, b, c := vcFromShorts(x), vcFromShorts(y), vcFromShorts(z)
		// Reflexive.
		if !a.Leq(a) {
			return false
		}
		// Antisymmetric (up to Equal).
		if a.Leq(b) && b.Leq(a) && !a.Equal(b) {
			return false
		}
		// Transitive.
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCLeqDifferentLengths(t *testing.T) {
	short := FromSlice([]uint64{1, 2})
	long := FromSlice([]uint64{1, 2, 0, 0})
	if !short.Leq(long) || !long.Leq(short) {
		t.Error("trailing zeros must not affect ⊑")
	}
	long2 := FromSlice([]uint64{1, 2, 0, 1})
	if long2.Leq(short) {
		t.Error("⟨1 2 0 1⟩ ⊑ ⟨1 2⟩ should be false")
	}
	if !short.Leq(long2) {
		t.Error("⟨1 2⟩ ⊑ ⟨1 2 0 1⟩ should be true")
	}
}

func TestVCCopyFromIsDeep(t *testing.T) {
	a := FromSlice([]uint64{1, 2, 3})
	b := New(0)
	b.CopyFrom(a)
	a.Set(1, 99)
	if b.Get(1) != 2 {
		t.Error("CopyFrom leaked shared storage")
	}
}

func TestVCCloneIsDeepAndUnshared(t *testing.T) {
	a := FromSlice([]uint64{4, 5})
	a.SetShared()
	c := a.Clone()
	if c.Shared() {
		t.Error("clone should start unshared")
	}
	if !a.Shared() {
		t.Error("the original must keep its shared mark for life")
	}
	c.Set(0, 100)
	if a.Get(0) != 4 {
		t.Error("clone leaked into original")
	}
}

func TestSharedVCMutationPanics(t *testing.T) {
	v := FromSlice([]uint64{1})
	v.SetShared()
	mustPanic(t, "Inc on shared", func() { v.Inc(0) })
	mustPanic(t, "Set on shared", func() { v.Set(0, 2) })
	mustPanic(t, "JoinFrom on shared", func() { v.JoinFrom(FromSlice([]uint64{5})) })
	mustPanic(t, "CopyFrom on shared", func() { v.CopyFrom(FromSlice([]uint64{5})) })
	// Reads remain fine.
	if v.Get(0) != 1 {
		t.Error("read of shared clock failed")
	}
}

func TestVCEqualQuick(t *testing.T) {
	f := func(x []uint16) bool {
		a := vcFromShorts(x)
		return a.Equal(a.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCGrowPreservesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := New(0)
	want := map[Thread]uint64{}
	for i := 0; i < 1000; i++ {
		th := Thread(rng.Intn(500))
		c := rng.Uint64() % 1000
		v.Set(th, c)
		want[th] = c
	}
	for th, c := range want {
		if v.Get(th) != c {
			t.Fatalf("v[%d] = %d, want %d", th, v.Get(th), c)
		}
	}
}

func TestVCString(t *testing.T) {
	if got := FromSlice([]uint64{1, 0, 3}).String(); got != "⟨1 0 3⟩" {
		t.Errorf("String() = %q", got)
	}
}

func TestVCMemoryWords(t *testing.T) {
	if w := FromSlice([]uint64{1, 2, 3}).MemoryWords(); w != 5 {
		t.Errorf("MemoryWords = %d, want 5", w)
	}
}

func TestVCCopyFromReusesCapacity(t *testing.T) {
	a := FromSlice([]uint64{1, 2, 3, 4})
	b := FromSlice([]uint64{9, 9})
	a.CopyFrom(b) // shrink into existing capacity
	if a.Len() != 2 || a.Get(0) != 9 || a.Get(2) != 0 {
		t.Errorf("CopyFrom shrink wrong: %v", a)
	}
	c := New(0)
	c.CopyFrom(FromSlice([]uint64{7, 8, 9})) // grow beyond capacity
	if c.Get(2) != 9 {
		t.Error("CopyFrom grow wrong")
	}
}

// TestCopyGrowthGeometric: copying from a source that widens by one entry
// at a time, as a lock's clock copies from a thread clock after each fork,
// allocates O(log n) times, and the copy keeps entries past its length
// zero: shrinking and regrowing re-exposes zeros, never stale values.
func TestCopyGrowthGeometric(t *testing.T) {
	const n = 4096
	full := New(n)
	for i := 0; i < n; i++ {
		full.Set(Thread(i), uint64(i+1))
	}
	var dst *VC
	allocs := testing.AllocsPerRun(1, func() {
		dst = New(0)
		src := &VC{}
		for i := 1; i <= n; i++ {
			src.c = full.c[:i]
			dst.CopyFrom(src)
		}
	})
	// Doubling from one entry reaches 4096 in 13 growths; the VC itself
	// is one more.
	if allocs > 14 {
		t.Errorf("CopyFrom from a source widening to %d allocated %v times, want O(log n) (at most 14)", n, allocs)
	}
	if !dst.Equal(full) {
		t.Fatal("final copy differs from its source")
	}
	dst.CopyFrom(FromSlice([]uint64{5}))
	dst.grow(n)
	for i := 1; i < n; i++ {
		if dst.Get(Thread(i)) != 0 {
			t.Fatalf("entry %d reads %d past a shrinking copy, want 0", i, dst.Get(Thread(i)))
		}
	}
}

// TestVCModelDifferential drives detector-shaped operation streams —
// release copies that shrink a lock's clock, volatile joins from several
// writers, copy-on-write snapshots, increments, and copies into thread
// clocks — through VC and through a map model of the total function
// Tid → Nat, comparing after every operation. It also checks the storage
// invariant everything else leans on: entries past the stored length are
// zero, so a shrinking copy followed by any growth (Set, Inc, JoinFrom,
// CloneWidth) re-exposes zeros, never stale values.
func TestVCModelDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n, width = 8, 12
		clocks := make([]*VC, n)
		model := make([]map[int]uint64, n)
		for i := range clocks {
			clocks[i] = New(rng.Intn(width))
			model[i] = map[int]uint64{}
		}
		own := func(i int) {
			if clocks[i].Shared() {
				clocks[i] = clocks[i].Clone()
			}
		}
		for op := 0; op < 2000; op++ {
			a, b, th := rng.Intn(n), rng.Intn(n), rng.Intn(width)
			switch rng.Intn(6) {
			case 0:
				own(a)
				changed := clocks[a].JoinFrom(clocks[b])
				want := false
				for k, c := range model[b] {
					if c > model[a][k] {
						model[a][k], want = c, true
					}
				}
				if changed != want {
					t.Fatalf("seed %d op %d: JoinFrom changed=%v, model %v", seed, op, changed, want)
				}
			case 1:
				own(a)
				clocks[a].CopyFrom(clocks[b])
				model[a] = maps.Clone(model[b])
			case 2:
				own(a)
				clocks[a].Inc(Thread(th))
				model[a][th]++
			case 3:
				own(a)
				c := uint64(rng.Intn(50))
				clocks[a].Set(Thread(th), c)
				model[a][th] = c
			case 4: // shallow snapshot: a and b alias one shared clock
				clocks[b].SetShared()
				clocks[a] = clocks[b]
				model[a] = maps.Clone(model[b])
			case 5:
				clocks[a] = clocks[b].CloneWidth(rng.Intn(2 * width))
				model[a] = maps.Clone(model[b])
			}
			for i, v := range clocks {
				for k := 0; k < 2*width; k++ {
					if got := v.Get(Thread(k)); got != model[i][k] {
						t.Fatalf("seed %d op %d: clock %d entry %d = %d, model %d (%v)", seed, op, i, k, got, model[i][k], v)
					}
				}
				if !allZeroTail(v) {
					t.Fatalf("seed %d op %d: clock %d holds nonzero storage past its length %d", seed, op, i, v.Len())
				}
				for j, o := range clocks {
					want := true
					for k, c := range model[i] {
						want = want && c <= model[j][k]
					}
					if v.Leq(o) != want {
						t.Fatalf("seed %d op %d: Leq(%d, %d) = %v, model %v", seed, op, i, j, !want, want)
					}
				}
			}
		}
	}
}

func allZeroTail(v *VC) bool {
	for _, c := range v.c[len(v.c):cap(v.c)] {
		if c != 0 {
			return false
		}
	}
	return true
}
