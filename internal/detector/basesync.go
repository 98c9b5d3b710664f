package detector

import (
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// BaseSync implements the GENERIC analysis for synchronization operations
// (Algorithms 1-4, 14-15), which FASTTRACK reuses unchanged. Every join and
// copy is O(n) in the number of threads; PACER replaces these low-level
// operations and therefore does not use BaseSync.
type BaseSync struct {
	threads []*vclock.VC
	locks   map[event.Lock]*vclock.VC
	vols    map[event.Volatile]*vclock.VC
	c       *Counters
}

// NewBaseSync returns a synchronization engine recording operation counts
// into c.
func NewBaseSync(c *Counters) *BaseSync {
	return &BaseSync{
		locks: make(map[event.Lock]*vclock.VC),
		vols:  make(map[event.Volatile]*vclock.VC),
		c:     c,
	}
}

// EnsureThreadSlots pre-grows the thread table to hold identifiers below
// n, so that a sharded caller's shared-mode accesses never resize it (two
// threads appending concurrently would race on the slice header; two
// threads lazily filling distinct pre-grown slots do not).
func (s *BaseSync) EnsureThreadSlots(n int) {
	for len(s.threads) < n {
		s.threads = append(s.threads, nil)
	}
}

// ThreadClock returns C_t, creating it with C_t(t) = 1 on first use (the
// initial analysis state of Equation 7 applies inc_t to ⊥c).
func (s *BaseSync) ThreadClock(t vclock.Thread) *vclock.VC {
	for int(t) >= len(s.threads) {
		s.threads = append(s.threads, nil)
	}
	if s.threads[t] == nil {
		c := vclock.New(int(t) + 1)
		c.Set(t, 1)
		s.threads[t] = c
	}
	return s.threads[t]
}

// Threads returns the number of thread clocks created.
func (s *BaseSync) Threads() int { return len(s.threads) }

func (s *BaseSync) lockClock(m event.Lock) *vclock.VC {
	c, ok := s.locks[m]
	if !ok {
		c = vclock.New(0)
		s.locks[m] = c
	}
	return c
}

func (s *BaseSync) volClock(vx event.Volatile) *vclock.VC {
	c, ok := s.vols[vx]
	if !ok {
		c = vclock.New(0)
		s.vols[vx] = c
	}
	return c
}

func (s *BaseSync) slowJoin(dst, src *vclock.VC) bool {
	changed := dst.JoinFrom(src)
	s.c.SlowJoins[Sampling]++
	s.c.JoinWork += uint64(src.Len())
	return changed
}

// deepCopy is the release-edge copy C_dst ← C_src, full-width.
func (s *BaseSync) deepCopy(dst, src *vclock.VC) {
	dst.CopyFrom(src)
	s.c.DeepCopies[Sampling]++
	s.c.CopyWork += uint64(src.Len())
}

func (s *BaseSync) inc(t vclock.Thread) {
	s.ThreadClock(t).Inc(t)
	s.c.Increments[Sampling]++
}

// Acquire implements Algorithm 1: C_t ← C_t ⊔ C_m. It reports whether the
// thread's clock changed, which lets callers skip work that is redundant
// when the acquire learned nothing new (the SmartTrack-style epoch
// republication trim).
func (s *BaseSync) Acquire(t vclock.Thread, m event.Lock) bool {
	s.c.SyncOps[Sampling]++
	return s.slowJoin(s.ThreadClock(t), s.lockClock(m))
}

// Release implements Algorithm 2: C_m ← C_t; C_t(t)++.
func (s *BaseSync) Release(t vclock.Thread, m event.Lock) {
	s.c.SyncOps[Sampling]++
	s.deepCopy(s.lockClock(m), s.ThreadClock(t))
	s.inc(t)
}

// Fork implements Algorithm 3 (in the Table 6 formulation): the child's
// clock joins the parent's, and the parent's clock advances.
func (s *BaseSync) Fork(t, u vclock.Thread) {
	s.c.SyncOps[Sampling]++
	s.slowJoin(s.ThreadClock(u), s.ThreadClock(t))
	s.inc(t)
}

// Join implements Algorithm 4: C_t ← C_t ⊔ C_u; C_u(u)++.
func (s *BaseSync) Join(t, u vclock.Thread) {
	s.c.SyncOps[Sampling]++
	s.slowJoin(s.ThreadClock(t), s.ThreadClock(u))
	s.inc(u)
}

// VolRead implements Algorithm 14: C_t ← C_t ⊔ C_vx. Like Acquire, it
// reports whether the thread's clock changed.
func (s *BaseSync) VolRead(t vclock.Thread, vx event.Volatile) bool {
	s.c.SyncOps[Sampling]++
	return s.slowJoin(s.ThreadClock(t), s.volClock(vx))
}

// VolWrite implements Algorithm 15: C_vx ← C_vx ⊔ C_t; C_t(t)++.
func (s *BaseSync) VolWrite(t vclock.Thread, vx event.Volatile) {
	s.c.SyncOps[Sampling]++
	s.slowJoin(s.volClock(vx), s.ThreadClock(t))
	s.inc(t)
}

// MetadataWords reports the live synchronization metadata footprint.
func (s *BaseSync) MetadataWords() int {
	w := 0
	for _, c := range s.threads {
		if c != nil {
			w += c.MemoryWords()
		}
	}
	for _, c := range s.locks {
		w += c.MemoryWords()
	}
	for _, c := range s.vols {
		w += c.MemoryWords()
	}
	return w
}
