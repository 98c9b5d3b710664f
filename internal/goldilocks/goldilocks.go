// Package goldilocks implements a Goldilocks-style race detector after
// Elmas, Qadeer, and Tasiran (PLDI 2007), which Section 6.2 of the PACER
// paper discusses as the sound *and* precise lockset-based alternative to
// vector clocks: instead of clock comparisons, each recorded access owns a
// growing *entitlement closure* — the set of threads, locks, and volatiles
// that the access happens before — updated along synchronizes-with edges:
//
//   - an access by t starts its closure as {t};
//   - rel(t, m) adds m to every closure containing t (t's past is now
//     published through m); vol_wr(t, vx) likewise adds vx; fork(t, u)
//     adds u; join(t, u) adds t to closures containing u;
//   - acq(t, m) adds t to every closure containing m; vol_rd(t, vx)
//     likewise.
//
// By construction, thread t belongs to an access's closure exactly when
// the access happens before t's current operation, so the race check is
// set membership: a conflicting access by t races with a recorded access
// whose closure does not contain t. Per variable the detector keeps the
// last write's closure and one closure per concurrent reader — the same
// information FASTTRACK keeps as a write epoch and read map — and it
// agrees with FASTTRACK on every variable's first race (verified
// differentially). Closures are maintained eagerly through an inverted
// index; the original paper's contribution was a lazy evaluation strategy
// with the same semantics.
package goldilocks

import (
	"sort"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// elem is a synchronization element: a thread, lock, or volatile.
type elem struct {
	kind uint8 // 0 = thread, 1 = lock, 2 = volatile
	id   uint32
}

func threadElem(t vclock.Thread) elem { return elem{0, uint32(t)} }
func lockElem(m event.Lock) elem      { return elem{1, uint32(m)} }
func volElem(vx event.Volatile) elem  { return elem{2, uint32(vx)} }

// closure is one recorded access's entitlement set.
type closure struct {
	elems map[elem]struct{}
	// Owner access, for reporting.
	t     vclock.Thread
	site  event.Site
	write bool
}

func (c *closure) has(e elem) bool {
	_, ok := c.elems[e]
	return ok
}

// varState holds a variable's recorded accesses: the last write and the
// concurrent readers since it.
type varState struct {
	write   *closure
	readers map[vclock.Thread]*closure
}

// Detector is the Goldilocks analysis. It is not safe for concurrent use.
type Detector struct {
	vars map[event.Var]*varState
	// index maps each synchronization element to the closures containing
	// it, so a synchronization operation touches only the closures it can
	// actually grow.
	index  map[elem]map[*closure]struct{}
	report detector.Reporter
	stats  detector.Counters
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Accounted = (*Detector)(nil)
)

// New returns a Goldilocks detector.
func New(report detector.Reporter) *Detector {
	return &Detector{
		vars:   make(map[event.Var]*varState),
		index:  make(map[elem]map[*closure]struct{}),
		report: report,
	}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "goldilocks" }

// Stats returns the detector's operation counters.
func (d *Detector) Stats() *detector.Counters { return &d.stats }

func (d *Detector) newClosure(t vclock.Thread, site event.Site, write bool) *closure {
	c := &closure{elems: map[elem]struct{}{}, t: t, site: site, write: write}
	d.add(c, threadElem(t))
	return c
}

func (d *Detector) add(c *closure, e elem) {
	if c.has(e) {
		return
	}
	c.elems[e] = struct{}{}
	cs, ok := d.index[e]
	if !ok {
		cs = make(map[*closure]struct{})
		d.index[e] = cs
	}
	cs[c] = struct{}{}
}

func (d *Detector) drop(c *closure) {
	if c == nil {
		return
	}
	for e := range c.elems {
		delete(d.index[e], c)
	}
}

// transfer grows every closure containing `from` by `to`.
func (d *Detector) transfer(from, to elem) {
	// Collect first: adding `to` mutates d.index[to], never d.index[from],
	// but `from == to` cannot occur (kinds always differ or ids differ by
	// the caller's construction); collect anyway for clarity.
	var grow []*closure
	for c := range d.index[from] {
		grow = append(grow, c)
	}
	for _, c := range grow {
		d.add(c, to)
	}
}

// LocksetSize returns the size of the last write's closure, for tests.
func (d *Detector) LocksetSize(x event.Var) int {
	if v, ok := d.vars[x]; ok && v.write != nil {
		return len(v.write.elems)
	}
	return 0
}

func (d *Detector) emit(first *closure, t vclock.Thread, x event.Var, site event.Site, currentWrite bool) {
	d.stats.Races++
	if d.report == nil {
		return
	}
	kind := detector.ReadWrite
	switch {
	case first.write && currentWrite:
		kind = detector.WriteWrite
	case first.write && !currentWrite:
		kind = detector.WriteRead
	}
	d.report(detector.Race{
		Var: x, Kind: kind,
		FirstThread: first.t, SecondThread: t,
		FirstSite: first.site, SecondSite: site,
	})
}

func (d *Detector) varState(x event.Var) *varState {
	v, ok := d.vars[x]
	if !ok {
		v = &varState{readers: make(map[vclock.Thread]*closure)}
		d.vars[x] = v
	}
	return v
}

// Read observes rd(t, x): race iff the last write does not happen before
// it; the reader then records its own closure (replacing its previous one,
// which the new read supersedes).
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	d.stats.ReadSlow[detector.Sampling]++
	v := d.varState(x)
	te := threadElem(t)
	if v.write != nil && !v.write.has(te) {
		d.emit(v.write, t, x, site, false)
	}
	if old := v.readers[t]; old != nil {
		d.drop(old)
	}
	v.readers[t] = d.newClosure(t, site, false)
}

// Write observes wr(t, x): race iff the last write or any concurrent
// reader does not happen before it; the write then supersedes all recorded
// accesses.
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	d.stats.WriteSlow[detector.Sampling]++
	v := d.varState(x)
	te := threadElem(t)
	if v.write != nil && !v.write.has(te) {
		d.emit(v.write, t, x, site, true)
	}
	// Deterministic report order over racing readers.
	var ts []vclock.Thread
	for rt := range v.readers {
		ts = append(ts, rt)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for _, rt := range ts {
		r := v.readers[rt]
		if !r.has(te) {
			d.emit(r, t, x, site, true)
		}
		d.drop(r)
		delete(v.readers, rt)
	}
	d.drop(v.write)
	v.write = d.newClosure(t, site, true)
}

// Acquire implements acq(t, m): closures containing m gain t.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) {
	d.stats.SyncOps[detector.Sampling]++
	d.transfer(lockElem(m), threadElem(t))
}

// Release implements rel(t, m): closures containing t gain m.
func (d *Detector) Release(t vclock.Thread, m event.Lock) {
	d.stats.SyncOps[detector.Sampling]++
	d.transfer(threadElem(t), lockElem(m))
}

// Fork publishes the parent's recorded accesses to the child.
func (d *Detector) Fork(t, u vclock.Thread) {
	d.stats.SyncOps[detector.Sampling]++
	d.transfer(threadElem(t), threadElem(u))
}

// Join publishes the joined thread's recorded accesses to the joiner.
func (d *Detector) Join(t, u vclock.Thread) {
	d.stats.SyncOps[detector.Sampling]++
	d.transfer(threadElem(u), threadElem(t))
}

// VolRead implements vol_rd(t, vx): closures containing vx gain t.
func (d *Detector) VolRead(t vclock.Thread, vx event.Volatile) {
	d.stats.SyncOps[detector.Sampling]++
	d.transfer(volElem(vx), threadElem(t))
}

// VolWrite implements vol_wr(t, vx): closures containing t gain vx.
func (d *Detector) VolWrite(t vclock.Thread, vx event.Volatile) {
	d.stats.SyncOps[detector.Sampling]++
	d.transfer(threadElem(t), volElem(vx))
}

// VarsTracked implements detector.Accounted.
func (d *Detector) VarsTracked() int { return len(d.vars) }

// MetadataWords implements detector.Accounted. A variable costs two words
// (the write closure and the reader table) plus, for each closure it
// records — the last write's and one per concurrent reader — three words
// (the owning thread, its site and kind, the element set) and one word
// per element. The inverted index repeats the elements for the
// synchronization side and is not counted.
func (d *Detector) MetadataWords() int {
	w := 0
	for _, v := range d.vars {
		w += 2
		if v.write != nil {
			w += 3 + len(v.write.elems)
		}
		for _, c := range v.readers {
			w += 3 + len(c.elems)
		}
	}
	return w
}
