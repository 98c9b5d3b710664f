// Package generic implements the GENERIC vector-clock race detector of
// Section 2.1 (Algorithms 1-6, 14-15): the textbook algorithm that keeps a
// full vector clock for the reads and the writes of every variable and
// performs O(n) analysis at every operation. It is sound and precise but
// slow; it exists as the baseline FASTTRACK and PACER are measured against.
package generic

import (
	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

type varMeta struct {
	r, w           *vclock.VC
	rSites, wSites []event.Site
}

// Detector is the GENERIC analysis. It is not safe for concurrent use.
type Detector struct {
	sync   *detector.BaseSync
	vars   map[event.Var]*varMeta
	report detector.Reporter
	stats  detector.Counters
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Accounted = (*Detector)(nil)
)

// New returns a GENERIC detector reporting races to report (which may be
// nil to discard reports).
func New(report detector.Reporter) *Detector {
	d := &Detector{vars: make(map[event.Var]*varMeta), report: report}
	d.sync = detector.NewBaseSync(&d.stats)
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "generic" }

// Stats returns the detector's operation counters.
func (d *Detector) Stats() *detector.Counters { return &d.stats }

func (d *Detector) varMeta(x event.Var) *varMeta {
	m, ok := d.vars[x]
	if !ok {
		m = &varMeta{r: vclock.New(0), w: vclock.New(0)}
		d.vars[x] = m
	}
	return m
}

func (d *Detector) emit(r detector.Race) {
	d.stats.Races++
	if d.report != nil {
		d.report(r)
	}
}

func siteAt(sites []event.Site, t vclock.Thread) event.Site {
	if int(t) < len(sites) {
		return sites[t]
	}
	return 0
}

func setSite(sites *[]event.Site, t vclock.Thread, s event.Site) {
	for int(t) >= len(*sites) {
		*sites = append(*sites, 0)
	}
	(*sites)[t] = s
}

// checkLeq reports, for every component u with prior(u) > ct(u), a race of
// the given kind whose first access is thread u's recorded access.
func (d *Detector) checkLeq(prior *vclock.VC, sites []event.Site, ct *vclock.VC,
	kind detector.RaceKind, x event.Var, t vclock.Thread, site event.Site) {
	if prior.Leq(ct) {
		return
	}
	for u := vclock.Thread(0); int(u) < prior.Len(); u++ {
		if prior.Get(u) > ct.Get(u) {
			d.emit(detector.Race{
				Var: x, Kind: kind,
				FirstThread: u, SecondThread: t,
				FirstSite: siteAt(sites, u), SecondSite: site,
			})
		}
	}
}

// Read implements Algorithm 5: check W_x ⊑ C_t, then R_x(t) ← C_t(t).
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	d.stats.ReadSlow[detector.Sampling]++
	ct := d.sync.ThreadClock(t)
	m := d.varMeta(x)
	d.checkLeq(m.w, m.wSites, ct, detector.WriteRead, x, t, site)
	m.r.Set(t, ct.Get(t))
	setSite(&m.rSites, t, site)
}

// Write implements Algorithm 6: check W_x ⊑ C_t and R_x ⊑ C_t, then
// W_x(t) ← C_t(t).
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	d.stats.WriteSlow[detector.Sampling]++
	ct := d.sync.ThreadClock(t)
	m := d.varMeta(x)
	d.checkLeq(m.w, m.wSites, ct, detector.WriteWrite, x, t, site)
	d.checkLeq(m.r, m.rSites, ct, detector.ReadWrite, x, t, site)
	m.w.Set(t, ct.Get(t))
	setSite(&m.wSites, t, site)
}

// Acquire implements Algorithm 1.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) { d.sync.Acquire(t, m) }

// Release implements Algorithm 2.
func (d *Detector) Release(t vclock.Thread, m event.Lock) { d.sync.Release(t, m) }

// Fork implements Algorithm 3.
func (d *Detector) Fork(t, u vclock.Thread) { d.sync.Fork(t, u) }

// Join implements Algorithm 4.
func (d *Detector) Join(t, u vclock.Thread) { d.sync.Join(t, u) }

// VolRead implements Algorithm 14.
func (d *Detector) VolRead(t vclock.Thread, vx event.Volatile) { d.sync.VolRead(t, vx) }

// VolWrite implements Algorithm 15.
func (d *Detector) VolWrite(t vclock.Thread, vx event.Volatile) { d.sync.VolWrite(t, vx) }

// VarsTracked implements detector.Accounted.
func (d *Detector) VarsTracked() int { return len(d.vars) }

// MetadataWords implements detector.Accounted.
func (d *Detector) MetadataWords() int {
	w := d.sync.MetadataWords()
	for _, m := range d.vars {
		w += m.r.MemoryWords() + m.w.MemoryWords() + len(m.rSites)/2 + len(m.wSites)/2 + 2
	}
	return w
}
