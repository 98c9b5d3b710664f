package workload

import (
	"pacer/internal/sim"
	"pacer/internal/vclock"
)

// Micro workloads: classic synchronization idioms as simulated programs.
// They complement the benchmark models with recognizable patterns whose
// race status is known by construction, and they exercise the substrate's
// volatile, fork/join, and lock machinery in the shapes real programs use.

// Identifier bases for the micro programs (kept clear of the benchmark
// models' ranges).
const (
	microVarBase  = 70_000
	microSiteBase = 70_000
)

// RacyHandoff is a schedule-dependent handoff — a heisenbug by
// construction: the producer fills a buffer and volatile-writes a flag
// once; the consumer volatile-reads the flag once and then reads the
// buffer. Whether the buffer accesses race depends on whether the
// scheduler happened to run the consumer's volatile read after the
// producer's volatile write (a real program would spin, but a single
// unsuccessful check is exactly how rare order-violation bugs look).
func RacyHandoff(items int) sim.Program {
	return sim.Program{
		Name: "racy-handoff",
		Main: func(t *sim.Thread) {
			flag := sim.Volatile(0)
			buf := func(i int) sim.Var { return sim.Var(microVarBase + i) }
			p := t.Fork(func(pt *sim.Thread) {
				for i := 0; i < items; i++ {
					pt.Write(buf(i), sim.Site(microSiteBase+500+i), 1)
				}
				pt.VolWrite(flag)
			})
			c := t.Fork(func(ct *sim.Thread) {
				ct.Work(3) // racing the producer to the flag
				ct.VolRead(flag)
				for i := 0; i < items; i++ {
					ct.Read(buf(i), sim.Site(microSiteBase+i), 1)
				}
			})
			t.Join(p)
			t.Join(c)
		},
	}
}

// SafeProducerConsumer is the properly ordered variant: the producer runs
// to completion and publishes before the consumers are even forked, so
// every consumer's read is ordered after the writes regardless of
// schedule. Race-free by construction.
func SafeProducerConsumer(items, consumers int) sim.Program {
	return sim.Program{
		Name: "safe-producer-consumer",
		Main: func(t *sim.Thread) {
			buf := func(i int) sim.Var { return sim.Var(microVarBase + i) }
			p := t.Fork(func(pt *sim.Thread) {
				for i := 0; i < items; i++ {
					pt.Write(buf(i), sim.Site(microSiteBase+500+i), 1)
				}
				pt.VolWrite(0)
			})
			t.Join(p)
			var kids []vclock.Thread
			for c := 0; c < consumers; c++ {
				kids = append(kids, t.Fork(func(ct *sim.Thread) {
					ct.VolRead(0)
					for i := 0; i < items; i++ {
						ct.Read(buf(i), sim.Site(microSiteBase+i), 1)
					}
				}))
			}
			for _, k := range kids {
				t.Join(k)
			}
		},
	}
}

// BrokenPublish is the classic unsafe publication bug: the producer writes
// the buffer and raises a plain (non-volatile) flag variable; a consumer
// forked concurrently reads the buffer with no ordering. Every buffer slot
// races.
func BrokenPublish(items int) sim.Program {
	return sim.Program{
		Name: "broken-publish",
		Main: func(t *sim.Thread) {
			buf := func(i int) sim.Var { return sim.Var(microVarBase + i) }
			flag := sim.Var(microVarBase + 999)
			p := t.Fork(func(pt *sim.Thread) {
				for i := 0; i < items; i++ {
					pt.Write(buf(i), sim.Site(microSiteBase+500+i), 1)
				}
				pt.Write(flag, sim.Site(microSiteBase+990), 1) // plain flag: no edge
			})
			c := t.Fork(func(ct *sim.Thread) {
				ct.Read(flag, sim.Site(microSiteBase+991), 2)
				for i := 0; i < items; i++ {
					ct.Read(buf(i), sim.Site(microSiteBase+i), 2)
				}
			})
			t.Join(p)
			t.Join(c)
		},
	}
}

// ReadersWriters models a reader-preference readers/writers idiom using a
// single lock for writers and for reader bookkeeping. All data accesses
// are lock-ordered; race-free.
func ReadersWriters(readers, rounds int) sim.Program {
	return sim.Program{
		Name: "readers-writers",
		Main: func(t *sim.Thread) {
			const lk = sim.Lock(1)
			data := sim.Var(microVarBase + 100)
			var kids []vclock.Thread
			for r := 0; r < readers; r++ {
				kids = append(kids, t.Fork(func(rt *sim.Thread) {
					for i := 0; i < rounds; i++ {
						rt.Lock(lk)
						rt.Read(data, sim.Site(microSiteBase+100), 3)
						rt.Unlock(lk)
						rt.Work(2)
					}
				}))
			}
			w := t.Fork(func(wt *sim.Thread) {
				for i := 0; i < rounds; i++ {
					wt.Lock(lk)
					wt.Write(data, sim.Site(microSiteBase+101), 3)
					wt.Unlock(lk)
					wt.Work(3)
				}
			})
			kids = append(kids, w)
			for _, k := range kids {
				t.Join(k)
			}
		},
	}
}

// PhaseBarrier models barrier-style phases via fork/join waves: each phase
// forks workers that write disjoint then shared slots, joins them, and the
// next phase reads what the previous wrote. Race-free.
func PhaseBarrier(workers, phases int) sim.Program {
	return sim.Program{
		Name: "phase-barrier",
		Main: func(t *sim.Thread) {
			slot := func(p, w int) sim.Var { return sim.Var(microVarBase + 200 + p*workers + w) }
			for p := 0; p < phases; p++ {
				var wave []vclock.Thread
				for w := 0; w < workers; w++ {
					w := w
					p := p
					wave = append(wave, t.Fork(func(wt *sim.Thread) {
						if p > 0 {
							// Read the previous phase's results.
							for v := 0; v < workers; v++ {
								wt.Read(slot(p-1, v), sim.Site(microSiteBase+200), 4)
							}
						}
						wt.Write(slot(p, w), sim.Site(microSiteBase+201), 4)
					}))
				}
				for _, k := range wave {
					t.Join(k)
				}
			}
		},
	}
}

// DoubleBuffer models the double-buffered pipeline idiom: phases alternate
// between two buffers, each phase's (freshly forked) workers reading the
// previous buffer and overwriting the other. Fork/join barriers make it
// race-free, but each slot is written by a different thread every other
// phase with no lock in sight — a pattern a locking-discipline checker
// would false-positive on, and happens-before detectors must not.
func DoubleBuffer(workers, phases int) sim.Program {
	return sim.Program{
		Name: "double-buffer",
		Main: func(t *sim.Thread) {
			slot := func(b, w int) sim.Var { return sim.Var(microVarBase + 300 + b*workers + w) }
			for p := 0; p < phases; p++ {
				cur, prev := p%2, 1-p%2
				var wave []vclock.Thread
				for w := 0; w < workers; w++ {
					w := w
					wave = append(wave, t.Fork(func(wt *sim.Thread) {
						if p > 0 {
							for v := 0; v < workers; v++ {
								wt.Read(slot(prev, v), sim.Site(microSiteBase+300), 5)
							}
						}
						wt.Write(slot(cur, w), sim.Site(microSiteBase+301), 5)
					}))
				}
				for _, k := range wave {
					t.Join(k)
				}
			}
		},
	}
}

// MonitorQueue models a bounded handoff through a Java-style monitor:
// producers put items under a lock, waiting while the slot is full;
// consumers take items, waiting while it is empty; both notify the other
// side. Race-free: every data access happens under the monitor.
func MonitorQueue(items int) sim.Program {
	return sim.Program{
		Name: "monitor-queue",
		Main: func(t *sim.Thread) {
			const (
				mon  = sim.Lock(1)
				cv   = sim.Cond(1)
				slot = sim.Var(microVarBase + 400)
			)
			full := false
			produced, consumed := 0, 0
			producer := t.Fork(func(p *sim.Thread) {
				for produced < items {
					p.Lock(mon)
					for full {
						p.Wait(cv, mon)
					}
					p.Write(slot, sim.Site(microSiteBase+400), 6)
					full = true
					produced++
					p.NotifyAll(cv)
					p.Unlock(mon)
				}
			})
			consumer := t.Fork(func(c *sim.Thread) {
				for consumed < items {
					c.Lock(mon)
					for !full {
						c.Wait(cv, mon)
					}
					c.Read(slot, sim.Site(microSiteBase+401), 6)
					full = false
					consumed++
					c.NotifyAll(cv)
					c.Unlock(mon)
				}
			})
			t.Join(producer)
			t.Join(consumer)
		},
	}
}
