package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"pacer/internal/detector"
	"pacer/internal/vclock"
)

// ErrDeadlock is returned when every live thread is blocked.
var ErrDeadlock = errors.New("sim: deadlock: all live threads blocked")

// ErrTooManyEvents is returned when a program exceeds Config.MaxEvents.
var ErrTooManyEvents = errors.New("sim: event budget exceeded")

// Run executes the program under the given configuration and returns the
// trial's measurements.
func Run(p Program, cfg Config) (*Result, error) {
	cfg.fill()
	s := &Sim{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		lockOwner: make(map[Lock]vclock.Thread),
	}
	if cfg.Detector != nil {
		s.sampler, _ = cfg.Detector.(detector.Sampler)
		s.acct, _ = cfg.Detector.(detector.Accounted)
	}
	s.result.Program = p.Name
	// Roll the initial period like any other: without this, short runs with
	// few collections systematically under-sample.
	if s.sampler != nil && cfg.SampleTarget > 0 && s.rng.Float64() < s.adjustedProbability() {
		s.sampler.SampleBegin()
		s.sampling = true
	}
	s.spawn(p.Main)

	for {
		runnable := s.runnable()
		if len(runnable) == 0 {
			if s.liveCount() == 0 {
				break
			}
			return &s.result, fmt.Errorf("%w (%d live threads)", ErrDeadlock, s.liveCount())
		}
		t := runnable[s.rng.Intn(len(runnable))]
		if err := s.step(t); err != nil {
			return &s.result, err
		}
		if s.result.Events > s.cfg.MaxEvents {
			return &s.result, ErrTooManyEvents
		}
	}
	s.finish()
	return &s.result, nil
}

// spawn creates a thread, starts its goroutine, and synchronously pulls
// its first pending operation so scheduling stays deterministic.
func (s *Sim) spawn(fn ThreadFunc) *Thread {
	id := vclock.Thread(len(s.threads))
	t := &Thread{
		id:     id,
		rng:    rand.New(rand.NewSource(s.cfg.Seed*1_000_003 + int64(id))),
		reqs:   make(chan op),
		grants: make(chan struct{}),
	}
	s.threads = append(s.threads, t)
	s.result.ThreadsTotal++
	go func() {
		fn(t)
		t.reqs <- op{kind: opExit}
	}()
	s.pull(t)
	return t
}

// pull reads the thread's next pending operation.
func (s *Sim) pull(t *Thread) {
	o := <-t.reqs
	t.pending = &o
}

func (s *Sim) liveCount() int {
	n := 0
	for _, t := range s.threads {
		if !t.done {
			n++
		}
	}
	return n
}

// runnable returns the threads whose pending operation can execute now.
func (s *Sim) runnable() []*Thread {
	var out []*Thread
	live := 0
	for _, t := range s.threads {
		if t.done || t.pending == nil {
			continue
		}
		live++
		switch t.pending.kind {
		case opLock:
			if owner, held := s.lockOwner[Lock(t.pending.target)]; held && owner != t.id {
				continue
			}
		case opJoin:
			u := vclock.Thread(t.pending.target)
			if int(u) >= len(s.threads) || !s.threads[u].done {
				continue
			}
		}
		out = append(out, t)
	}
	if live > s.result.MaxLiveThreads {
		s.result.MaxLiveThreads = live
	}
	return out
}

// step executes t's pending operation.
func (s *Sim) step(t *Thread) error {
	o := *t.pending
	d := s.cfg.Detector
	cm := &s.cfg.Cost
	s.result.Events++

	switch o.kind {
	case opRead:
		s.result.Reads++
		s.result.BaseCost += cm.AccessBase
		if d != nil && s.cfg.InstrumentAccesses {
			d.Read(t.id, Var(o.target), o.site, o.method)
			s.accountDelta()
		}
	case opWrite:
		s.result.Writes++
		s.result.BaseCost += cm.AccessBase
		if d != nil && s.cfg.InstrumentAccesses {
			d.Write(t.id, Var(o.target), o.site, o.method)
			s.accountDelta()
		}
	case opLock:
		m := Lock(o.target)
		if owner, held := s.lockOwner[m]; held {
			return fmt.Errorf("sim: thread %d acquired lock %d held by %d", t.id, m, owner)
		}
		s.lockOwner[m] = t.id
		s.syncOp()
		if d != nil {
			d.Acquire(t.id, m)
			s.accountDelta()
		}
	case opUnlock:
		m := Lock(o.target)
		if owner, held := s.lockOwner[m]; !held || owner != t.id {
			return fmt.Errorf("sim: thread %d released lock %d it does not hold", t.id, m)
		}
		delete(s.lockOwner, m)
		s.syncOp()
		if d != nil {
			d.Release(t.id, m)
			s.accountDelta()
		}
	case opVolRead:
		s.syncOp()
		if d != nil {
			d.VolRead(t.id, Volatile(o.target))
			s.accountDelta()
		}
	case opVolWrite:
		s.syncOp()
		if d != nil {
			d.VolWrite(t.id, Volatile(o.target))
			s.accountDelta()
		}
	case opFork:
		child := s.spawn(o.fn)
		t.forkID = child.id
		s.syncOp()
		if d != nil {
			d.Fork(t.id, child.id)
			s.accountDelta()
		}
	case opJoin:
		s.syncOp()
		if d != nil {
			d.Join(t.id, vclock.Thread(o.target))
			s.accountDelta()
		}
	case opAlloc:
		s.programAllocd += uint64(o.n)
		s.allocSinceGC += o.n
		s.result.BaseCost += cm.AllocPerWord * float64(o.n)
		if d != nil {
			// Two header words per object (Section 4): modelled as a small
			// extra allocation cost plus extra heap pressure.
			s.result.InstrCost += cm.OMPerWord * float64(o.n)
			s.allocSinceGC += o.n / 16
		}
	case opWork:
		s.result.BaseCost += float64(o.n)
	case opWait:
		if err := s.stepWait(t, o); err != nil {
			return err
		}
		s.maybeGC()
		return nil // thread stays parked; no grant yet
	case opNotify:
		s.stepNotify(t, o, false)
	case opNotifyAll:
		s.stepNotify(t, o, true)
	case opExit:
		t.done = true
		t.pending = nil
		close(t.grants)
		if tr, ok := d.(detector.ThreadReuser); ok {
			tr.ThreadExit(t.id)
		}
		s.maybeGC()
		return nil
	}

	s.maybeGC()
	t.grants <- struct{}{}
	s.pull(t)
	return nil
}

// syncOp accounts a synchronization operation: base cost, instrumentation
// base cost, and the sampling controller's measure of program work.
func (s *Sim) syncOp() {
	s.result.SyncOps++
	s.result.BaseCost += s.cfg.Cost.SyncBase
	s.syncTotal++
	s.periodSync++
	if s.sampling {
		s.syncSampling++
	}
	if s.cfg.Detector != nil {
		s.result.InstrCost += s.cfg.Cost.SyncInstrBase
	}
}

// accountDelta converts the detector's counter movement since the last
// event into instrumentation cost and metadata allocation (which advances
// the collector, reproducing the sampling bias of Section 4).
func (s *Sim) accountDelta() {
	if s.acct == nil {
		return
	}
	cur := *s.acct.Stats()
	d := diff(&cur, &s.prevStats)
	s.prevStats = cur
	cm := &s.cfg.Cost

	both := func(c [2]uint64) float64 { return float64(c[0] + c[1]) }
	ic := 0.0
	ic += cm.FastPathCheck * both(d.ReadFast)
	ic += cm.FastPathCheck * both(d.WriteFast)
	ic += cm.SlowPathAccess * both(d.ReadSlow)
	ic += cm.SlowPathAccess * both(d.WriteSlow)
	ic += cm.SlowJoinBase * both(d.SlowJoins)
	ic += cm.PerElem * float64(d.JoinWork)
	ic += cm.FastJoin * both(d.FastJoins)
	ic += cm.DeepCopyBase * both(d.DeepCopies)
	ic += cm.MemcpyPerElem * float64(d.CopyWork)
	ic += cm.ShallowCopy * both(d.ShallowCopies)
	ic += cm.Increment * both(d.Increments)
	ic += cm.MemcpyPerElem * both(d.Clones) * float64(len(s.threads))
	s.result.InstrCost += ic

	// Metadata allocation pressure: per-variable metadata on sampled slow
	// paths plus a fraction of deep-copy work (fresh snapshots). Clones are
	// excluded — they replace the thread's clock, so they do not grow the
	// live set the way access metadata does. This is what makes collections
	// come sooner during sampling, the bias Table 1's controller corrects.
	meta := 3*(d.ReadSlow[detector.Sampling]+d.WriteSlow[detector.Sampling]) +
		d.CopyWork/4
	s.allocSinceGC += int(meta)
}

func diff(a, b *detector.Counters) detector.Counters {
	var d detector.Counters
	for p := 0; p < 2; p++ {
		d.SlowJoins[p] = a.SlowJoins[p] - b.SlowJoins[p]
		d.FastJoins[p] = a.FastJoins[p] - b.FastJoins[p]
		d.DeepCopies[p] = a.DeepCopies[p] - b.DeepCopies[p]
		d.ShallowCopies[p] = a.ShallowCopies[p] - b.ShallowCopies[p]
		d.ReadSlow[p] = a.ReadSlow[p] - b.ReadSlow[p]
		d.ReadFast[p] = a.ReadFast[p] - b.ReadFast[p]
		d.WriteSlow[p] = a.WriteSlow[p] - b.WriteSlow[p]
		d.WriteFast[p] = a.WriteFast[p] - b.WriteFast[p]
		d.SyncOps[p] = a.SyncOps[p] - b.SyncOps[p]
		d.Increments[p] = a.Increments[p] - b.Increments[p]
		d.Clones[p] = a.Clones[p] - b.Clones[p]
	}
	d.JoinWork = a.JoinWork - b.JoinWork
	d.CopyWork = a.CopyWork - b.CopyWork
	d.Races = a.Races - b.Races
	return d
}

// maybeGC triggers a collection when the nursery is exhausted, toggling
// the sampling period exactly as the paper's implementation does.
func (s *Sim) maybeGC() {
	if s.allocSinceGC < s.cfg.NurseryWords {
		return
	}
	s.allocSinceGC = 0
	s.collections++
	s.result.Collections++

	// Account the period that just ended.
	if s.sampling {
		s.sampWork += float64(s.periodSync)
		s.sampPeriods++
	} else {
		s.nonsampWork += float64(s.periodSync)
		s.nonsampP++
	}
	s.periodSync = 0

	// Memory sample at full-heap collections.
	if s.cfg.MemTimeline && s.collections%s.cfg.FullHeapEvery == 0 {
		s.recordMemSample()
	}

	// Toggle sampling with the bias-corrected probability (Section 4).
	if s.sampler != nil && s.cfg.SampleTarget > 0 {
		if s.sampling {
			s.sampler.SampleEnd()
			s.sampling = false
		}
		if s.rng.Float64() < s.adjustedProbability() {
			s.sampler.SampleBegin()
			s.sampling = true
		}
	}
}

// adjustedProbability corrects for metadata allocation shortening sampling
// periods: entering sampling with plain probability r would under-sample
// program work, so the controller reweights by the observed work per
// period of each kind, measured in synchronization operations.
func (s *Sim) adjustedProbability() float64 {
	r := s.cfg.SampleTarget
	if r >= 1 {
		return 1
	}
	wn := 1.0
	if s.nonsampP > 0 && s.nonsampWork > 0 {
		wn = s.nonsampWork / float64(s.nonsampP)
	}
	// Sampling periods are shorter because metadata allocation brings
	// collections sooner; before enough periods have been observed, blend
	// the measurement with a prior of half a non-sampling period's work.
	const priorPeriods = 5
	ws := 0.5 * wn
	if s.sampPeriods > 0 {
		obs := s.sampWork / float64(s.sampPeriods)
		if n := float64(min(s.sampPeriods, priorPeriods)); n < priorPeriods {
			ws = (obs*n + ws*(priorPeriods-n)) / priorPeriods
		} else {
			ws = obs
		}
	}
	if ws <= 0 {
		ws = 0.1 * wn
	}
	p := r * wn / (ws*(1-r) + r*wn)
	return min(max(p, 0), 1)
}

func (s *Sim) recordMemSample() {
	meta := 0
	if s.acct != nil {
		meta = s.acct.MetadataWords()
	}
	om := 0
	if s.cfg.Detector != nil {
		// Two header words per object: modelled as a constant fraction of
		// the live program heap.
		om = int(s.programLive()) / 8
	}
	s.result.MemSamples = append(s.result.MemSamples, MemSample{
		Event:        s.result.Events,
		ProgramWords: int(s.programLive()),
		HeaderWords:  om,
		MetaWords:    meta,
	})
}

// programLive models the program's live heap: a base plus slow growth, as
// eclipse exhibits in Figure 10. The base is kept comparable to the
// detectors' metadata footprints at this scale so Figure 10's series
// separate the way the paper's do.
func (s *Sim) programLive() uint64 {
	return 6_000 + s.programAllocd/128
}

// finish closes out the final period and computes summary statistics.
func (s *Sim) finish() {
	if s.sampling {
		s.sampWork += float64(s.periodSync)
		s.sampPeriods++
		if s.sampler != nil {
			s.sampler.SampleEnd()
		}
	} else {
		s.nonsampWork += float64(s.periodSync)
		s.nonsampP++
	}
	if s.syncTotal > 0 {
		s.result.EffectiveRate = float64(s.syncSampling) / float64(s.syncTotal)
	}
	s.result.SamplingPeriods = s.sampPeriods
	if s.acct != nil {
		s.result.Counters = *s.acct.Stats()
		s.result.FinalMetaWords = s.acct.MetadataWords()
	}
}
