package pacer_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pacer"
	"pacer/internal/event"
	"pacer/internal/oracle"
)

// A slot joined by one thread is not handed to a fork from an unrelated
// root thread: that thread never received the joined thread's final clock,
// so its child gets a fresh identifier and races with the joined thread's
// write.
func TestSlotReuseUnrelatedRoot(t *testing.T) {
	var races []pacer.Race
	d := pacer.New(pacer.Options{SamplingRate: 1, OnRace: func(r pacer.Race) { races = append(races, r) }})
	a := d.NewThread()
	x := d.NewVarID()
	u := d.Fork(a)
	d.Write(u, x, 10)
	d.Join(a, u)
	b := d.NewThread()
	d.Write(b, d.NewVarID(), 15) // b's clock and versions exist, without u
	c := d.Fork(b)
	if c == u {
		t.Fatalf("fork from unrelated root %d reused slot %d joined by %d", b, u, a)
	}
	d.Write(c, x, 20)
	if len(races) != 1 || races[0].FirstThread != u || races[0].FirstSite != 10 || races[0].SecondThread != c {
		t.Fatalf("races = %v, want one between thread %d's write at site 10 and thread %d's", races, u, c)
	}
	// The joiner itself does reuse the slot, and its child is ordered
	// after the joined thread's write.
	if w := d.Fork(a); w != u {
		t.Fatalf("joiner's fork got thread %d, want the joined slot %d", w, u)
	}
}

// slotProgram is a random nested fork/join program driven through the
// public API, so joined identifiers are reused, and recorded with
// TraceSink.
type slotProgram struct {
	trace event.Trace
	races []pacer.Race
	roots int // root threads
	forks int // Fork calls
	width int // largest thread identifier + 1
}

// runSlotProgram runs the program seed selects on a detector at rate 1.
// Threads fork children (who fork their own), access six variables plainly,
// under one of three locks, or around a volatile, and join their children;
// some children are never joined, so their accesses race.
func runSlotProgram(seed int64) *slotProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &slotProgram{}
	d := pacer.New(pacer.Options{
		SamplingRate: 1,
		Seed:         seed + 1,
		TraceSink:    func(e pacer.Event) { p.trace = append(p.trace, e) },
		OnRace:       func(r pacer.Race) { p.races = append(p.races, r) },
	})
	vars := make([]pacer.VarID, 6)
	for i := range vars {
		vars[i] = d.NewVarID()
	}
	locks := []pacer.LockID{d.NewLockID(), d.NewLockID(), d.NewLockID()}
	vol := d.NewVolatileID()
	type thread struct {
		id       pacer.ThreadID
		children []pacer.ThreadID
	}
	var live []*thread
	add := func(id pacer.ThreadID) {
		live = append(live, &thread{id: id})
		p.width = max(p.width, int(id)+1)
	}
	p.roots = 1 + rng.Intn(2)
	for len(live) < p.roots {
		add(d.NewThread())
	}
	site := pacer.SiteID(0)
	access := func(t pacer.ThreadID) {
		site++
		x := vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			d.Write(t, x, site)
		} else {
			d.Read(t, x, site)
		}
	}
	for step := 0; step < 300; step++ {
		th := live[rng.Intn(len(live))]
		switch k := rng.Intn(20); {
		case k < 4 && len(live) < 7:
			c := d.Fork(th.id)
			p.forks++
			th.children = append(th.children, c)
			add(c)
		case k < 9 && len(th.children) > 0:
			i := rng.Intn(len(th.children))
			c := th.children[i]
			th.children = append(th.children[:i], th.children[i+1:]...)
			d.Join(th.id, c)
			for j, l := range live {
				if l.id == c {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		case k < 13:
			l := locks[rng.Intn(len(locks))]
			d.Acquire(th.id, l)
			access(th.id)
			d.Release(th.id, l)
		case k < 14:
			access(th.id)
			d.VolWrite(th.id, vol)
		case k < 15:
			d.VolRead(th.id, vol)
			access(th.id)
		default:
			access(th.id)
		}
	}
	return p
}

// freshTwin renames every forked child of tr to an identifier of its own,
// numbered from first: the trace the same program records when no
// identifier is reused. back maps the twin's identifiers to tr's.
func freshTwin(tr event.Trace, first pacer.ThreadID) (twin event.Trace, back map[pacer.ThreadID]pacer.ThreadID) {
	cur := map[pacer.ThreadID]pacer.ThreadID{} // slot → its occupant's twin identifier
	back = map[pacer.ThreadID]pacer.ThreadID{}
	name := func(slot pacer.ThreadID) pacer.ThreadID {
		if id, ok := cur[slot]; ok {
			return id
		}
		back[slot] = slot // a root thread keeps its identifier
		return slot
	}
	next := first
	twin = make(event.Trace, len(tr))
	for i, e := range tr {
		if e.Kind == event.SampleBegin || e.Kind == event.SampleEnd {
			twin[i] = e
			continue
		}
		e.Thread = name(e.Thread)
		switch e.Kind {
		case event.Fork:
			slot := pacer.ThreadID(e.Target)
			cur[slot] = next
			back[next] = slot
			e.Target = uint32(next)
			next++
		case event.Join:
			e.Target = uint32(name(pacer.ThreadID(e.Target)))
		}
		twin[i] = e
	}
	return twin, back
}

// withoutSampling drops a trace's sampling transitions, so a replay is
// sampled by the replaying detector's own period roller.
func withoutSampling(tr event.Trace) event.Trace {
	var out event.Trace
	for _, e := range tr {
		if e.Kind != event.SampleBegin && e.Kind != event.SampleEnd {
			out = append(out, e)
		}
	}
	return out
}

// replayRaces replays tr through Apply and returns its races with thread
// identifiers renamed through back (nil keeps them).
func replayRaces(tr event.Trace, opts pacer.Options, back map[pacer.ThreadID]pacer.ThreadID) []pacer.Race {
	var races []pacer.Race
	opts.OnRace = func(r pacer.Race) {
		if back != nil {
			r.FirstThread, r.SecondThread = back[r.FirstThread], back[r.SecondThread]
		}
		races = append(races, r)
	}
	d := pacer.New(opts)
	for _, e := range tr {
		d.Apply(e)
	}
	return races
}

// raceStrings renders races sorted, for comparing multisets.
func raceStrings(races []pacer.Race) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = fmt.Sprintf("%+v", r)
	}
	sort.Strings(out)
	return out
}

// raceDiff returns the races of a missing from b and of b missing from a,
// counted with multiplicity.
func raceDiff(a, b []pacer.Race) (onlyA, onlyB []pacer.Race) {
	count := map[pacer.Race]int{}
	for _, r := range b {
		count[r]++
	}
	for _, r := range a {
		if count[r]--; count[r] < 0 {
			onlyA = append(onlyA, r)
		}
	}
	for r, n := range count {
		for ; n > 0; n-- {
			onlyB = append(onlyB, r)
		}
	}
	return onlyA, onlyB
}

// replacedOnly reports whether got is a sub-multiset of want in which each
// race of want that is missing was replaced: got holds a race on the same
// variable, with the same second access, whose first access is by the same
// slot. On a trace that reuses a slot, the new occupant's access replaces
// the old occupant's in the metadata, as a thread's second access replaces
// its first, where the fresh twin keeps both. The old occupant's access
// happens before the new one's (Join, then Fork), so the race it loses is
// not a shortest race (Section 3): the new occupant's access races with
// the same second access, and that race is reported.
func replacedOnly(got, want []pacer.Race) bool {
	extra, missing := raceDiff(got, want)
	if len(extra) != 0 {
		return false
	}
	type second struct {
		v     pacer.VarID
		first pacer.ThreadID
		t     pacer.ThreadID
		site  pacer.SiteID
	}
	kept := map[second]bool{}
	for _, r := range got {
		kept[second{r.Var, r.FirstThread, r.SecondThread, r.SecondSite}] = true
	}
	for _, r := range missing {
		if !kept[second{r.Var, r.FirstThread, r.SecondThread, r.SecondSite}] {
			return false
		}
	}
	return true
}

// TestSlotReuseRandomPrograms runs random nested fork/join programs whose
// forks reuse joined identifiers and checks, per program:
//
//   - the oracle's ground truth of the recorded trace equals that of its
//     fresh-identifier twin, and every backend in every front-end
//     configuration is precise (and, where the oracle contract demands it,
//     complete) on the recorded trace at rate 1, as is the live run;
//   - replaying the recorded trace reproduces the live run's races;
//   - every backend, at rates 0.5 and 1, reports on the recorded trace
//     what it reports on the twin, thread identifiers mapped back, except
//     for races replaced by a later access of the same slot (see
//     replacedOnly).
func TestSlotReuseRandomPrograms(t *testing.T) {
	algos := pacer.Algorithms()
	reused, compared, replaced := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		p := runSlotProgram(seed)
		reused += p.forks - (p.width - p.roots)
		label := fmt.Sprintf("seed %d", seed)
		twin, back := freshTwin(p.trace, pacer.ThreadID(p.width))

		rep := oracle.Analyze(p.trace)
		if got, want := fmt.Sprint(rep.SortedPairs()), fmt.Sprint(oracle.Analyze(twin).SortedPairs()); got != want {
			t.Fatalf("%s: reuse changed the ground truth:\n%s\nfresh identifiers:\n%s", label, got, want)
		}
		for _, issue := range rep.Check(p.races, true) {
			t.Errorf("%s live run: %s", label, issue)
		}
		for _, algo := range algos {
			checkAgainstOracle(t, algo, p.trace, rep, label+" slot reuse", "go test -run TestSlotReuseRandomPrograms")
		}
		live := pacer.Options{SamplingRate: 1, Seed: seed + 1}
		if got, want := raceStrings(replayRaces(p.trace, live, nil)), raceStrings(p.races); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: replay reports\n%v\nlive run\n%v", label, got, want)
		}

		plain, plainTwin := withoutSampling(p.trace), withoutSampling(twin)
		for _, algo := range algos {
			for _, rate := range []float64{0.5, 1} {
				opts := pacer.Options{Algorithm: algo, SamplingRate: rate, Seed: 3, PeriodOps: 16}
				got := replayRaces(plain, opts, nil)
				want := replayRaces(plainTwin, opts, back)
				compared++
				if len(got) != len(want) {
					replaced++
				}
				if !replacedOnly(got, want) {
					extra, missing := raceDiff(got, want)
					t.Errorf("%s %s r=%g: reused identifiers report %d races, fresh ones %d; only with reuse: %v; only fresh: %v",
						label, algo, rate, len(got), len(want), extra, missing)
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no program reused an identifier")
	}
	t.Logf("%d forks reused a joined identifier; %d of %d replays lost a replaced race", reused, replaced, compared)
}

// TestSlotReuseChurn forks and joins from several goroutines at once: each
// worker repeatedly forks a child, lets it write the worker's own
// variable, joins it and reads the variable back. No two live threads may
// share an identifier, nothing races, and at rate 1 each worker reuses its
// own child's slot, so clocks stay 1 + 2·workers wide.
func TestSlotReuseChurn(t *testing.T) {
	const workers, gens = 4, 300
	for _, rate := range []float64{0.5, 1} {
		var raced []pacer.Race
		var mu sync.Mutex
		d := pacer.New(pacer.Options{SamplingRate: rate, PeriodOps: 64, OnRace: func(r pacer.Race) {
			mu.Lock()
			raced = append(raced, r)
			mu.Unlock()
		}})
		main := d.NewThread()
		shared := d.NewMutex()
		counter := d.NewVarID()
		liveIDs := map[pacer.ThreadID]bool{main: true}
		var width pacer.ThreadID
		claim := func(id pacer.ThreadID) {
			mu.Lock()
			defer mu.Unlock()
			if liveIDs[id] {
				t.Errorf("r=%g: thread %d handed out while still live", rate, id)
			}
			liveIDs[id] = true
			width = max(width, id+1)
		}
		release := func(id pacer.ThreadID) {
			mu.Lock()
			delete(liveIDs, id)
			mu.Unlock()
		}
		ws := make([]pacer.ThreadID, workers)
		for i := range ws {
			ws[i] = d.Fork(main)
			claim(ws[i])
		}
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w pacer.ThreadID) {
				defer wg.Done()
				own := d.NewVarID()
				for g := 0; g < gens; g++ {
					c := d.Fork(w)
					claim(c)
					done := make(chan struct{})
					go func() {
						d.Write(c, own, 1)
						shared.Lock(c)
						d.Write(c, counter, 2)
						shared.Unlock(c)
						close(done)
					}()
					<-done
					release(c)
					d.Join(w, c)
					d.Read(w, own, 3)
				}
			}(w)
		}
		wg.Wait()
		for _, w := range ws {
			release(w)
			d.Join(main, w)
		}
		d.Read(main, counter, 4)
		if len(raced) != 0 {
			t.Errorf("r=%g: %d false races, first %v", rate, len(raced), raced[0])
		}
		if rate == 1 && width > 1+2*workers {
			t.Errorf("r=1: clock width %d, want at most %d", width, 1+2*workers)
		}
		if width > 1+4*workers {
			t.Errorf("r=%g: clock width %d after %d forks", rate, width, workers*(gens+1))
		}
	}
}
