package pacer_test

import (
	"fmt"
	"testing"

	"pacer"
	"pacer/internal/detector/shardbase"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/tracegen"
)

// sparseIDs returns n distinct variable identifiers: the record table's
// first page's edges, the second page's start, both sides of its bound
// (shardbase.TableBound), and the top of the identifier space, then more
// on alternate sides of the bound.
func sparseIDs(n int) []event.Var {
	const bound = shardbase.TableBound
	ids := []event.Var{0, 4095, 4096, event.Var(bound - 1), event.Var(bound), 0xFFFFFFFE}
	seen := map[event.Var]bool{}
	for _, x := range ids {
		seen[x] = true
	}
	for k := 1; len(ids) < n; k++ {
		for _, x := range []event.Var{event.Var(uint32(k) * 4099 % bound), event.Var(0xFFFFFFFE - uint32(k)*7)} {
			if !seen[x] {
				seen[x] = true
				ids = append(ids, x)
			}
		}
	}
	return ids[:n]
}

// remapVars returns tr with every distinct variable, in order of first
// appearance, renamed to the next identifier of ids, and the inverse map.
func remapVars(tr event.Trace, ids []event.Var) (event.Trace, map[pacer.VarID]pacer.VarID) {
	to := map[uint32]uint32{}
	back := map[pacer.VarID]pacer.VarID{}
	out := make(event.Trace, len(tr))
	for i, e := range tr {
		if e.Kind == event.Read || e.Kind == event.Write {
			x, ok := to[e.Target]
			if !ok {
				x = uint32(ids[len(to)])
				to[e.Target] = x
				back[pacer.VarID(x)] = pacer.VarID(e.Target)
			}
			e.Target = x
		}
		out[i] = e
	}
	return out, back
}

// raceList replays tr through Apply and returns its races, variables
// renamed through back (nil keeps them), rendered and sorted.
func raceList(tr event.Trace, opts pacer.Options, back map[pacer.VarID]pacer.VarID) []string {
	races := replayRaces(tr, opts, nil)
	if back != nil {
		for i := range races {
			races[i].Var = back[races[i].Var]
		}
	}
	return raceStrings(races)
}

// TestRecordTableSparseIDs replays corpus-shaped traces through every
// sharded backend twice: once with the variables numbered densely from 0,
// once renamed onto identifiers at the record table's page edges, on both
// sides of its bound, and at the top of the identifier space. Where a
// record lives must not change what is detected: both twins report the
// same race multiset. PACER also runs at rate 0.5, where non-sampled
// accesses delete records.
func TestRecordTableSparseIDs(t *testing.T) {
	type run struct {
		algo string
		rate float64
	}
	runs := []run{{"pacer", 1}, {"pacer", 0.5}, {"fasttrack", 1}, {"o1samples", 1}, {"literace", 1}}
	compared := 0
	for seed := int64(0); seed < 12; seed++ {
		dense := tracegen.Generate(tracegen.CorpusConfig(seed))
		vars := map[uint32]bool{}
		for _, e := range dense {
			if e.Kind == event.Read || e.Kind == event.Write {
				vars[e.Target] = true
			}
		}
		sparse, back := remapVars(dense, sparseIDs(len(vars)))
		for _, r := range runs {
			opts := pacer.Options{Algorithm: r.algo, SamplingRate: r.rate, Seed: 3, PeriodOps: 64}
			want := raceList(dense, opts, nil)
			got := raceList(sparse, opts, back)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("seed %d %s r=%g: sparse identifiers report\n%v\ndense ones\n%v", seed, r.algo, r.rate, got, want)
			}
			compared += len(want)
		}
	}
	if compared == 0 {
		t.Fatal("no race was reported: the twins compared nothing")
	}
}

// TestRecordTableStatsVarsTracked: PACER creates records at sampled
// accesses and deletes them at unsampled writes, on both sides of the
// record table's bound; Stats.VarsTracked follows every insert and delete
// exactly.
func TestRecordTableStatsVarsTracked(t *testing.T) {
	ids := sparseIDs(12)
	d := pacer.New(pacer.Options{SamplingRate: 0})
	t0 := d.NewThread()
	b := dtest.NewTB().SBegin()
	for _, x := range ids {
		b.Write(t0, x)
	}
	b.Rel(t0, 0).SEnd() // the sampled release moves t0 past its writes' epoch
	for _, e := range b.Trace {
		d.Apply(e)
	}
	if got := d.Stats().VarsTracked; got != len(ids) {
		t.Fatalf("VarsTracked = %d after sampled writes to %d variables", got, len(ids))
	}
	for i, x := range ids {
		if i%2 == 0 {
			d.Apply(event.Event{Kind: event.Write, Thread: t0, Target: uint32(x)})
		}
	}
	if got, want := d.Stats().VarsTracked, len(ids)/2; got != want {
		t.Fatalf("VarsTracked = %d after unsampled writes deleted half, want %d", got, want)
	}
	for i, x := range ids {
		if i%2 == 1 {
			d.Apply(event.Event{Kind: event.Write, Thread: t0, Target: uint32(x)})
		}
	}
	if got := d.Stats().VarsTracked; got != 0 {
		t.Errorf("VarsTracked = %d after every record was deleted, want 0", got)
	}
}
