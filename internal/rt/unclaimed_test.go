package rt

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"unsafe"

	"pacer"
	"pacer/internal/event"
)

// rate0Arg is the positional argument that makes a re-executed test
// binary mount its detector at rate 0 (see TestMain).
const rate0Arg = "rate0"

// rate0Tests run only in a rate-0 process, one process each, so each
// starts with no address claimed and no sampling period yet.
var rate0Tests = []string{
	"TestUnclaimedDismissal",
	"TestUnclaimedClaimedBySample",
	"TestUnclaimedRaceAcrossSampleEnd",
	"TestTallyExactCounts",
	"TestTallyPublishedByWGDone",
	"TestTallyCallerFlushRollsPeriod",
	"TestTallySyncNoOpNoAllocs",
	"TestTallyPublishedBeforeDetector",
}

// rate0Env is the environment a rate-0 test adds to its process.
var rate0Env = map[string][]string{
	"TestTallyCallerFlushRollsPeriod": {"PACER_PERIOD=16"},
}

// TestUnclaimedRateZero runs the unclaimed-dismissal tests: every other
// test here runs at rate 1, where no access is ever dismissed unclaimed,
// so each of them re-executes this binary at rate 0.
func TestUnclaimedRateZero(t *testing.T) {
	if flag.Arg(0) == rate0Arg {
		t.Skip("running at rate 0 already")
	}
	for _, name := range rate0Tests {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1", "-test.v", "-test.timeout=2m", rate0Arg)
			cmd.Env = append(os.Environ(), rate0Env[name]...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), "--- PASS: "+name) {
				t.Fatalf("%s did not pass at rate 0:\n%s", name, out)
			}
		})
	}
}

// atRateZero skips a rate-0 test unless TestUnclaimedRateZero started it.
func atRateZero(t *testing.T) {
	t.Helper()
	if flag.Arg(0) != rate0Arg {
		t.Skip("runs at rate 0, under TestUnclaimedRateZero")
	}
}

// heldAddrs keeps freshAddrs' memory on the heap, where an address
// cannot move or be reused during the test.
var heldAddrs []any

// freshAddrs returns n aligned and n unaligned addresses no hook has
// touched: the first take the shadow page path, the second the unaligned
// map.
func freshAddrs(n int) []unsafe.Pointer {
	words := make([]int64, n)
	bytes := make([]byte, 2*n)
	var ps []unsafe.Pointer
	for i := range words {
		ps = append(ps, unsafe.Pointer(&words[i]))
	}
	for i := 0; i < n; i++ {
		ps = append(ps, unsafe.Pointer(&bytes[2*i+1]))
	}
	heldAddrs = append(heldAddrs, words, bytes)
	return ps
}

// TestUnclaimedDismissal: outside sampling periods, hooks on addresses
// no access has claimed claim none. Each counts as a shadow hit that is
// also an unclaimed dismissal, and the path allocates nothing once the
// addresses' pages exist.
func TestUnclaimedDismissal(t *testing.T) {
	atRateZero(t)
	ps := freshAddrs(300)
	var h Slot
	site := testSite(t)
	st0 := D().Stats()
	for i, p := range ps {
		if i%2 == 0 {
			R(&h, p, 1, site)
		} else {
			W(&h, p, 1, site)
		}
	}
	st := D().Stats()
	n := uint64(len(ps))
	if st.ShadowMisses != 0 || st.ShadowVars != 0 {
		t.Fatalf("%d unsampled hooks claimed: misses %d, vars %d, want 0", n, st.ShadowMisses, st.ShadowVars)
	}
	if got := st.ShadowUnclaimed - st0.ShadowUnclaimed; got != n {
		t.Fatalf("unclaimed dismissals %d, want %d", got, n)
	}
	if got := st.ShadowHits + st.ShadowMisses - st0.ShadowHits - st0.ShadowMisses; got != n {
		t.Fatalf("hits + misses advanced by %d over %d hooks", got, n)
	}
	if got := st.Reads + st.Writes - st0.Reads - st0.Writes; got != n {
		t.Fatalf("reads + writes advanced by %d over %d hooks", got, n)
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, p := range ps {
			R(&h, p, 1, site)
			W(&h, p, 1, site)
		}
	})
	if avg != 0 {
		t.Fatalf("unclaimed dismissals allocate %.2f per run, want 0", avg)
	}
	if st := D().Stats(); st.ShadowMisses != 0 || st.ShadowVars != 0 {
		t.Fatalf("repeated unsampled hooks claimed: misses %d, vars %d", st.ShadowMisses, st.ShadowVars)
	}
}

// TestUnclaimedClaimedBySample: an address first touched outside
// sampling stays unclaimed until its first sampled access claims it; once
// claimed, it is a hit even after sampling ends.
func TestUnclaimedClaimedBySample(t *testing.T) {
	atRateZero(t)
	var h Slot
	site := testSite(t)
	for _, p := range freshAddrs(1) {
		st0 := D().Stats()
		W(&h, p, 1, site)
		st1 := D().Stats()
		if st1.ShadowUnclaimed != st0.ShadowUnclaimed+1 || st1.ShadowMisses != st0.ShadowMisses {
			t.Fatalf("%p: unsampled write: unclaimed %d -> %d, misses %d -> %d, want +1 and +0",
				p, st0.ShadowUnclaimed, st1.ShadowUnclaimed, st0.ShadowMisses, st1.ShadowMisses)
		}

		D().Apply(pacer.Event{Kind: event.SampleBegin})
		R(&h, p, 1, site)
		st2 := D().Stats()
		if st2.ShadowMisses != st1.ShadowMisses+1 || st2.ShadowVars != st1.ShadowVars+1 {
			t.Fatalf("%p: first sampled read: misses %d -> %d, vars %d -> %d, want +1 each",
				p, st1.ShadowMisses, st2.ShadowMisses, st1.ShadowVars, st2.ShadowVars)
		}
		if st2.ShadowUnclaimed != st1.ShadowUnclaimed {
			t.Fatalf("%p: sampled read dismissed unclaimed", p)
		}

		D().Apply(pacer.Event{Kind: event.SampleEnd})
		W(&h, p, 1, site)
		st3 := D().Stats()
		if st3.ShadowUnclaimed != st2.ShadowUnclaimed || st3.ShadowMisses != st2.ShadowMisses ||
			st3.ShadowHits != st2.ShadowHits+1 {
			t.Fatalf("%p: unsampled write to a claimed address: unclaimed %d -> %d, misses %d -> %d, hits %d -> %d, want a plain hit",
				p, st2.ShadowUnclaimed, st3.ShadowUnclaimed, st2.ShadowMisses, st3.ShadowMisses, st2.ShadowHits, st3.ShadowHits)
		}
	}
}

// TestUnclaimedRaceAcrossSampleEnd: a write inside a sampling period,
// then an unordered goroutine's write after the period ends. The second
// write is unsampled, but its address was claimed by the first, so it
// reaches the detector and the race is reported.
func TestUnclaimedRaceAcrossSampleEnd(t *testing.T) {
	atRateZero(t)
	for _, p := range freshAddrs(1) {
		s1, s2 := testSite(t), testSite(t)
		before := Races()
		D().Apply(pacer.Event{Kind: event.SampleBegin})
		spawn(func() {
			var h Slot
			W(&h, p, 1, s1)
		})
		D().Apply(pacer.Event{Kind: event.SampleEnd})
		var h Slot
		W(&h, p, 1, s2)
		if got := Races() - before; got != 1 {
			t.Fatalf("%p: distinct races %d, want 1", p, got)
		}
	}
}
