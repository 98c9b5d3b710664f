package backends_test

import (
	"testing"

	"pacer/internal/backends"
	"pacer/internal/event"
	"pacer/internal/literace"
)

// TestExactAtRateOne pins the exactness rule shared by the conformance
// suite and racereplay verify: every backend is exact on a trace it
// analyzes end to end, except o1samples; a SampleEnd relaxes every
// backend; literace is exact only while each (method, thread) key stays
// inside its first burst.
func TestExactAtRateOne(t *testing.T) {
	accesses := func(n int) event.Trace {
		tr := make(event.Trace, n)
		for i := range tr {
			tr[i] = event.Event{Kind: event.Read, Thread: 0, Method: 1, Target: uint32(i)}
		}
		return tr
	}
	burst := literace.DefaultOptions().BurstLength
	plain := accesses(3)
	ended := append(accesses(3), event.Event{Kind: event.SampleEnd})
	for _, algo := range backends.Names() {
		if got, want := backends.ExactAtRateOne(algo, plain), algo != "o1samples"; got != want {
			t.Errorf("%s on a fully analyzed trace: exact %v, want %v", algo, got, want)
		}
		if backends.ExactAtRateOne(algo, ended) {
			t.Errorf("%s on a trace with a SampleEnd: exact, want precise only", algo)
		}
	}
	if !backends.ExactAtRateOne("literace", accesses(burst-1)) {
		t.Errorf("literace with %d accesses on one key: not exact, want exact", burst-1)
	}
	if backends.ExactAtRateOne("literace", accesses(burst)) {
		t.Errorf("literace with %d accesses on one key: exact, want precise only", burst)
	}
}
