package harness_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pacer/internal/harness"
	"pacer/internal/workload"
)

func miniOpts() harness.Options {
	return harness.Options{Scale: 0.1, Benches: []*workload.Spec{workload.Mini()}, Nursery: 256}
}

func TestRunTrialPacer(t *testing.T) {
	tr, err := harness.RunTrial(harness.TrialConfig{
		Bench: workload.Mini(), Kind: harness.Pacer, Rate: 1.0,
		Seed: 1, InstrumentAccesses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Distinct() == 0 {
		t.Error("fully sampled PACER found no races on mini (expected several)")
	}
	if tr.EffectiveRate < 0.9 {
		t.Errorf("effective rate %.2f at r=100%%", tr.EffectiveRate)
	}
}

func TestRunTrialAllKinds(t *testing.T) {
	for _, k := range []harness.DetectorKind{
		harness.NoDetector, harness.Pacer, harness.FastTrack, harness.Generic, harness.LiteRace,
	} {
		tr, err := harness.RunTrial(harness.TrialConfig{
			Bench: workload.Mini(), Kind: k, Rate: 0.5,
			Seed: 2, InstrumentAccesses: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if k == harness.NoDetector && tr.Distinct() != 0 {
			t.Error("uninstrumented run reported races")
		}
		if (k == harness.FastTrack || k == harness.Generic) && tr.Distinct() == 0 {
			t.Errorf("%v found no races", k)
		}
	}
}

func TestDetectorKindString(t *testing.T) {
	want := map[harness.DetectorKind]string{
		harness.NoDetector: "base", harness.Pacer: "pacer", harness.FastTrack: "fasttrack",
		harness.Generic: "generic", harness.LiteRace: "literace",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestTable1(t *testing.T) {
	res, err := harness.Table1(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Cells["mini"]
	if len(cells) != len(harness.Table1Rates) {
		t.Fatalf("cells = %d", len(cells))
	}
	// Effective rates increase with specified rates.
	if cells[0.01].Mean >= cells[0.25].Mean {
		t.Errorf("effective rate not increasing: 1%%→%.2f, 25%%→%.2f", cells[0.01].Mean, cells[0.25].Mean)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "mini") {
		t.Error("render missing benchmark row")
	}
}

func TestTable2(t *testing.T) {
	res, err := harness.Table2(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.TotalThreads != 7 || row.MaxLiveThreads != 7 {
		t.Errorf("thread counts %d/%d", row.TotalThreads, row.MaxLiveThreads)
	}
	if row.FullGe1 == 0 || len(row.EvalRaces) == 0 {
		t.Error("no races characterized")
	}
	if row.FullGe25 > row.FullGe5 || row.FullGe5 > row.FullGe1 {
		t.Errorf("threshold counts not monotone: %d/%d/%d", row.FullGe1, row.FullGe5, row.FullGe25)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "mini") {
		t.Error("render missing row")
	}
}

func TestAccuracy(t *testing.T) {
	res, err := harness.Accuracy(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	ba := res.Benches[0]
	if len(ba.EvalRaces) == 0 {
		t.Fatal("no evaluation races")
	}
	if ba.Fig3[1.0] != 1.0 || ba.Fig4[1.0] != 1.0 {
		t.Error("baseline not normalized to 1")
	}
	// Detection at 1% must be far below detection at 50%.
	if ba.Fig4[0.01] >= ba.Fig4[0.50] {
		t.Errorf("detection rate not increasing: 1%%→%.3f, 50%%→%.3f", ba.Fig4[0.01], ba.Fig4[0.50])
	}
	var buf bytes.Buffer
	res.RenderFig3(&buf)
	res.RenderFig4(&buf)
	res.RenderFig5(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 3", "Figure 4", "Figure 5", "mini"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig6(t *testing.T) {
	res, err := harness.Fig6(workload.Mini(), harness.Options{Scale: 0.05, Nursery: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 || len(res.EvalRaces) == 0 {
		t.Fatal("no data")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("render broken")
	}
}

func TestFig7OverheadBreakdown(t *testing.T) {
	res, err := harness.Fig7(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if !(r.OMSync > 0 && r.OMSync < r.R0 && r.R0 <= r.R1 && r.R1 <= r.R3) {
		t.Errorf("breakdown not monotone: om=%.3f r0=%.3f r1=%.3f r3=%.3f", r.OMSync, r.R0, r.R1, r.R3)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("render broken")
	}
}

func TestScaling(t *testing.T) {
	res, err := harness.Scaling(miniOpts(), []float64{0, 0.10, 1.0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Slowdown["mini"]
	if !(s[0] < s[0.10] && s[0.10] < s[1.0]) {
		t.Errorf("slowdown not increasing: %v", s)
	}
	if res.FastTrackSlowdown["mini"] <= s[0.10] {
		t.Errorf("fasttrack (%.2fx) should exceed pacer at 10%% (%.2fx)",
			res.FastTrackSlowdown["mini"], s[0.10])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("render broken")
	}
}

func TestTable3(t *testing.T) {
	res, err := harness.Table3(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Rows[0].Counters
	// The headline property: non-sampling slow joins are rare relative to
	// fast joins.
	slow, fast := c.SlowJoins[0], c.FastJoins[0]
	if fast == 0 {
		t.Fatal("no fast joins in non-sampling periods")
	}
	if slow > fast/4 {
		t.Errorf("non-sampling slow joins %d vs fast %d: versions not effective", slow, fast)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("render broken")
	}
}

func TestFig10(t *testing.T) {
	res, err := harness.Fig10(workload.Mini(), harness.Options{Scale: 0.05, Nursery: 256})
	if err != nil {
		t.Fatal(err)
	}
	peaks := map[string]int{}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %s has no samples", s.Label)
		}
		peaks[s.Label] = s.Peak
	}
	if peaks["Pacer r=100%"] <= peaks["Pacer r=1%"] {
		t.Errorf("space not scaling with r: 100%%→%d, 1%%→%d", peaks["Pacer r=100%"], peaks["Pacer r=1%"])
	}
	if peaks["Base"] >= peaks["Pacer r=100%"] {
		t.Errorf("base (%d) should be below full tracking (%d)", peaks["Base"], peaks["Pacer r=100%"])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Error("render broken")
	}
}

func TestCharts(t *testing.T) {
	acc, err := harness.Accuracy(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	acc.Chart(&buf, false)
	acc.Chart(&buf, true)
	sc, err := harness.Scaling(miniOpts(), []float64{0, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc.Chart(&buf)
	f7, err := harness.Fig7(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	f7.Chart(&buf)
	f10, err := harness.Fig10(workload.Mini(), harness.Options{Scale: 0.05, Nursery: 256})
	if err != nil {
		t.Fatal(err)
	}
	f10.Chart(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 3", "Figure 4", "Figure 8", "Figure 7", "Figure 10", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("charts missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	res, err := harness.Ablations(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	full, noVer := res.Rows[0], res.Rows[1]
	if full.FastJoinFrac < 0.5 {
		t.Errorf("full PACER fast-join fraction %.2f too low", full.FastJoinFrac)
	}
	if noVer.FastJoinFrac != 0 {
		t.Errorf("versions disabled but fast joins = %.2f", noVer.FastJoinFrac)
	}
	if noVer.SlowJoins <= full.SlowJoins {
		t.Errorf("disabling versions should add slow joins: %v vs %v", noVer.SlowJoins, full.SlowJoins)
	}
	noDiscard := res.Rows[3]
	if noDiscard.MetaWords <= full.MetaWords {
		t.Errorf("disabling discard should grow metadata: %v vs %v", noDiscard.MetaWords, full.MetaWords)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Ablation study") {
		t.Error("render broken")
	}
}

// TestPreciseDetectorsAgreeOnWorkload runs one mini execution under each
// happens-before detector: the exhaustive baseline agrees with FASTTRACK
// race for race, PACER at r=100% finds FASTTRACK's distinct races, PACER
// at r=0% reports nothing, and r=3% reports no more than r=100%.
func TestPreciseDetectorsAgreeOnWorkload(t *testing.T) {
	run := func(k harness.DetectorKind, rate float64) *harness.Trial {
		t.Helper()
		tr, err := harness.RunTrial(harness.TrialConfig{
			Bench: workload.Mini(), Kind: k, Rate: rate,
			Seed: 1, InstrumentAccesses: true, Nursery: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ft := run(harness.FastTrack, 0)
	if ft.Distinct() == 0 {
		t.Fatal("fasttrack found nothing")
	}
	if gen := run(harness.Generic, 0); fmt.Sprint(gen.PerRace) != fmt.Sprint(ft.PerRace) {
		t.Errorf("generic reports %v, fasttrack %v", gen.PerRace, ft.PerRace)
	}
	// Each collection ends one sampling period and begins the next, so
	// r=100% is not one unbroken period: its dynamic counts may differ
	// from FASTTRACK's, its distinct races may not.
	p100 := run(harness.Pacer, 1)
	if !sameKeys(p100.PerRace, ft.PerRace) {
		t.Errorf("PACER r=100%% reports %v, fasttrack %v", p100.PerRace, ft.PerRace)
	}
	if p0 := run(harness.Pacer, 0); p0.Dynamic() != 0 {
		t.Errorf("PACER r=0%% reported %d races", p0.Dynamic())
	}
	if p3 := run(harness.Pacer, 0.03); p3.Dynamic() > p100.Dynamic() {
		t.Errorf("PACER r=3%% (%d) reported more than r=100%% (%d)", p3.Dynamic(), p100.Dynamic())
	}
}

func sameKeys(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}
