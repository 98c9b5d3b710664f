package workload_test

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/fasttrack"
	"pacer/internal/sim"
	"pacer/internal/workload"
)

func runMicro(t *testing.T, p sim.Program, seed int64) *detector.Collector {
	t.Helper()
	col := detector.NewCollector()
	_, err := sim.Run(p, sim.Config{
		Seed: seed, Detector: fasttrack.New(col.Report), InstrumentAccesses: true,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", p.Name, seed, err)
	}
	return col
}

func TestSafeProducerConsumerRaceFree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if c := runMicro(t, workload.SafeProducerConsumer(8, 3), seed); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: %v", seed, c.Dynamic[0])
		}
	}
}

func TestBrokenPublishAlwaysRacy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := runMicro(t, workload.BrokenPublish(4), seed)
		if c.DynamicCount() == 0 {
			t.Fatalf("seed %d: unsafe publication produced no races", seed)
		}
		// Every buffer slot and the flag itself can race.
		if c.DistinctCount() < 2 {
			t.Errorf("seed %d: only %d distinct races", seed, c.DistinctCount())
		}
	}
}

func TestReadersWritersRaceFree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if c := runMicro(t, workload.ReadersWriters(4, 15), seed); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: %v", seed, c.Dynamic[0])
		}
	}
}

func TestPhaseBarrierRaceFree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if c := runMicro(t, workload.PhaseBarrier(4, 3), seed); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: %v", seed, c.Dynamic[0])
		}
	}
}

// RacyHandoff is a heisenbug: across schedules it must sometimes race and
// sometimes not.
func TestRacyHandoffIsScheduleDependent(t *testing.T) {
	racy, clean := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		if runMicro(t, workload.RacyHandoff(4), seed).DynamicCount() > 0 {
			racy++
		} else {
			clean++
		}
	}
	if racy == 0 || clean == 0 {
		t.Fatalf("handoff not schedule-dependent: racy=%d clean=%d", racy, clean)
	}
}

func TestDoubleBufferRaceFree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if c := runMicro(t, workload.DoubleBuffer(4, 4), seed); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: %v", seed, c.Dynamic[0])
		}
	}
}

func TestMonitorQueueRaceFreeAndComplete(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if c := runMicro(t, workload.MonitorQueue(10), seed); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: monitor queue raced: %v", seed, c.Dynamic[0])
		}
	}
}
