package runtime

import (
	stdruntime "runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
)

// engineAllocsPerDecision keeps inFlight FloodSetWS instances in flight on
// an n=5 engine until total instances completed, and returns the process's
// heap allocations per (instance, node) decision over the instances after
// the first warm ones. Everything running in the process counts — the
// detectors' heartbeats included — as it does in a production profile.
func engineAllocsPerDecision(t *testing.T, inFlight, warm, total int) float64 {
	t.Helper()
	done := make(chan InstanceOutcome, inFlight)
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: 5, T: 1, Metrics: obs.NewRegistry(),
		OnInstanceDone: func(_ uint64, out InstanceOutcome) { done <- out },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	opened, completed := 0, 0
	var before stdruntime.MemStats
	decisions := 0
	for completed < total {
		for opened-completed < inFlight && opened < total {
			if _, err := e.OpenValue(model.Value(opened)); err != nil {
				t.Fatal(err)
			}
			opened++
		}
		out := <-done
		if out.Err != nil {
			t.Fatalf("instance failed: %v", out.Err)
		}
		completed++
		if completed == warm {
			stdruntime.ReadMemStats(&before)
		} else if completed > warm {
			for _, d := range out.Decided {
				if d {
					decisions++
				}
			}
		}
	}
	var after stdruntime.MemStats
	stdruntime.ReadMemStats(&after)
	if decisions == 0 {
		t.Fatal("no decisions in the measured window")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(decisions)
}

// TestEngineAllocsPerDecision is the runtime's allocation budget: with 64
// FloodSetWS instances in flight on n=5, the whole process allocates at
// most 36 times per (instance, node) decision. Each decision carries 12
// data frames (3 rounds × 4 peers); the budget leaves room for the
// automata's own messages and the detector's heartbeats, not for
// per-frame bookkeeping in the codec, batcher or transport — one extra
// allocation per frame costs 12 per decision and breaks it.
func TestEngineAllocsPerDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("timed engine run")
	}
	const ceiling = 36
	got := engineAllocsPerDecision(t, 64, 256, 2256)
	t.Logf("allocs per decision: %.1f (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("allocs per decision = %.1f, want <= %d", got, ceiling)
	}
}
