package netobs_test

import (
	"testing"

	"repro/internal/netobs"
	"repro/internal/obs"
)

// TestLinkTapAllocs pins the per-packet cost of link accounting without a
// flight recorder: once a link's counters exist, recording a send, a
// receive or a drop of a known reason allocates nothing — no link label is
// rendered and no registry name is built.
func TestLinkTapAllocs(t *testing.T) {
	lt := netobs.NewLinkTap(obs.NewRegistry(), "test", nil)
	lt.Sent(1, 2, 8)
	lt.Received(1, 2, 8)
	lt.Dropped(1, 2, netobs.DropOverflow)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Sent", func() { lt.Sent(1, 2, 8) }},
		{"Received", func() { lt.Received(1, 2, 8) }},
		{"Dropped", func() { lt.Dropped(1, 2, netobs.DropOverflow) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("LinkTap.%s with no recorder: %.1f allocs, want 0", tc.name, allocs)
		}
	}
	if got := lt.Totals(); got.MsgsSent != 102 || got.MsgsReceived != 102 || got.Dropped != 102 {
		t.Errorf("totals after the runs: %+v", got)
	}
}

// TestLinkTapRecorderStillSeesLinks: the flight recorder gets the rendered
// link name when one is attached.
func TestLinkTapRecorderStillSeesLinks(t *testing.T) {
	rec := netobs.NewRecorder(8, nil)
	lt := netobs.NewLinkTap(obs.NewRegistry(), "test", rec)
	lt.Sent(3, 1, 5)
	lt.Dropped(3, 1, netobs.DropLoss)
	recs := rec.Records()
	if len(recs) != 2 || recs[0].Link != "p3>p1" || recs[1].Link != "p3>p1" || recs[1].Note != netobs.DropLoss {
		t.Errorf("records = %+v", recs)
	}
}
