package runtime

import (
	"sync"
	"time"

	"repro/internal/model"
)

// InstanceProbe observes one engine instance's execution at per-round
// resolution: when each automaton's broadcast started and finished, when the
// round closed (and with which peers delivered), when the transition ran,
// every message arrival and every decision — the wall-clock record a serving
// layer needs to rebuild the PR 5 send/wait/compute span tiling for a single
// request's consensus instance.
//
// A probe is attached at OpenObserved and written exclusively by the
// instance's owning shard worker, so the stamps are totally ordered per node
// without ambiguity; the mutex exists only so Snapshot can read a probe
// whose instance is still in flight. Unprobed instances pay one nil check
// per hook — the tracing-off fast path stays unmeasurably close to free
// (the bench-compare overhead gate in CI holds it there).
//
// Adjacent stamps are shared, not re-read: round r's transition stamp IS
// round r+1's start stamp, and a decision reuses the transition stamp of
// its round. That makes the derived span tiling exact by construction —
// the same CheckSums discipline the live Tracer guarantees.
type InstanceProbe struct {
	mu        sync.Mutex
	n         int
	openedAt  time.Time
	doneAt    time.Time
	nodes     []probeNodeState
	maxRounds int
}

type probeNodeState struct {
	rounds      []probeRoundState
	arrivals    []ProbeArrival
	decided     bool
	decideRound int
	decidedAt   time.Time
	decision    model.Value
}

type probeRoundState struct {
	startAt  time.Time
	sentAt   time.Time
	closedAt time.Time
	transAt  time.Time
	gotMask  uint64
	timedOut bool
}

// NewInstanceProbe builds an empty probe ready to hand to OpenObserved.
func NewInstanceProbe() *InstanceProbe { return &InstanceProbe{} }

// attach sizes the probe for the instance (called under Open).
func (p *InstanceProbe) attach(n, maxRounds int, now time.Time) {
	p.mu.Lock()
	p.n = n
	p.maxRounds = maxRounds
	p.openedAt = now
	p.nodes = make([]probeNodeState, n)
	for i := range p.nodes {
		p.nodes[i].rounds = make([]probeRoundState, maxRounds)
	}
	p.mu.Unlock()
}

// roundSent records node id's round-r broadcast window. The round's start
// stamp is the previous round's transition stamp when one exists (contiguous
// rounds), else the broadcast begin.
func (p *InstanceProbe) roundSent(id model.ProcessID, r int, begin, end time.Time) {
	p.mu.Lock()
	nd := &p.nodes[id-1]
	rs := &nd.rounds[r-1]
	rs.startAt = begin
	if r > 1 && !nd.rounds[r-2].transAt.IsZero() {
		rs.startAt = nd.rounds[r-2].transAt
	}
	rs.sentAt = end
	p.mu.Unlock()
}

// arrive records a data-message arrival filed into node id's round-r row.
func (p *InstanceProbe) arrive(id model.ProcessID, from, r int, at time.Time) {
	p.mu.Lock()
	nd := &p.nodes[id-1]
	nd.arrivals = append(nd.arrivals, ProbeArrival{From: from, Round: r, At: at})
	p.mu.Unlock()
}

// roundClosed records that node id's round r stopped waiting: got is the
// delivered-sender bitmask at that instant, timedOut whether the WaitBound
// (not completeness) released it.
func (p *InstanceProbe) roundClosed(id model.ProcessID, r int, got uint64, timedOut bool, at time.Time) {
	p.mu.Lock()
	rs := &p.nodes[id-1].rounds[r-1]
	rs.closedAt = at
	rs.gotMask = got
	rs.timedOut = timedOut
	p.mu.Unlock()
}

// roundDone records the transition's completion stamp.
func (p *InstanceProbe) roundDone(id model.ProcessID, r int, at time.Time) {
	p.mu.Lock()
	p.nodes[id-1].rounds[r-1].transAt = at
	p.mu.Unlock()
}

// noteDecide records node id's decision, stamped with the deciding round's
// transition stamp (the decision test runs inside that instant).
func (p *InstanceProbe) noteDecide(id model.ProcessID, r int, v model.Value, at time.Time) {
	p.mu.Lock()
	nd := &p.nodes[id-1]
	nd.decided = true
	nd.decideRound = r
	nd.decidedAt = at
	nd.decision = v
	p.mu.Unlock()
}

// noteDone stamps the instance's completion (last automaton halted).
func (p *InstanceProbe) noteDone(at time.Time) {
	p.mu.Lock()
	p.doneAt = at
	p.mu.Unlock()
}

// ProbeArrival is one data-message arrival observed by a probe.
type ProbeArrival struct {
	From  int       `json:"from"`
	Round int       `json:"round"`
	At    time.Time `json:"at"`
}

// ProbeRound is one (node, round) record: the send window, the wait close
// (with the delivered peers) and the transition stamp. Zero times mean the
// phase had not happened when the snapshot was taken.
type ProbeRound struct {
	Round    int       `json:"round"`
	StartAt  time.Time `json:"start_at"`
	SentAt   time.Time `json:"sent_at"`
	ClosedAt time.Time `json:"closed_at"`
	TransAt  time.Time `json:"trans_at"`
	Peers    []int     `json:"peers,omitempty"`
	TimedOut bool      `json:"timed_out,omitempty"`
}

// ProbeNode is one node's view of a probed instance.
type ProbeNode struct {
	Rounds      []ProbeRound   `json:"rounds"`
	Arrivals    []ProbeArrival `json:"arrivals,omitempty"`
	Decided     bool           `json:"decided"`
	DecideRound int            `json:"decide_round,omitempty"`
	DecidedAt   time.Time      `json:"decided_at,omitempty"`
	Decision    int64          `json:"decision,omitempty"`
}

// ProbeSnapshot is a point-in-time copy of a probe, safe to read while the
// instance is still advancing. Rounds that never sent are omitted.
type ProbeSnapshot struct {
	N        int         `json:"n"`
	OpenedAt time.Time   `json:"opened_at"`
	DoneAt   time.Time   `json:"done_at,omitempty"`
	Nodes    []ProbeNode `json:"nodes"`
}

// Snapshot copies the probe's current state.
func (p *InstanceProbe) Snapshot() *ProbeSnapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := &ProbeSnapshot{N: p.n, OpenedAt: p.openedAt, DoneAt: p.doneAt}
	for i := range p.nodes {
		nd := &p.nodes[i]
		pn := ProbeNode{
			Decided:     nd.decided,
			DecideRound: nd.decideRound,
			DecidedAt:   nd.decidedAt,
			Decision:    int64(nd.decision),
		}
		for r := range nd.rounds {
			rs := &nd.rounds[r]
			if rs.sentAt.IsZero() {
				continue
			}
			pr := ProbeRound{
				Round: r + 1, StartAt: rs.startAt, SentAt: rs.sentAt,
				ClosedAt: rs.closedAt, TransAt: rs.transAt, TimedOut: rs.timedOut,
			}
			for j := 1; j <= p.n; j++ {
				if rs.gotMask&(1<<uint(j)) != 0 {
					pr.Peers = append(pr.Peers, j)
				}
			}
			pn.Rounds = append(pn.Rounds, pr)
		}
		if len(nd.arrivals) > 0 {
			pn.Arrivals = append([]ProbeArrival(nil), nd.arrivals...)
		}
		snap.Nodes = append(snap.Nodes, pn)
	}
	return snap
}
