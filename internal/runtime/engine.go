package runtime

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// Engine metric names.
const (
	// MetricEngineUnknownInstance counts inbound round messages carrying an
	// instance id outside the engine's opened range — dropped at the
	// demultiplexer (stray traffic from a misconfigured peer, or corruption
	// that survived decoding).
	MetricEngineUnknownInstance = "ssfd_engine_unknown_instance_total"
	// MetricEngineInstancesDecided counts (instance, node) decisions.
	MetricEngineInstancesDecided = "ssfd_engine_decisions_total"
	// MetricEngineInstancesOpened counts instances admitted by Open.
	MetricEngineInstancesOpened = "ssfd_engine_instances_opened_total"
	// MetricEngineInstancesDone counts instances that ran to completion.
	MetricEngineInstancesDone = "ssfd_engine_instances_done_total"
)

// Engine lifecycle errors.
var (
	// ErrEngineDraining is returned by Open once Drain or Close has been
	// called: the engine finishes its in-flight instances but admits no new
	// ones (a serving daemon maps this to HTTP 503).
	ErrEngineDraining = errors.New("runtime: engine draining, not admitting instances")
	// ErrEngineClosed resolves an instance that was still in flight when the
	// engine tore down before it could complete (only possible after an
	// engine abort — a clean Close waits in-flight instances out).
	ErrEngineClosed = errors.New("runtime: engine closed before the instance completed")
)

// EngineConfig assembles a shared-mesh multi-instance execution: N nodes,
// ONE physical mesh, ONE failure detector per node, and any number of
// concurrent consensus instances multiplexed over them.
//
// The engine runs the RWS (receive-or-suspect) discipline only. RS rounds
// are paced by wall-clock deadlines per instance, which neither multiplexes
// (every instance would need its own deadline schedule on a shared clock)
// nor amortizes anything — the paper's efficiency argument for sharing is
// about the detector, an RWS-only device.
type EngineConfig struct {
	// Instances is the number of concurrent consensus instances RunEngine
	// executes (ids 0..Instances-1 on the wire). StartEngine ignores it:
	// a live engine admits instances dynamically through Open.
	Instances int
	// N is the cluster size, T the resilience bound.
	N, T int
	// Initial yields node id's proposal in instance inst (RunEngine only;
	// Open takes the proposal function per instance). Nil proposes 0
	// everywhere.
	Initial func(inst int, id model.ProcessID) model.Value

	// Groups is the number of shard workers instances are distributed
	// across (instance k belongs to worker k mod Groups). Default:
	// min(8, GOMAXPROCS). Sharding is a throughput knob, not a semantic
	// one — results are independent of it (the equivalence tests pin this).
	Groups int

	// Network supplies the shared mesh; nil builds the default in-process
	// synchronous network with Buffer-deep inboxes.
	Network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}
	// Buffer sizes the default network's per-endpoint inbox (default 2^15:
	// the multiplexed mesh carries every instance's traffic through n
	// inboxes, so the single-instance default of 1024 would overflow).
	Buffer int

	// HeartbeatPeriod and SuspectTimeout configure the per-node failure
	// detectors (defaults 2ms / 30ms, as in ClusterConfig).
	HeartbeatPeriod time.Duration
	SuspectTimeout  time.Duration
	// Detector selects the construction (nil: all-to-all heartbeat). ONE
	// detector is built per node — not per instance — over the node's raw
	// (fault-wrapped, unbatched) endpoint; its control traffic is what the
	// engine amortizes across instances.
	Detector *DetectorSpec

	// MaxRounds bounds every instance (default T+2).
	MaxRounds int
	// WaitBound bounds each round's receive-or-suspect wait per instance
	// (see NodeConfig.WaitBound). Unlike the single-instance node, the
	// engine defaults a zero value to 30s: with 100k instances in flight a
	// single starved wait (one lost packet on an overflowing inbox) must
	// degrade one instance, not hang the process.
	WaitBound time.Duration

	// Batch tunes the per-link send batching of round traffic. Detector
	// control traffic is never batched — a queued heartbeat is a false
	// suspicion waiting to happen.
	Batch BatcherConfig

	// Faults, when non-nil, interposes the seeded per-link injector between
	// every node and the mesh — beneath the batcher and the detector, so
	// faults stay per-link: a dropped packet takes a whole batch, a delayed
	// packet delays every instance riding in it, exactly like a real link.
	Faults *faults.Config

	// OnInstanceDone, when non-nil, is invoked once per instance when its
	// last automaton halts, from the owning worker goroutine — it must not
	// block (a slow callback stalls every instance sharded to that worker).
	// A serving layer uses it to resolve waiters and feed its conformance
	// monitor without a goroutine per instance.
	OnInstanceDone func(inst uint64, out InstanceOutcome)

	// Metrics receives the engine's instruments; nil uses obs.Default.
	// There is no Events sink: per-event streams at 100k instances would
	// cost more than the run (use the single-instance cluster to trace).
	Metrics *obs.Registry
}

// InstanceOutcome is one completed instance's result across the n nodes.
type InstanceOutcome struct {
	N int
	// Decided and Decisions are indexed id-1.
	Decided   []bool
	Decisions []model.Value
	// WaitTimeouts counts rounds this instance cut short under WaitBound.
	WaitTimeouts int
	// Err is non-nil only when the engine tore down (abort or Close) before
	// the instance completed; the decision slices are then all-undecided.
	Err error
}

// Agreement folds the instance's decisions into the three-way verdict.
func (o InstanceOutcome) Agreement() (model.Value, AgreementStatus) {
	return agreementOf(o.Decisions, o.Decided)
}

// Instance is the handle returned by Engine.Open: a future resolved when
// the instance's last automaton halts.
type Instance struct {
	id   uint64
	done chan struct{}

	mu  sync.Mutex
	out InstanceOutcome
	ok  bool
}

// ID returns the instance's wire id.
func (h *Instance) ID() uint64 { return h.id }

// Done is closed when the outcome is available.
func (h *Instance) Done() <-chan struct{} { return h.done }

// Outcome returns the result; ok is false while the instance is in flight.
func (h *Instance) Outcome() (InstanceOutcome, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.out, h.ok
}

func (h *Instance) resolve(out InstanceOutcome) {
	h.mu.Lock()
	h.out = out
	h.ok = true
	h.mu.Unlock()
	close(h.done)
}

// EngineStats is a point-in-time snapshot of a live engine — the numbers a
// serving daemon's status endpoint reports.
type EngineStats struct {
	N, Groups int
	Algorithm string
	Detector  string

	Opened    int64 // instances admitted
	Completed int64 // instances whose every automaton halted
	InFlight  int64 // Opened - Completed

	DecidedNodes int64 // (instance, node) decisions

	// Agreement verdict tally over completed instances.
	AgreementNone     int64
	AgreementReached  int64
	AgreementViolated int64

	WaitTimeouts         int64
	UnknownInstanceDrops int64

	// Backlog is the number of events (round messages, registrations)
	// queued in the shard workers' mailboxes at snapshot time — the
	// at-a-glance congestion figure a drain decision reads.
	Backlog int64

	// Detector audit, summed over the n shared detectors. Under the engine
	// no node ever crash-stops, so every suspicion ever raised counts
	// against strong accuracy.
	FalseSuspicions    int64
	Retractions        int64
	FalselySuspected   int64
	EncodeErrors       int64
	DetectorWasPerfect bool

	Uptime time.Duration

	// Cost is the engine's transport accounting so far (per decided node).
	Cost *obs.CostSummary
}

// EngineResult aggregates every instance's outcome plus the run's shared
// cost accounting (the batch RunEngine surface).
type EngineResult struct {
	N, Instances int

	// Decided and Decisions are indexed inst*N + (id-1).
	Decided   []bool
	Decisions []model.Value

	// WaitTimeouts counts rounds cut short by WaitBound across all
	// instances; nonzero means the mesh lost data messages (overflow, injected
	// faults) and the affected instances proceeded with partial rounds.
	WaitTimeouts int64
	// UnknownInstanceDrops counts round messages dropped for carrying an
	// out-of-range instance id.
	UnknownInstanceDrops int64

	// Detector audit, summed over the n shared detectors (see ClusterResult).
	FalseSuspicions    int64
	Retractions        int64
	FalselySuspected   int64
	DetectorWasPerfect bool
	EncodeErrors       int64

	Elapsed time.Duration

	// Cost is the run's transport accounting. With one detector per node
	// serving every instance, Cost.ControlMessagesPerDecision is the
	// amortization headline: it falls toward zero as Instances grows.
	Cost      *obs.CostSummary
	WireKinds []netobs.KindTotals
	Links     *netobs.LinkTap
}

// Decision returns node id's decision in instance inst.
func (er *EngineResult) Decision(inst int, id model.ProcessID) (model.Value, bool) {
	i := inst*er.N + int(id) - 1
	return er.Decisions[i], er.Decided[i]
}

// InstanceAgreement reports instance inst's verdict across its nodes.
func (er *EngineResult) InstanceAgreement(inst int) (model.Value, AgreementStatus) {
	base := inst * er.N
	return agreementOf(er.Decisions[base:base+er.N], er.Decided[base:base+er.N])
}

// DecidedCount counts (instance, node) decisions.
func (er *EngineResult) DecidedCount() int {
	count := 0
	for _, d := range er.Decided {
		if d {
			count++
		}
	}
	return count
}

// engEvent is one worker mailbox entry: either a routed round message (a
// decoded envelope plus the node it was delivered to) or — when slab is
// non-nil — an instance registration from Open.
type engEvent struct {
	node model.ProcessID
	env  wire.Envelope
	slab *instSlab
}

// mailbox is a worker's unbounded inbox. Unbounded by design: the demux
// goroutines must never block on a busy worker (a blocked demux stops
// feeding the failure detector, manufacturing false suspicions), so
// backpressure is traded for memory that is bounded in practice by
// instances × rounds.
type mailbox struct {
	mu     sync.Mutex
	q      []engEvent
	notify chan struct{}
}

func (mb *mailbox) push(ev engEvent) {
	mb.mu.Lock()
	mb.q = append(mb.q, ev)
	mb.mu.Unlock()
	mb.wake()
}

// wake nudges the worker without queueing anything.
func (mb *mailbox) wake() {
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// empty reports whether the queue is drained (used by the shutdown check:
// a closing worker may not exit with a registration still queued).
func (mb *mailbox) empty() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.q) == 0
}

// drain swaps the queue against the (emptied) spare buffer.
func (mb *mailbox) drain(spare []engEvent) []engEvent {
	mb.mu.Lock()
	q := mb.q
	mb.q = spare[:0]
	mb.mu.Unlock()
	return q
}

// instRow buffers one round's inbound messages for one (instance, node)
// automaton: presence bits (a null message is a present message with a nil
// payload) plus the payload row, allocated with the instance's slab and
// cleared after Trans so the payloads are released when the round closes.
type instRow struct {
	got  uint64
	msgs []rounds.Message
}

// instState is one (instance, node) automaton multiplexed on the mesh —
// the engine's replacement for a whole Node goroutine.
type instState struct {
	proc rounds.Process
	slab *instSlab
	id   model.ProcessID

	round    int32 // round currently executing; 0 = halted
	sent     bool  // this round's messages already transmitted
	queued   bool  // sitting in the worker's dirty list
	selfMsg  rounds.Message
	deadline time.Time // WaitBound expiry of the current round
	rows     []instRow // index 1..MaxRounds

	decided      bool
	decision     model.Value
	waitTimeouts int32
}

// instSlab is one instance's n automata, allocated as a unit when the
// instance is opened and released as a unit when the last automaton halts.
// Keeping each instance in its own slab gives the worker stable automaton
// pointers across dynamic registration (a single growing states slice
// would invalidate pointers on every append).
type instSlab struct {
	inst      uint64
	states    []instState    // index id-1
	remaining int            // automata not yet halted
	probe     *InstanceProbe // nil for unobserved instances (the common case)
}

// engWorker owns the instances k with k mod Groups == idx and advances
// their n automata from its mailbox.
type engWorker struct {
	run *engineRun
	idx int

	mb     mailbox
	spare  []engEvent
	slabs  []*instSlab // index inst/Groups; nil once the instance completed
	active int
	dirty  []*instState

	suspects     []model.ProcSet // cached per node, 1..n
	nextDeadline time.Time
	scratch      []rounds.Message
	// encBuf is the worker's frame encode buffer, reused for every frame:
	// Batcher.Send copies the frame, so the bytes are free again as soon
	// as Send returns.
	encBuf []byte
}

// engineRun is the shared state of one engine's lifetime.
type engineRun struct {
	cfg       EngineConfig
	alg       rounds.Algorithm
	n         int
	maxRounds int
	waitBound time.Duration

	codec    wire.Codec
	batchers []*Batcher // 1..n, round traffic only
	fds      []Detector // 1..n, shared per node
	workers  []*engWorker

	metrics      nodeMetrics
	unknown      *obs.Counter
	decidedCtr   *obs.Counter
	openedCtr    *obs.Counter
	doneCtr      *obs.Counter
	unknownCount atomic.Int64
	waitTimeouts atomic.Int64
	decidedNodes atomic.Int64

	opened    atomic.Uint64 // next instance id; demux drops ids at or past it
	closing   atomic.Bool   // workers exit once idle
	completed atomic.Int64
	tally     [3]atomic.Int64 // AgreementStatus tallies over completed instances

	handleMu sync.Mutex
	handles  map[uint64]*Instance // in-flight only

	abortOnce sync.Once
	abortCh   chan struct{}
	abortMu   sync.Mutex
	abortErr  error
}

// abort records the first fatal error and releases every worker.
func (er *engineRun) abort(err error) {
	er.abortMu.Lock()
	if er.abortErr == nil {
		er.abortErr = err
	}
	er.abortMu.Unlock()
	er.abortOnce.Do(func() { close(er.abortCh) })
}

// finish resolves one completed instance: verdict tally, handle, callback.
// Called from the owning worker (or from Close for aborted leftovers).
func (er *engineRun) finish(inst uint64, out InstanceOutcome) {
	_, status := agreementOf(out.Decisions, out.Decided)
	er.tally[status].Add(1)
	er.completed.Add(1)
	er.doneCtr.Inc()
	er.handleMu.Lock()
	h := er.handles[inst]
	delete(er.handles, inst)
	er.handleMu.Unlock()
	if h != nil {
		h.resolve(out)
	}
	if er.cfg.OnInstanceDone != nil {
		er.cfg.OnInstanceDone(inst, out)
	}
}

// Engine is the long-lived form of the shared-mesh runtime: one mesh, one
// failure detector per node, and consensus instances admitted dynamically
// through Open — the backing of a consensus-serving daemon. RunEngine is
// the batch façade over it.
//
// Lifecycle: StartEngine brings up detectors, demultiplexers and shard
// workers; Open admits instances until Drain or Close; Close finishes the
// in-flight instances, joins every goroutine and tears the mesh down.
type Engine struct {
	er  *engineRun
	reg *obs.Registry
	ws  *netobs.WireStats

	network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}
	inj *faults.Injector

	stopDemux chan struct{}
	demuxWG   sync.WaitGroup
	workerWG  sync.WaitGroup

	start time.Time

	drainMu  sync.Mutex
	draining bool

	closeOnce sync.Once
	closeErr  error
	closedCh  chan struct{}
}

// StartEngine brings up a live shared-mesh engine and returns once every
// detector, demultiplexer and shard worker is running. cfg.Instances and
// cfg.Initial are ignored — instances are admitted through Open.
func StartEngine(alg rounds.Algorithm, cfg EngineConfig) (*Engine, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("runtime: engine: empty cluster")
	}
	if n > 63 {
		return nil, fmt.Errorf("runtime: engine: n=%d exceeds the 63-process bound", n)
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 2 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 30 * time.Millisecond
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = cfg.T + 2
	}
	if cfg.WaitBound <= 0 {
		cfg.WaitBound = 30 * time.Second
	}
	if cfg.Groups <= 0 {
		cfg.Groups = stdruntime.GOMAXPROCS(0)
		if cfg.Groups > 8 {
			cfg.Groups = 8
		}
	}
	if cfg.Instances > 0 && cfg.Groups > cfg.Instances {
		cfg.Groups = cfg.Instances
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1 << 15
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	spec := cfg.Detector
	if spec == nil {
		spec = HeartbeatDetector()
	}

	ws := netobs.NewWireStats(reg)
	er := &engineRun{
		cfg:        cfg,
		alg:        alg,
		n:          n,
		maxRounds:  cfg.MaxRounds,
		waitBound:  cfg.WaitBound,
		codec:      wire.Codec{Tap: ws},
		batchers:   make([]*Batcher, n+1),
		fds:        make([]Detector, n+1),
		metrics:    newNodeMetrics(reg, alg.Name(), rounds.RWS),
		unknown:    reg.Counter(MetricEngineUnknownInstance),
		decidedCtr: reg.Counter(MetricEngineInstancesDecided),
		openedCtr:  reg.Counter(MetricEngineInstancesOpened),
		doneCtr:    reg.Counter(MetricEngineInstancesDone),
		handles:    make(map[uint64]*Instance),
		abortCh:    make(chan struct{}),
	}

	network := cfg.Network
	if network == nil {
		network = NewChanNetwork(n, ChanConfig{
			MaxDelay: time.Millisecond, Metrics: reg, Buffer: cfg.Buffer,
		})
	}
	cleanupNetwork := func() { _ = network.Close() }

	var inj *faults.Injector
	if cfg.Faults != nil {
		fcfg := *cfg.Faults
		if fcfg.Metrics == nil {
			fcfg.Metrics = reg
		}
		inj = faults.NewInjector(fcfg)
	}
	cleanupInjector := func() {
		if inj != nil {
			_ = inj.Close()
		}
	}

	// Per-node plumbing: endpoint → (injector) → {detector, batcher, demux}.
	endpoints := make([]Transport, n+1)
	bcfg := cfg.Batch
	if bcfg.Metrics == nil {
		bcfg.Metrics = reg
	}
	for i := 1; i <= n; i++ {
		id := model.ProcessID(i)
		var tr Transport = network.Endpoint(id)
		if inj != nil {
			tr = inj.Wrap(tr)
		}
		endpoints[i] = tr
		d, err := spec.New(DetectorConfig{
			Transport: tr, N: n,
			Period: cfg.HeartbeatPeriod, Timeout: cfg.SuspectTimeout,
		})
		if err != nil {
			// Already-built detectors hold no goroutines before Start, but
			// Stop anyway: the contract says it is safe, and constructions
			// with eager resources rely on it.
			for j := 1; j < i; j++ {
				er.fds[j].Stop()
			}
			for j := 1; j < i; j++ {
				_ = er.batchers[j].Close()
			}
			cleanupInjector()
			cleanupNetwork()
			return nil, fmt.Errorf("runtime: engine node %d: detector %q: %w", i, spec.Name, err)
		}
		d.Instrument(reg, nil)
		d.UseCodec(er.codec)
		er.fds[i] = d
		er.batchers[i] = NewBatcher(tr, bcfg)
	}

	// Shard workers: worker w owns instances {k : k mod Groups == w}.
	er.workers = make([]*engWorker, cfg.Groups)
	for w := range er.workers {
		ew := &engWorker{
			run:      er,
			idx:      w,
			suspects: make([]model.ProcSet, n+1),
			scratch:  make([]rounds.Message, n+1),
		}
		ew.mb.notify = make(chan struct{}, 1)
		er.workers[w] = ew
	}

	e := &Engine{
		er:        er,
		reg:       reg,
		ws:        ws,
		network:   network,
		inj:       inj,
		stopDemux: make(chan struct{}),
		start:     time.Now(),
		closedCh:  make(chan struct{}),
	}
	for i := 1; i <= n; i++ {
		er.fds[i].Start()
	}
	// One demux goroutine per node feeds the detector and routes round
	// traffic to the owning worker.
	for i := 1; i <= n; i++ {
		e.demuxWG.Add(1)
		go er.demuxLoop(&e.demuxWG, model.ProcessID(i), endpoints[i], e.stopDemux)
	}
	for _, w := range er.workers {
		e.workerWG.Add(1)
		go w.loop(&e.workerWG)
	}
	return e, nil
}

// Open admits one consensus instance: node id proposes initial(id) (nil
// proposes 0 everywhere). The returned handle resolves when every automaton
// has halted. Open fails with ErrEngineDraining after Drain or Close.
func (e *Engine) Open(initial func(model.ProcessID) model.Value) (*Instance, error) {
	return e.OpenObserved(initial, nil)
}

// OpenObserved is Open with a per-round wall-clock probe attached: the
// owning worker stamps every send/close/transition/arrival/decision into it
// (see InstanceProbe). probe nil is exactly Open — no stamps, no cost beyond
// a nil check per hook.
func (e *Engine) OpenObserved(initial func(model.ProcessID) model.Value, probe *InstanceProbe) (*Instance, error) {
	er := e.er
	n := er.n
	// The drain lock orders Open against Close: once Close flips draining,
	// every admitted instance's registration is already in its worker's
	// mailbox, so the workers' exit check (closing && idle && empty
	// mailbox) cannot strand a registration.
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	if e.draining {
		return nil, ErrEngineDraining
	}
	id := er.opened.Add(1) - 1
	h := &Instance{id: id, done: make(chan struct{})}
	er.handleMu.Lock()
	er.handles[id] = h
	er.handleMu.Unlock()

	sl := &instSlab{inst: id, states: make([]instState, n), remaining: n, probe: probe}
	if probe != nil {
		probe.attach(n, er.maxRounds, time.Now())
	}
	// Every automaton's rounds 1..MaxRounds (row 0 unused) and their payload
	// rows, carved out of two slab-wide allocations.
	perState := er.maxRounds + 1
	rows := make([]instRow, n*perState)
	msgs := make([]rounds.Message, len(rows)*(n+1))
	for k := range rows {
		rows[k].msgs = msgs[k*(n+1) : (k+1)*(n+1) : (k+1)*(n+1)]
	}
	for i := 1; i <= n; i++ {
		var v model.Value
		if initial != nil {
			v = initial(model.ProcessID(i))
		}
		st := &sl.states[i-1]
		st.proc = er.alg.New(rounds.ProcConfig{ID: model.ProcessID(i), N: n, T: er.cfg.T, Initial: v})
		st.slab = sl
		st.id = model.ProcessID(i)
		st.round = 1
		st.rows = rows[(i-1)*perState : i*perState : i*perState]
	}
	er.openedCtr.Inc()
	er.workers[int(id%uint64(len(er.workers)))].mb.push(engEvent{slab: sl})
	return h, nil
}

// OpenValue admits an instance where every node proposes the same value —
// the state-machine-replication case (one client command per slot).
func (e *Engine) OpenValue(v model.Value) (*Instance, error) {
	return e.Open(func(model.ProcessID) model.Value { return v })
}

// Drain stops admitting new instances; in-flight ones keep running.
func (e *Engine) Drain() {
	e.drainMu.Lock()
	e.draining = true
	e.drainMu.Unlock()
}

// Closed is closed once Close has fully torn the engine down.
func (e *Engine) Closed() <-chan struct{} { return e.closedCh }

// N returns the cluster size.
func (e *Engine) N() int { return e.er.n }

// Algorithm returns the algorithm the engine runs.
func (e *Engine) Algorithm() rounds.Algorithm { return e.er.alg }

// Err returns the engine's first fatal error, if any.
func (e *Engine) Err() error {
	e.er.abortMu.Lock()
	defer e.er.abortMu.Unlock()
	return e.er.abortErr
}

// Stats snapshots the engine. Safe to call concurrently with everything,
// including after Close.
func (e *Engine) Stats() EngineStats {
	er := e.er
	s := EngineStats{
		N:                    er.n,
		Groups:               len(er.workers),
		Algorithm:            er.alg.Name(),
		Opened:               int64(er.opened.Load()),
		Completed:            er.completed.Load(),
		DecidedNodes:         er.decidedNodes.Load(),
		AgreementNone:        er.tally[AgreementNone].Load(),
		AgreementReached:     er.tally[AgreementReached].Load(),
		AgreementViolated:    er.tally[AgreementViolated].Load(),
		WaitTimeouts:         er.waitTimeouts.Load(),
		UnknownInstanceDrops: er.unknownCount.Load(),
		Uptime:               time.Since(e.start),
	}
	s.InFlight = s.Opened - s.Completed
	for _, w := range er.workers {
		w.mb.mu.Lock()
		s.Backlog += int64(len(w.mb.q))
		w.mb.mu.Unlock()
	}
	for i := 1; i <= er.n; i++ {
		fd := er.fds[i]
		s.Detector = fd.Name()
		s.FalseSuspicions += fd.FalseSuspicions()
		s.Retractions += fd.Retractions()
		s.EncodeErrors += fd.EncodeErrors()
		// Under the engine no node ever crash-stops (instances have no crash
		// plans), so every suspicion ever raised is a perfection violation.
		s.FalselySuspected += int64(fd.EverSuspected().Count())
	}
	s.DetectorWasPerfect = s.FalseSuspicions == 0 && s.FalselySuspected == 0
	var links *netobs.LinkTap
	if ts, ok := e.network.(TelemetrySource); ok {
		links = ts.Telemetry()
	}
	s.Cost = netobs.ComputeCost(int(s.DecidedNodes), e.ws, links)
	return s
}

// Close drains the engine, waits the in-flight instances out, joins every
// goroutine and tears the mesh down. Idempotent; returns the engine's first
// fatal error, if any. Instances still unresolved after the workers exit
// (possible only on abort) are failed with ErrEngineClosed or the abort
// error.
func (e *Engine) Close() error {
	e.Drain()
	e.closeOnce.Do(func() {
		er := e.er
		er.closing.Store(true)
		for _, w := range er.workers {
			w.mb.wake()
		}
		e.workerWG.Wait()
		for i := 1; i <= er.n; i++ {
			er.fds[i].Stop()
		}
		close(e.stopDemux)
		e.demuxWG.Wait()
		for i := 1; i <= er.n; i++ {
			_ = er.batchers[i].Close()
		}
		if e.inj != nil {
			_ = e.inj.Close()
		}
		_ = e.network.Close()

		er.abortMu.Lock()
		err := er.abortErr
		er.abortMu.Unlock()
		// Fail whatever is still pending (aborted workers leave instances
		// behind); finish() keeps the tallies and callbacks consistent.
		er.handleMu.Lock()
		var stranded []uint64
		for id := range er.handles {
			stranded = append(stranded, id)
		}
		er.handleMu.Unlock()
		for _, id := range stranded {
			ferr := err
			if ferr == nil {
				ferr = ErrEngineClosed
			}
			er.finish(id, InstanceOutcome{
				N:         er.n,
				Decided:   make([]bool, er.n),
				Decisions: make([]model.Value, er.n),
				Err:       ferr,
			})
		}
		netobs.PublishCost(e.reg, netobs.ComputeCost(int(er.decidedNodes.Load()), e.ws, e.links()))
		e.closeErr = err
		close(e.closedCh)
	})
	return e.closeErr
}

func (e *Engine) links() *netobs.LinkTap {
	if ts, ok := e.network.(TelemetrySource); ok {
		return ts.Telemetry()
	}
	return nil
}

// RunEngine executes cfg.Instances concurrent instances of the algorithm
// over one shared mesh and returns every instance's outcome. All goroutines
// are joined before it returns. It is the batch façade over StartEngine.
func RunEngine(alg rounds.Algorithm, cfg EngineConfig) (*EngineResult, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("runtime: engine: need at least one instance")
	}
	initial := cfg.Initial
	if initial == nil {
		initial = func(int, model.ProcessID) model.Value { return 0 }
	}
	e, err := StartEngine(alg, cfg)
	if err != nil {
		return nil, err
	}
	n := e.er.n

	start := time.Now()
	handles := make([]*Instance, cfg.Instances)
	for k := range handles {
		k := k
		h, err := e.Open(func(id model.ProcessID) model.Value { return initial(k, id) })
		if err != nil {
			_ = e.Close()
			return nil, err
		}
		handles[k] = h
	}
wait:
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-e.er.abortCh:
			break wait
		}
	}
	elapsed := time.Since(start)
	err = e.Close()

	res := &EngineResult{
		N: n, Instances: cfg.Instances,
		Decided:              make([]bool, cfg.Instances*n),
		Decisions:            make([]model.Value, cfg.Instances*n),
		WaitTimeouts:         e.er.waitTimeouts.Load(),
		UnknownInstanceDrops: e.er.unknownCount.Load(),
		Elapsed:              elapsed,
	}
	for k, h := range handles {
		out, ok := h.Outcome()
		if !ok {
			continue
		}
		for i := 0; i < n; i++ {
			if out.Decided[i] {
				res.Decided[k*n+i] = true
				res.Decisions[k*n+i] = out.Decisions[i]
			}
		}
	}
	st := e.Stats()
	res.FalseSuspicions = st.FalseSuspicions
	res.Retractions = st.Retractions
	res.EncodeErrors = st.EncodeErrors
	res.FalselySuspected = st.FalselySuspected
	res.DetectorWasPerfect = st.DetectorWasPerfect
	res.Links = e.links()
	res.Cost = netobs.ComputeCost(res.DecidedCount(), e.ws, res.Links)
	res.WireKinds = e.ws.PerKind()
	return res, err
}

// demuxLoop decodes one node's inbound packets (splitting batches), feeds
// the shared detector and routes round messages to the owning worker.
func (er *engineRun) demuxLoop(wg *sync.WaitGroup, id model.ProcessID, tr Transport, stop <-chan struct{}) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		case pkt, ok := <-tr.Recv():
			if !ok {
				return
			}
			_ = wire.SplitBatch(pkt.Data, func(frame []byte) error {
				env, err := er.codec.Decode(frame)
				if err != nil {
					return nil // corrupt frame: drop, keep the batch
				}
				er.fds[id].Observe(env)
				if env.Kind.Control() {
					er.metrics.heartbeats.Inc()
					return nil
				}
				if env.Instance >= er.opened.Load() ||
					env.From < 1 || int(env.From) > er.n {
					er.unknown.Inc()
					er.unknownCount.Add(1)
					return nil
				}
				er.workers[int(env.Instance%uint64(len(er.workers)))].mb.push(engEvent{node: id, env: env})
				return nil
			})
		}
	}
}

// slabFor maps an instance id to its slab, or nil once it completed (late
// duplicates for a finished instance are dropped).
func (w *engWorker) slabFor(inst uint64) *instSlab {
	local := int(inst) / len(w.run.workers)
	if local >= len(w.slabs) {
		return nil
	}
	return w.slabs[local]
}

// register files a newly opened instance with its owning worker.
func (w *engWorker) register(sl *instSlab) {
	local := int(sl.inst) / len(w.run.workers)
	for len(w.slabs) <= local {
		w.slabs = append(w.slabs, nil)
	}
	w.slabs[local] = sl
	w.active += len(sl.states)
	for i := range sl.states {
		w.enqueue(&sl.states[i])
	}
}

// enqueue marks st for advancement in the current sweep.
func (w *engWorker) enqueue(st *instState) {
	if st.queued || st.round == 0 {
		return
	}
	st.queued = true
	w.dirty = append(w.dirty, st)
}

// enqueueAll schedules a full rescan — suspicion changed or a WaitBound
// deadline passed, either of which can complete any blocked round.
func (w *engWorker) enqueueAll() {
	for _, sl := range w.slabs {
		if sl == nil {
			continue
		}
		for i := range sl.states {
			w.enqueue(&sl.states[i])
		}
	}
}

// refreshSuspects snapshots each node's suspicion set once per sweep and
// reports whether any changed. Polling here (not per automaton) keeps the
// detector cost independent of the instance count — the whole point.
func (w *engWorker) refreshSuspects() bool {
	changed := false
	for i := 1; i <= w.run.n; i++ {
		s := w.run.fds[i].Suspects()
		if s != w.suspects[i] {
			w.suspects[i] = s
			changed = true
		}
	}
	return changed
}

// loop is the worker body: drain events, advance dirty automata, flush the
// batched sends, sleep until traffic or the tick.
func (w *engWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	tick := w.run.cfg.SuspectTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for {
		if w.refreshSuspects() {
			w.enqueueAll()
		}
		events := w.mb.drain(w.spare)
		for i := range events {
			w.deliver(&events[i])
			events[i] = engEvent{} // drop slab/payload references for reuse
		}
		w.spare = events
		if !w.nextDeadline.IsZero() && time.Now().After(w.nextDeadline) {
			w.nextDeadline = time.Time{}
			w.enqueueAll()
		}
		for len(w.dirty) > 0 {
			st := w.dirty[len(w.dirty)-1]
			w.dirty = w.dirty[:len(w.dirty)-1]
			st.queued = false
			w.advance(st)
		}
		// Round completions above queued sends on the node batchers; push
		// them out now so peers don't wait out the flush timer.
		for i := 1; i <= w.run.n; i++ {
			if err := w.run.batchers[i].Flush(); err != nil && err != ErrClosed {
				w.run.abort(err)
			}
		}
		// A long-lived engine's workers idle through empty sweeps; they only
		// exit once the engine is closing, every owned automaton has halted
		// and no registration is waiting in the mailbox (Close orders Open
		// registrations strictly before the closing flag).
		if w.active == 0 && w.run.closing.Load() && w.mb.empty() {
			return
		}
		select {
		case <-w.mb.notify:
		case <-ticker.C:
		case <-w.run.abortCh:
			return
		}
	}
}

// deliver files one mailbox event: a registration, or a round message into
// its automaton's row.
func (w *engWorker) deliver(ev *engEvent) {
	if ev.slab != nil {
		w.register(ev.slab)
		return
	}
	sl := w.slabFor(ev.env.Instance)
	if sl == nil {
		return // instance completed (late duplicate) or never registered
	}
	st := &sl.states[int(ev.node)-1]
	r := ev.env.Round
	if st.round == 0 || r < int(st.round) || r > w.run.maxRounds {
		return // automaton halted, round already closed, or out of range
	}
	row := &st.rows[r]
	row.msgs[ev.env.From] = ev.env.Payload
	row.got |= 1 << uint(ev.env.From)
	if sl.probe != nil {
		sl.probe.arrive(ev.node, int(ev.env.From), r, time.Now())
	}
	w.enqueue(st)
}

// advance drives one automaton as far as it can go: send the current
// round's messages if not yet sent, close the round when every peer has
// delivered or is suspected (or the WaitBound expired), transition, repeat.
func (w *engWorker) advance(st *instState) {
	n := w.run.n
	pr := st.slab.probe
	for st.round != 0 {
		r := int(st.round)
		if !st.sent {
			var sendBegin time.Time
			if pr != nil {
				sendBegin = time.Now()
			}
			if err := w.sendRound(st, r); err != nil {
				w.run.abort(err)
				w.halt(st)
				return
			}
			st.sent = true
			st.deadline = time.Now().Add(w.run.waitBound)
			if pr != nil {
				pr.roundSent(st.id, r, sendBegin, time.Now())
			}
		}
		row := &st.rows[r]
		suspects := w.suspects[st.id]
		complete := true
		for j := 1; j <= n; j++ {
			pj := model.ProcessID(j)
			if pj == st.id {
				continue
			}
			if row.got&(1<<uint(j)) == 0 && !suspects.Has(pj) {
				complete = false
				break
			}
		}
		if !complete {
			if time.Now().Before(st.deadline) {
				if w.nextDeadline.IsZero() || st.deadline.Before(w.nextDeadline) {
					w.nextDeadline = st.deadline
				}
				return
			}
			// Liveness guard, as in Node.waitRound: proceed with what we have.
			st.waitTimeouts++
			w.run.waitTimeouts.Add(1)
			w.run.metrics.waitTimeouts.Inc()
		}
		if pr != nil {
			pr.roundClosed(st.id, r, row.got, !complete, time.Now())
		}
		in := w.scratch
		copy(in, row.msgs)
		in[st.id] = st.selfMsg
		st.proc.Trans(r, in)
		clear(row.msgs) // release the payloads; the round is closed
		w.run.metrics.rounds.Inc()
		var transAt time.Time
		if pr != nil {
			transAt = time.Now()
			pr.roundDone(st.id, r, transAt)
		}
		if !st.decided {
			if v, ok := st.proc.Decision(); ok {
				st.decided = true
				st.decision = v
				w.run.decidedCtr.Inc()
				w.run.decidedNodes.Add(1)
				if pr != nil {
					pr.noteDecide(st.id, r, v, transAt)
				}
			}
		}
		st.round++
		st.sent = false
		st.selfMsg = nil
		if int(st.round) > w.run.maxRounds {
			w.halt(st)
		}
	}
}

// halt retires an automaton; when it is the instance's last one, the slab
// is released and the instance resolved.
func (w *engWorker) halt(st *instState) {
	if st.round == 0 {
		return
	}
	st.round = 0
	w.active--
	sl := st.slab
	sl.remaining--
	if sl.remaining > 0 {
		return
	}
	n := w.run.n
	out := InstanceOutcome{
		N:         n,
		Decided:   make([]bool, n),
		Decisions: make([]model.Value, n),
	}
	for i := range sl.states {
		s := &sl.states[i]
		out.Decided[i] = s.decided
		out.Decisions[i] = s.decision
		out.WaitTimeouts += int(s.waitTimeouts)
	}
	if sl.probe != nil {
		sl.probe.noteDone(time.Now())
	}
	w.slabs[int(sl.inst)/len(w.run.workers)] = nil
	w.run.finish(sl.inst, out)
}

// sendRound transmits st's round-r messages through the owning node's
// batcher, tagged with the instance id.
func (w *engWorker) sendRound(st *instState, r int) error {
	msgs := st.proc.Msgs(r)
	if msgs != nil {
		st.selfMsg = msgs[st.id]
	} else {
		st.selfMsg = nil
	}
	for j := 1; j <= w.run.n; j++ {
		dest := model.ProcessID(j)
		if dest == st.id {
			continue
		}
		var payload rounds.Message
		if msgs != nil {
			payload = msgs[dest]
		}
		env, err := wire.EnvelopeFor(st.id, dest, r, payload)
		if err != nil {
			return err
		}
		env.Instance = st.slab.inst
		if w.encBuf, err = w.run.codec.AppendEncode(w.encBuf[:0], env); err != nil {
			return err
		}
		if err := w.run.batchers[st.id].Send(dest, w.encBuf); err != nil {
			return err
		}
	}
	return nil
}
