// Package rebalance runs Aladdin's continuous-rescheduling loop
// (ROADMAP item 3): a background rebalancer that watches utilization
// drift, fragmentation and the stranded ledger, and spends a bounded
// per-cycle migration budget putting the placement back on the
// paper's resource-efficiency objective (§II.A — minimise used
// machines).
//
// Every move is computed incrementally, warm-started from the live
// flow network: the session's ConsolidateN and RetryStranded reuse
// the incumbent network, search index and blacklists, so a cycle's
// cost is proportional to the moves it makes, not to the cluster size
// (the CvxCluster argument for incremental over cold re-solves).
// Priority safety is inherited from the pipeline the moves run
// through — consolidation drains never change relative priorities and
// retry preemptions only displace strictly lower priorities.
package rebalance

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/obs"
)

// Target is the scheduling session a Rebalancer manages.
// *core.Session satisfies it at any shard count; servers wrap their
// tenant locking around one.
type Target interface {
	// PackingStats summarises current placement quality; the
	// rebalancer reads it to decide whether a cycle is worth running.
	PackingStats() core.PackingStats
	// ConsolidateN drains lightly-loaded machines under a move budget.
	ConsolidateN(budget int) (core.ConsolidateResult, error)
	// RetryStranded re-submits failure-stranded containers under a
	// move budget.
	RetryStranded(budget int) (*core.RetryResult, error)
	// AuditInvariants and FlowConservation gate cycles when
	// Config.Audit is on.
	AuditInvariants() []core.AuditViolation
	FlowConservation() error
}

// Config tunes a Rebalancer.
type Config struct {
	// Interval is the background cycle period; Start requires it > 0.
	// RunCycle can always be called manually regardless.
	Interval time.Duration
	// Budget caps moves (consolidation relocations, retry migrations
	// and preemptions) per cycle; 0 means unlimited.
	Budget int
	// MinFragmentation triggers consolidation when the fraction of
	// free CPU that is NOT in the largest free slab reaches it.
	// Defaults to 0.125 when zero.
	MinFragmentation float64
	// UtilizationDrift triggers consolidation when mean utilization
	// moved at least this much since the last cycle.  Defaults to
	// 0.02 when zero.
	UtilizationDrift float64
	// Audit runs AuditInvariants and FlowConservation after each
	// cycle's moves, recording violations in the result.
	Audit bool
	// Metrics, when non-nil, registers the aladdin_rebalance_* series
	// (scoped by MetricLabels, e.g. per tenant).
	Metrics      *obs.Registry
	MetricLabels obs.Labels
	// Clock overrides time.Now for cycle timing (tests).  Trigger
	// decisions never read it — they depend only on packing state.
	Clock func() time.Time
}

func (c Config) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

func (c Config) minFragmentation() float64 {
	if c.MinFragmentation > 0 {
		return c.MinFragmentation
	}
	return 0.125
}

func (c Config) utilizationDrift() float64 {
	if c.UtilizationDrift > 0 {
		return c.UtilizationDrift
	}
	return 0.02
}

// CycleResult reports one rebalancing cycle.
type CycleResult struct {
	// Budget is the move cap this cycle ran under (0 = unlimited);
	// Moves is what it actually spent, never exceeding a non-zero
	// Budget on a single-session target.
	Budget int `json:"budget"`
	Moves  int `json:"moves"`
	// Retried / Replaced describe the stranded sweep: containers
	// attempted and containers that found a new home.
	Retried  int `json:"retried"`
	Replaced int `json:"replaced"`
	// ConsolidationMoves is the subset of Moves spent draining
	// machines; More reports drain work left for the next cycle.
	ConsolidationMoves int  `json:"consolidation_moves"`
	More               bool `json:"more"`
	// Skipped is set when the cycle found no trigger (no strandings,
	// fragmentation and drift below thresholds) and did nothing.
	Skipped bool `json:"skipped,omitempty"`
	// Stranded / Fragmentation / MeanUtilization snapshot packing
	// state after the cycle's moves.
	Stranded        int     `json:"stranded"`
	Fragmentation   float64 `json:"fragmentation"`
	MeanUtilization float64 `json:"mean_utilization"`
	// Violations holds audit findings (Config.Audit only); a healthy
	// session always produces none.
	Violations []string      `json:"violations,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	// Err carries a scheduler error (state corruption aborts the
	// cycle); the HTTP layer maps it separately.
	Err error `json:"-"`
}

// Fragmentation is the share of free CPU outside the largest free
// slab: 0 when all free capacity is one contiguous machine-slab, →1
// as it shatters across many machines.
func Fragmentation(ps core.PackingStats) float64 {
	if ps.FreeCPU <= 0 {
		return 0
	}
	return 1 - float64(ps.LargestFreeCPU)/float64(ps.FreeCPU)
}

// cycleMoveBuckets sizes the per-cycle move histogram: cycles are
// budget-bounded, so power-of-two buckets up to a few thousand cover
// any realistic budget.
var cycleMoveBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// rbMetrics bundles the rebalancer's instrument handles; the zero
// value is the disabled configuration (nil-safe handles).
type rbMetrics struct {
	cycles        *obs.Counter
	skipped       *obs.Counter
	moves         *obs.Counter
	retried       *obs.Counter
	replaced      *obs.Counter
	violations    *obs.Counter
	cycleMoves    *obs.Histogram
	cycleLat      *obs.Histogram
	running       *obs.Gauge
	stranded      *obs.Gauge
	fragmentation *obs.Gauge
}

func newRBMetrics(reg *obs.Registry, labels obs.Labels) rbMetrics {
	if reg == nil {
		return rbMetrics{}
	}
	return rbMetrics{
		cycles:        reg.LabeledCounter("aladdin_rebalance_cycles_total", "rebalancing cycles run", labels),
		skipped:       reg.LabeledCounter("aladdin_rebalance_skipped_total", "cycles that found no trigger and did nothing", labels),
		moves:         reg.LabeledCounter("aladdin_rebalance_moves_total", "container moves spent by rebalancing cycles", labels),
		retried:       reg.LabeledCounter("aladdin_rebalance_retried_total", "stranded containers retried by rebalancing cycles", labels),
		replaced:      reg.LabeledCounter("aladdin_rebalance_replaced_total", "stranded containers re-placed by rebalancing cycles", labels),
		violations:    reg.LabeledCounter("aladdin_rebalance_violations_total", "audit violations observed after rebalancing cycles", labels),
		cycleMoves:    reg.LabeledHistogram("aladdin_rebalance_cycle_moves", "container moves per rebalancing cycle", cycleMoveBuckets, labels),
		cycleLat:      reg.LabeledHistogram("aladdin_rebalance_cycle_duration_us", "wall-clock latency of one rebalancing cycle, microseconds", obs.LatencyBucketsUS, labels),
		running:       reg.LabeledGauge("aladdin_rebalance_running", "1 while the background rebalancer loop is started", labels),
		stranded:      reg.LabeledGauge("aladdin_rebalance_stranded", "failure-stranded containers awaiting a feasible home", labels),
		fragmentation: reg.LabeledGauge("aladdin_rebalance_fragmentation_bp", "free-CPU fragmentation in basis points (share of free CPU outside the largest slab)", labels),
	}
}

// Rebalancer drives continuous rescheduling against one Target.  It
// is safe for concurrent use: Start/Stop manage the background loop,
// and RunCycle may also be invoked directly (cycles serialize on an
// internal mutex, so a manual cycle and a ticker cycle never
// interleave their moves).
type Rebalancer struct {
	target Target    //aladdin:lock-ok immutable after construction
	met    rbMetrics //aladdin:lock-ok immutable after construction
	cfg    Config    // guarded by mu; SetSchedule rewrites it between runs

	// cycleMu serializes cycles; it is held across target calls, so
	// lifecycle state lives under the separate mu below (Stop must
	// never wait on a running cycle's locks to flip `running`).
	cycleMu sync.Mutex

	mu       sync.Mutex
	running  bool
	stop     chan struct{}
	done     chan struct{}
	lastUtil float64
	haveLast bool
	// pendingMore remembers a budget-exhausted drain so the next
	// cycle resumes it even when no fresh trigger fires.
	pendingMore bool
}

// New builds a Rebalancer over a target session.
func New(target Target, cfg Config) *Rebalancer {
	return &Rebalancer{
		target: target,
		cfg:    cfg,
		met:    newRBMetrics(cfg.Metrics, cfg.MetricLabels),
	}
}

// SetSchedule reconfigures the background cycle interval and the
// per-cycle move budget.  It fails while the loop is running — stop
// it first, so an in-flight cycle never observes a torn config.
func (rb *Rebalancer) SetSchedule(interval time.Duration, budget int) error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.running {
		return fmt.Errorf("rebalance: cannot reconfigure while running")
	}
	rb.cfg.Interval = interval
	rb.cfg.Budget = budget
	return nil
}

// Start launches the background loop, one cycle per Config.Interval.
// It errors when the interval is unset or the loop already runs.
func (rb *Rebalancer) Start() error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.cfg.Interval <= 0 {
		return fmt.Errorf("rebalance: Start requires a positive Interval")
	}
	if rb.running {
		return fmt.Errorf("rebalance: already running")
	}
	rb.running = true
	rb.stop = make(chan struct{})
	rb.done = make(chan struct{})
	rb.met.running.Set(1)
	go rb.loop(rb.cfg.Interval, rb.stop, rb.done)
	return nil
}

func (rb *Rebalancer) loop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rb.RunCycle()
		}
	}
}

// Stop halts the background loop and waits for an in-flight cycle to
// finish.  Idempotent; a stopped rebalancer can Start again.
func (rb *Rebalancer) Stop() {
	stop, done := rb.beginStop()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	rb.met.running.Set(0)
}

// beginStop flips the lifecycle flag under the lock and hands back the
// loop's channels — nil when the loop was not running.  Stop closes
// and waits outside the lock so a draining cycle can never deadlock
// against it.
func (rb *Rebalancer) beginStop() (stop, done chan struct{}) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if !rb.running {
		return nil, nil
	}
	rb.running = false
	return rb.stop, rb.done
}

// Running reports whether the background loop is started.
func (rb *Rebalancer) Running() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.running
}

// RunCycle runs one rebalancing cycle under the configured budget.
func (rb *Rebalancer) RunCycle() CycleResult {
	return rb.RunCycleBudget(rb.snapshotCfg().Budget)
}

// snapshotCfg reads the config under the lifecycle lock — SetSchedule
// may rewrite it between cycles, so a cycle works from one coherent
// copy.
func (rb *Rebalancer) snapshotCfg() Config {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.cfg
}

// driftSince reports whether mean utilization moved enough since the
// last finished cycle to warrant consolidation; the first cycle and a
// pending budget-exhausted drain always trigger.
func (rb *Rebalancer) driftSince(util float64, cfg Config) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return !rb.haveLast || rb.pendingMore ||
		abs(util-rb.lastUtil) >= cfg.utilizationDrift()
}

// RunCycleBudget runs one cycle under an explicit move budget (0 =
// unlimited), overriding Config.Budget — the HTTP POST /rebalance
// body uses it for one-shot operator-driven sweeps.
func (rb *Rebalancer) RunCycleBudget(budget int) CycleResult {
	rb.cycleMu.Lock()
	defer rb.cycleMu.Unlock()
	cfg := rb.snapshotCfg()
	start := cfg.now()
	res := CycleResult{Budget: budget}

	ps := rb.target.PackingStats()
	frag := Fragmentation(ps)
	drift := rb.driftSince(ps.MeanUtilization, cfg)

	remaining := budget
	if ps.Stranded > 0 {
		rr, err := rb.target.RetryStranded(remaining)
		if rr != nil {
			res.Retried = rr.Retried
			res.Replaced = len(rr.Replaced)
			res.Moves += rr.Migrations + rr.Preemptions
			if budget > 0 {
				remaining -= rr.Migrations + rr.Preemptions
			}
		}
		if err != nil {
			res.Err = err
			return rb.finish(res, ps, cfg, start)
		}
	}

	consolidate := frag >= cfg.minFragmentation() || drift || res.Replaced > 0
	switch {
	case !consolidate:
		if res.Retried == 0 {
			res.Skipped = true
		}
	case budget > 0 && remaining <= 0:
		// Retry ate the whole budget; drain work waits for next cycle.
		res.More = true
	default:
		cr, err := rb.target.ConsolidateN(remaining)
		res.ConsolidationMoves = cr.Moves
		res.Moves += cr.Moves
		res.More = cr.More
		if err != nil {
			res.Err = err
			return rb.finish(res, ps, cfg, start)
		}
	}

	if cfg.Audit {
		for _, v := range rb.target.AuditInvariants() {
			res.Violations = append(res.Violations, v.Detail)
		}
		if err := rb.target.FlowConservation(); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	return rb.finish(res, rb.target.PackingStats(), cfg, start)
}

// finish stamps the post-cycle packing snapshot, updates the drift
// baseline and records metrics.
func (rb *Rebalancer) finish(res CycleResult, ps core.PackingStats, cfg Config, start time.Time) CycleResult {
	res.Stranded = ps.Stranded
	res.Fragmentation = Fragmentation(ps)
	res.MeanUtilization = ps.MeanUtilization
	res.Elapsed = cfg.now().Sub(start)
	rb.mu.Lock()
	rb.lastUtil = ps.MeanUtilization
	rb.haveLast = true
	rb.pendingMore = res.More
	rb.mu.Unlock()
	rb.met.cycles.Inc()
	if res.Skipped {
		rb.met.skipped.Inc()
	}
	rb.met.moves.Add(int64(res.Moves))
	rb.met.retried.Add(int64(res.Retried))
	rb.met.replaced.Add(int64(res.Replaced))
	rb.met.violations.Add(int64(len(res.Violations)))
	rb.met.cycleMoves.Observe(int64(res.Moves))
	rb.met.cycleLat.Observe(res.Elapsed.Microseconds())
	rb.met.stranded.Set(int64(ps.Stranded))
	rb.met.fragmentation.Set(int64(res.Fragmentation * 10000))
	return res
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// IsCorruption reports whether a cycle error poisons the session
// (core.ErrStateCorruption); anything else is retryable.
func IsCorruption(err error) bool {
	return errors.Is(err, core.ErrStateCorruption)
}
