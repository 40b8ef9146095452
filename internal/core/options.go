// Package core implements the Aladdin scheduler: an optimized
// maximum-flow algorithm over a tiered flow network
// (s → T → A → G → R → N → t) whose capacity function is
// multidimensional (CPU and memory) and non-linear (set-based
// blacklists for anti-affinity, Equations 6–8), with weighted flows
// for priority (Equations 3–5, 9), isomorphism limiting and depth
// limiting to cut placement latency (§IV.A), and priority-safe
// migration and preemption (§III.B, Fig. 3 and Fig. 7).
package core

import (
	"fmt"
	"strings"
	"time"

	"aladdin/internal/obs"
)

// Options configures an Aladdin scheduler instance.
type Options struct {
	// WeightBase is the configured priority weight multiplier (the
	// paper evaluates 16, 32, 64 and 128, Fig. 9).  Values ≤ 1 derive
	// the minimal safe ladder from the workload instead.
	WeightBase int64
	// IsomorphismLimiting enables IL: once a machine fails a
	// container on resources, isomorphic siblings of the same
	// application skip it (§IV.A, Fig. 5a).
	IsomorphismLimiting bool
	// DepthLimiting enables DL: the path search stops at the first
	// feasible machine because an impartible container's flow cannot
	// be increased by further paths (§IV.A, Fig. 5b).
	DepthLimiting bool
	// Migration allows relocating already-placed containers to clear
	// anti-affinity blockage (Fig. 3b).  A migrated container keeps
	// running elsewhere, so migrating a high-priority container for a
	// low-priority one is safe.
	Migration bool
	// Preemption allows evicting strictly-lower-priority containers
	// when resources are short; victims are re-queued.  Weighted
	// flows guarantee a high-priority container is never preempted by
	// a lower one (§III.B).
	Preemption bool
	// MaxBlockersPerMigration bounds how many blockers one migration
	// will relocate; 0 means the default of 2.
	MaxBlockersPerMigration int
	// MaxRequeues bounds how many times one container may be
	// preempted and re-queued; 0 means the default of 2.
	MaxRequeues int
	// DisableWeights is an ablation switch: when set, preemption
	// compares raw flows f(i,j) instead of weighted flows w_k·f(i,j),
	// reproducing the priority-inversion failure of the unweighted
	// maximum-flow theory (Fig. 3a).
	DisableWeights bool
	// NaiveSearch disables the residual-capacity index and restores
	// the full linear scan over sub-clusters → racks → machines.
	// Kept for A/B benchmarking (BenchmarkSearchIndexed) and as the
	// oracle the indexed search is validated against: under DL both
	// searches produce byte-identical placements, without DL they
	// produce identical undeployed sets.
	NaiveSearch bool
	// DebugChecks enables paranoid invariant checking: every
	// incremental aggregate update is cross-checked against the naive
	// recompute, panicking on drift.  Slow; meant for tests.
	DebugChecks bool
	// IndexRebuildEvery is the search index's full-rebuild safety
	// valve period, in machine updates; 0 means the default (32768),
	// negative disables periodic rebuilds.
	IndexRebuildEvery int
	// Clock supplies wall-clock readings for the latency metrics
	// (Result.Elapsed, FailureResult.Elapsed); nil means time.Now.
	// Placement decisions never read the clock — it exists so replay
	// tests can inject a fixed clock and get bit-identical results,
	// and so the determinism analyzer can prove the scheduler core
	// has exactly one wall-clock read site.
	Clock func() time.Time
	// Metrics, when non-nil, receives the scheduler's phase-latency
	// histograms, pipeline counters and live-state gauges (see
	// internal/obs).  Nil disables instrumentation entirely: no
	// registry lookups, no clock reads beyond the one per-batch
	// Elapsed pair, no allocations on the search hot path.
	Metrics *obs.Registry
	// MetricLabels, when non-empty, attaches these labels to every
	// metric series the scheduler registers on Metrics.  Multi-tenant
	// deployments give each tenant's session a distinct label set
	// (e.g. tenant="blue") so sessions sharing one registry keep
	// separate series instead of clobbering each other's gauges; an
	// empty map keeps today's unlabeled families.
	MetricLabels obs.Labels
	// Tracer, when non-nil, receives structured scheduler events
	// (placements, preemptions, migrations, corruption, machine
	// failures).  Nil is the zero-cost disabled tracer.
	Tracer *obs.Tracer
	// Shards splits the scheduler core along sub-cluster boundaries
	// into this many independently-locked shards, each with its own
	// flow network, tournament subtree and IL cache (see NewSharded).
	// Values ≤ 1 mean the single unsharded core; the count is clamped
	// to the number of sub-clusters.  NewSession ignores the field —
	// sharding is opted into by constructing the session with
	// NewSharded (RestoreSession honours it).
	Shards int
	// GangScheduling makes application placement all-or-nothing: if
	// any container of an application cannot be placed, the whole
	// application is rolled back and undeployed.  Container groups of
	// LLAs (a Medea concept the flow model supports naturally: an
	// application vertex whose flow either saturates or is
	// withdrawn).
	GangScheduling bool
}

// DefaultOptions returns the full Aladdin configuration used in the
// paper's headline experiments: weight base 16, both latency
// optimisations, migration and preemption enabled.
func DefaultOptions() Options {
	return Options{
		WeightBase:          16,
		IsomorphismLimiting: true,
		DepthLimiting:       true,
		Migration:           true,
		Preemption:          true,
	}
}

// now reads the injected clock, falling back to the system clock.
// This is the scheduler core's only wall-clock read; it feeds latency
// metrics exclusively, never placement decisions.
func (o Options) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now() //aladdin:nondeterministic-ok latency metrics only; replaced by Options.Clock in replays
}

func (o Options) maxBlockers() int {
	if o.MaxBlockersPerMigration > 0 {
		return o.MaxBlockersPerMigration
	}
	return 2
}

func (o Options) maxRequeues() int {
	if o.MaxRequeues > 0 {
		return o.MaxRequeues
	}
	return 2
}

// Name renders the paper's naming convention: "Aladdin(16)" for the
// plain policy, with "+IL" and "+DL" suffixes for the optimisations.
func (o Options) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aladdin(%d)", o.WeightBase)
	if o.IsomorphismLimiting {
		b.WriteString("+IL")
	}
	if o.DepthLimiting {
		b.WriteString("+DL")
	}
	return b.String()
}
