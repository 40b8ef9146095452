package main

import (
	"math/rand"
	"strings"

	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

type kind int

const (
	kindPack kind = iota
	kindServe
)

// spec is one named workload.  The sizes are fields so the tests can
// run each workload's code path at a tiny scale.
type spec struct {
	Name string
	Kind kind
	// Factor divides the Alibaba-shaped trace (1 = about 108k
	// containers); Machines sizes each cluster.
	Factor   int
	Machines int
	// Shards > 1 runs pack through core.NewSharded.
	Shards int
	// LiveApps is how many applications each serve-churn client keeps
	// placed at once, counted in containers of its share's mean
	// application size.
	LiveApps int
	// Rounds is how many rounds serve-churn deals each client's share
	// into; a run measures one round per roundTime.
	Rounds int
}

// workloads are the benchmark's named workloads; README.md says why
// each was chosen.
var workloads = []spec{
	{Name: "pack-10k", Kind: kindPack, Factor: 1, Machines: 10000},
	{Name: "pack-tight", Kind: kindPack, Factor: 5, Machines: 1050},
	{Name: "pack-10k-s2", Kind: kindPack, Factor: 1, Machines: 10000, Shards: 2},
	{Name: "serve-churn", Kind: kindServe, Factor: 4, Machines: 1000, LiveApps: 100, Rounds: 32},
}

func lookupWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, sp := range workloads {
		names[i] = sp.Name
	}
	return strings.Join(names, ", ")
}

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the scheduler sees, printed by
// every --trace 0 run.  BENCHMARK.json lists the same names and units
// with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"schedule_ns_per_container", "ns"},
	{"deployed_frac", "frac"},
	{"machines_used", "count"},
	{"alloc_bytes_per_container", "B"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by every
// --trace 1 run.  A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"topology.new_s", "s"},
	{"core.new_session_s", "s"},
	{"core.place_s", "s"},
	{"core.place_explored_per_container", "count"},
	{"core.place_migrations", "count"},
	{"core.place_preemptions", "count"},
	{"core.retry_s", "s"},
	{"core.retry_attempted", "count"},
	{"core.retry_recovered", "count"},
	{"core.consolidate_s", "s"},
	{"core.consolidate_moves", "count"},
	{"core.shard_critical_path_s", "s"},
	{"core.assignment_s", "s"},
	{"sched.finalize_s", "s"},
	{"check.verify_s", "s"},
	{"check.audit_s", "s"},
	{"core.search_s", "s"},
	{"core.migration_s", "s"},
	{"core.preemption_s", "s"},
	{"core.il_hit_ratio", "frac"},
	{"core.dl_cutoffs", "count"},
	{"server.setup_s", "s"},
	{"server.place_req_us", "us"},
	{"server.place_solver_us", "us"},
	{"server.place_overhead_us", "us"},
	{"server.remove_req_us", "us"},
	{"server.fail_req_us", "us"},
	{"server.recover_req_us", "us"},
	{"server.rebalance_req_ms", "ms"},
	{"server.assignments_req_ms", "ms"},
	{"place_p50_us", "us"},
	{"place_p99_us", "us"},
	{"remove_p50_us", "us"},
	{"req_per_s", "1/s"},
	{"error_frac", "frac"},
	{"loadgen.encode_us", "us"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.gc_cpu_s", "s"},
	{"go.sched_latency_p99_us", "us"},
	{"trace.overhead_s", "s"},
	{"trace.closure_frac", "frac"},
	{"undeployed_frac", "frac"},
}

// loadTrace generates the workload universe: the trace for traceSeed
// at the spec's factor, with its applications renamed by a
// permutation drawn from seed.  Renaming keeps every application's
// shape, priority, constraints and submission position, so the
// scheduling problem is the same for every seed while the container
// IDs the scheduler hashes, sorts and tie-breaks on differ.
func loadTrace(sp spec, traceSeed, seed int64) (*workload.Workload, error) {
	w, err := trace.Generate(trace.Scaled(traceSeed, sp.Factor))
	if err != nil {
		return nil, err
	}
	return relabel(w, seed)
}

func relabel(w *workload.Workload, seed int64) (*workload.Workload, error) {
	src := w.Apps()
	perm := rand.New(rand.NewSource(seed)).Perm(len(src))
	names := make(map[string]string, len(src))
	for i, a := range src {
		names[a.ID] = src[perm[i]].ID
	}
	apps := make([]*workload.App, len(src))
	for i, a := range src {
		b := *a
		b.ID = names[a.ID]
		b.AntiAffinityApps = make([]string, len(a.AntiAffinityApps))
		for j, p := range a.AntiAffinityApps {
			b.AntiAffinityApps[j] = names[p]
		}
		apps[i] = &b
	}
	return workload.New(apps)
}
