package sim

import (
	"fmt"

	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/stats"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// ShardedConfig describes one simulation run over the sharded
// scheduler core.  Opts carries the shard count (Options.Shards)
// alongside the usual scheduler configuration.
type ShardedConfig struct {
	Opts     core.Options
	Workload *workload.Workload
	Machines int
	// MachinesPerRack / RacksPerCluster default to the topology
	// package defaults when zero.
	MachinesPerRack int
	RacksPerCluster int
	// Capacity defaults to the paper's 32 CPU / 64 GB machines.
	Capacity resource.Vector
	Order    workload.ArrivalOrder
}

// RunSharded executes one simulation through a core.NewSharded session
// and returns the same Metrics as Run, so sharded and unsharded rows
// land in one table.  It mirrors core.Scheduler.Schedule over the session
// API: the full arrival queue goes in as one batch (each shard runs
// the complete placement pipeline over its slice, stranded containers
// spill across shards), then a consolidation pass drains light
// machines, then containers stranded by fragmentation get one more
// placement pass over the drained space.
//
// Allocations live on the session's shard clusters — at K>1 the
// parent cluster handed to NewSharded stays an empty routing map — so
// the utilisation statistics aggregate over ShardClusters().  Elapsed
// sums the Place batches' critical-path timings and WallElapsed their
// host wall-clock (see sched.Result); consolidation is bookkeeping
// outside the timed placement path, as in RunOnline.
func RunSharded(cfg ShardedConfig) (Metrics, error) {
	if cfg.Workload == nil {
		return Metrics{}, fmt.Errorf("sim: nil workload")
	}
	if cfg.Machines <= 0 {
		return Metrics{}, fmt.Errorf("sim: machine count %d must be positive", cfg.Machines)
	}
	capacity := cfg.Capacity
	if capacity.Zero() {
		capacity = resource.Cores(32, 64*1024)
	}
	cluster := topology.New(topology.Config{
		Machines:        cfg.Machines,
		MachinesPerRack: cfg.MachinesPerRack,
		RacksPerCluster: cfg.RacksPerCluster,
		Capacity:        capacity,
	})
	sess, err := core.NewSharded(cfg.Opts, cfg.Workload, cluster)
	if err != nil {
		return Metrics{}, fmt.Errorf("sim: %w", err)
	}

	arrivals := cfg.Workload.Arrange(cfg.Order)
	res, err := sess.Place(arrivals)
	if err != nil {
		return Metrics{}, fmt.Errorf("sim: %s: %w", sess.Name(), err)
	}
	elapsed, wall := res.Elapsed, res.WallElapsed
	migrations, preempts, work := res.Migrations, res.Preemptions, res.WorkUnits
	undeployed := res.Undeployed

	consolidations := 0
	if cfg.Opts.Migration {
		n, cerr := sess.Consolidate()
		if cerr != nil {
			return Metrics{}, fmt.Errorf("sim: %s: consolidate: %w", sess.Name(), cerr)
		}
		consolidations = n

		// Drained machines expose whole-machine gaps; stranded
		// containers get one more try, mirroring Schedule's
		// post-consolidation rescue.
		if len(undeployed) > 0 {
			byID := make(map[string]*workload.Container, len(undeployed))
			for _, c := range cfg.Workload.Containers() {
				byID[c.ID] = c
			}
			retry := make([]*workload.Container, 0, len(undeployed))
			for _, id := range undeployed {
				if c := byID[id]; c != nil {
					retry = append(retry, c)
				}
			}
			res2, rerr := sess.Place(retry)
			if rerr != nil {
				return Metrics{}, fmt.Errorf("sim: %s: retry: %w", sess.Name(), rerr)
			}
			elapsed += res2.Elapsed
			wall += res2.WallElapsed
			migrations += res2.Migrations
			preempts += res2.Preemptions
			work += res2.WorkUnits
			undeployed = res2.Undeployed
		}
	}

	// Integrity gates before reporting: the shards, their flow
	// networks and the session's ownership tables must agree.
	if vs := sess.AuditInvariants(); len(vs) != 0 {
		return Metrics{}, fmt.Errorf("sim: %s: invariant violations after run: %v", sess.Name(), vs[0])
	}
	if err := sess.FlowConservation(); err != nil {
		return Metrics{}, fmt.Errorf("sim: %s: %w", sess.Name(), err)
	}

	final := &sched.Result{
		Scheduler:      sess.Name(),
		Assignment:     sess.Assignment(),
		Undeployed:     undeployed,
		Migrations:     migrations,
		Consolidations: consolidations,
		Preemptions:    preempts,
		Elapsed:        elapsed,
		WallElapsed:    wall,
		WorkUnits:      work,
	}
	final.Finalize(cfg.Workload)

	m := collect(Config{
		Scheduler: nil, Workload: cfg.Workload, Machines: cfg.Machines, Order: cfg.Order,
	}, cluster, final)
	// The parent cluster is empty at K>1; overwrite the topology
	// statistics with the aggregate over the shard clusters.
	m.UsedMachines, m.Utilization = shardedUtilization(sess.ShardClusters())
	return m, nil
}

// shardedUtilization aggregates used-machine count and the Fig. 11
// CPU-utilisation range across the shard topology copies.
func shardedUtilization(clusters []*topology.Cluster) (int, stats.Range) {
	used := 0
	lo, hi, sum := 1.0, 0.0, 0.0
	for _, cl := range clusters {
		for _, m := range cl.Machines() {
			if m.NumContainers() == 0 {
				continue
			}
			u := m.CPUUtilization()
			if u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
			sum += u
			used++
		}
	}
	if used == 0 {
		return 0, stats.Range{}
	}
	return used, stats.Range{Min: lo, Mean: sum / float64(used), Max: hi}
}
