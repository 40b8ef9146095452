package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/parallel"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// ShardedSession is Session: a sharded session is a Session built by
// NewSharded with K>1 shards.
type ShardedSession = Session

// NewSharded builds a session over a workload universe and an empty
// cluster, split along sub-cluster boundaries into opts.Shards shards
// (clamped to [1, number of sub-clusters]).  Sub-cluster si goes to
// shard si·K/S, so shards own contiguous, near-equal runs of
// sub-clusters and each shard's machines keep the parent's traversal
// order.  At K>1 each shard schedules a private topology copy of its
// machines and the parent cluster is kept as the routing map only
// (ShardClusters holds the live allocations); at K=1 the session
// schedules the cluster in place, exactly like NewSession.
//
// Each shard owns its own flow network, tournament subtree, IL cache
// and rescue state, so independent applications place concurrently
// with no shared mutable scheduler state.  Cross-shard anti-affinity
// needs no reconciliation protocol: blacklists are per-machine and the
// shards are machine-disjoint, so a constraint can only ever bind
// inside the shard whose machines it names.
func NewSharded(opts Options, w *workload.Workload, cluster *topology.Cluster) (*Session, error) {
	subs := cluster.SubClusters()
	if len(subs) == 0 {
		return nil, fmt.Errorf("core: sharded: cluster has no sub-clusters")
	}
	for _, m := range cluster.Machines() {
		if m.NumContainers() > 0 {
			return nil, fmt.Errorf("core: sharded: machine %s already hosts containers; sharding requires an empty cluster", m.Name)
		}
	}
	k := opts.Shards
	if k < 1 {
		k = 1
	}
	if k > len(subs) {
		k = len(subs)
	}
	name := fmt.Sprintf("%s+S%d", opts.Name(), k)
	if k == 1 {
		s := newSession(opts, w, cluster, name, []*topology.Cluster{cluster})
		s.chunkedDrain = true
		return s, nil
	}

	ownerOf := make([]int32, cluster.Size())
	localOf := make([]topology.MachineID, cluster.Size())
	globalOf := make([][]topology.MachineID, k)
	specs := make([][]topology.MachineSpec, k)
	capCPU := make([]int64, k)
	for si, subName := range subs {
		shard := si * k / len(subs)
		sub := cluster.SubCluster(subName)
		for _, rackName := range sub.Racks {
			for _, gid := range cluster.Rack(rackName).Machines {
				m := cluster.Machine(gid)
				ownerOf[gid] = int32(shard)
				localOf[gid] = topology.MachineID(len(specs[shard]))
				globalOf[shard] = append(globalOf[shard], gid)
				capCPU[shard] += m.Capacity().Dim(resource.CPU)
				specs[shard] = append(specs[shard], topology.MachineSpec{
					Name: m.Name, Rack: m.Rack, Cluster: m.Cluster,
					Capacity: m.Capacity(), Down: !m.Up(),
				})
			}
		}
	}

	// Capacity-proportional home assignment: each application is
	// homed, in application index order, on the shard whose projected
	// load fraction (assigned CPU demand over shard CPU capacity) is
	// lowest.  Round-robin by count would overload the smaller shards
	// whenever the sub-cluster count does not divide evenly across k —
	// an overloaded shard pays the full rescue pipeline (migration,
	// defragmentation, preemption scans) per stranded container before
	// spilling, which dominates the run.  Cross-multiplied int64
	// comparison keeps the choice exact; ties break to the lowest
	// shard index, so the assignment is deterministic.
	//
	// Dense self-anti-affine applications are spread, not homed: when
	// an app's replica count is within a factor of four of the smallest
	// shard's machine count, homing it would blacklist most of that
	// shard's machines, and every later placement search degenerates
	// into a scan over blacklisted candidates (then strands and repeats
	// the scan on the spill shards).  Fanning such replicas out
	// round-robin by container ordinal keeps the blacklist density low
	// on every shard, which is exactly what the whole-cluster scheduler
	// enjoys for free.  The routing depends only on immutable workload
	// ordinals, so it is deterministic in both concurrency modes.
	minMachines := len(globalOf[0])
	for j := 1; j < k; j++ {
		if n := len(globalOf[j]); n < minMachines {
			minMachines = n
		}
	}
	// The decision is flattened to one int32 per container ordinal, so
	// admission pays no per-container map probe.  Containers are
	// app-major in workload ordinal order, which is what makes the walk
	// line up with the apps slice.
	routeOf := make([]int32, w.NumContainers())
	loads := make([]int64, k)
	ord := 0
	for _, a := range w.Apps() {
		demand := a.Demand.Dim(resource.CPU) * int64(a.Replicas)
		if a.AntiAffinitySelf && int64(a.Replicas)*4 >= int64(minMachines) {
			share := demand / int64(k)
			for j := range loads {
				loads[j] += share
			}
			for r := 0; r < a.Replicas; r++ {
				routeOf[ord] = int32(ord % k)
				ord++
			}
			continue
		}
		best := 0
		for j := 1; j < k; j++ {
			if (loads[j]+demand)*capCPU[best] < (loads[best]+demand)*capCPU[j] {
				best = j
			}
		}
		loads[best] += demand
		for r := 0; r < a.Replicas; r++ {
			routeOf[ord] = int32(best)
			ord++
		}
	}

	clusters := make([]*topology.Cluster, k)
	for i := range clusters {
		cl, err := topology.FromSpecs(specs[i])
		if err != nil {
			return nil, fmt.Errorf("core: sharded: shard %d topology: %w", i, err)
		}
		clusters[i] = cl
	}
	s := newSession(opts, w, cluster, name, clusters)
	s.ownerOf, s.localOf, s.globalOf, s.routeOf = ownerOf, localOf, globalOf, routeOf
	s.chunkedDrain = true
	return s, nil
}

// workers returns the fan-out width for a Place pass: one goroutine
// per shard, capped at GOMAXPROCS — launching more shard goroutines
// than runnable cores would only interleave them, which distorts the
// per-shard critical-path timings without finishing any sooner.  A
// single in-order worker when the sequential oracle is forced.
func (s *Session) workers() int {
	if s.sequential {
		return 1
	}
	if n := runtime.GOMAXPROCS(0); n < len(s.shards) {
		return n
	}
	return len(s.shards)
}

// shardBatch carries one shard queue's outcome across the fan-out
// barrier: everything is copied out of the shard while its lock is
// still held.  Batch containers are reported by ordinal in queue
// order — no ID-keyed maps cross the barrier, so the merge costs array
// reads, not hash probes.
type shardBatch struct {
	placed     []int32               // batch ordinals placed by this call, queue order
	asg        []topology.MachineID  // global machine per placed entry
	stranded   []*workload.Container // batch containers left unplaced, queue order
	victims    []*workload.Container // re-queued earlier-batch victims this call stranded
	migrations int
	preempts   int
	work       int64
	elapsed    time.Duration // this shard's own placement + settle time
	err        error
}

// runShard runs one queue through shard k under its lock and settles
// the outcome into the ledger before the lock drops, so a concurrent
// FailMachine on the same shard always observes ledger and shard in
// agreement.  epoch identifies the admitted batch, separating stranded
// batch members from re-queued preemption victims of earlier batches;
// limit caps the queue's rescue moves (negative = uncapped).
func (s *Session) runShard(k int, queue []*workload.Container, epoch uint32, limit int, unplaced uint8) shardBatch {
	sh := s.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t0 := s.opts.now()
	r := sh.r
	migBefore, preBefore, exploredBefore := r.migrations, r.preempts, r.search.explored
	n := len(queue)
	r.capMoves(limit)
	full, undep, err := r.placeQueue(queue, nil)
	r.capMoves(-1)
	s.settle(sh, full, unplaced)
	out := shardBatch{
		migrations: r.migrations - migBefore,
		preempts:   r.preempts - preBefore,
		work:       r.search.explored - exploredBefore,
		err:        err,
	}
	// Batch members were validated unplaced at admission, so a live
	// assignment now means this call placed them.  On a mid-queue
	// error the untried tail lands in stranded, matching the "partial
	// result plus error" contract of Place.
	for _, c := range queue[:n] {
		if lm := r.asg[c.Ord]; lm != topology.Invalid {
			out.placed = append(out.placed, int32(c.Ord))
			out.asg = append(out.asg, s.global(k, lm))
		} else {
			out.stranded = append(out.stranded, c)
		}
	}
	// undep also holds displaced victims from earlier batches;
	// strandings are rare, so the ID probes here are off the hot path.
	for _, id := range undep {
		if c := s.byID[id]; c != nil && !s.isInBatch(c.Ord, epoch) {
			out.victims = append(out.victims, c)
		}
	}
	out.elapsed = s.opts.now().Sub(t0)
	return out
}

// isInBatch reports whether the container was part of the epoch's
// admitted batch, under s.mu.
func (s *Session) isInBatch(ord int, epoch uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inBatch[ord] == epoch
}

// placeSharded is Place for K>1: the admitted per-shard queues run
// concurrently (or in shard order for the sequential oracle, or when a
// move cap must be threaded through the shards), and containers a full
// first-try shard strands get one serial spill pass over the other
// shards in index order.  The returned Result is freshly allocated, so
// concurrent callers never share it.
//
//aladdin:hotpath-stop sharded path: per-shard queues and merge buffers are allocated per batch by design
func (s *Session) placeSharded(start time.Time, epoch uint32, nBatch, limit int, unplaced uint8) (*sched.Result, error) {
	queues := s.queues
	slots := make([]shardBatch, len(s.shards))
	fanStart := s.opts.now()
	if limit >= 0 {
		// One cap threads through the shards in order: each shard may
		// spend only what the ones before it left.
		for k := range s.shards {
			if len(queues[k]) > 0 {
				slots[k] = s.runShard(k, queues[k], epoch, limit, unplaced)
				limit -= slots[k].migrations + slots[k].preempts
			}
		}
	} else {
		parallel.ForEach(len(s.shards), s.workers(), func(k int) {
			if len(queues[k]) == 0 {
				return
			}
			slots[k] = s.runShard(k, queues[k], epoch, -1, unplaced)
		})
	}
	fanWall := s.opts.now().Sub(fanStart)

	// Merge in shard index order: identical in concurrent and
	// sequential modes because each slot is fully determined by its
	// own shard's (deterministic) run.  Pending collects this batch's
	// strandings (shard order, queue order within a shard) followed by
	// re-queued victims; everything else is already placed, so the
	// spill pass never revisits the happy-path containers.
	res := &sched.Result{Scheduler: s.name, Assignment: make(constraint.Assignment, nBatch)}
	canon := s.w.Containers()
	var errs []error
	var pending []*workload.Container
	var slowest time.Duration
	for k := range slots {
		if slots[k].err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", k, slots[k].err))
		}
		for i, ord := range slots[k].placed {
			res.Assignment[canon[ord].ID] = slots[k].asg[i]
		}
		res.Migrations += slots[k].migrations
		res.Preemptions += slots[k].preempts
		res.WorkUnits += slots[k].work
		if slots[k].elapsed > slowest {
			slowest = slots[k].elapsed
		}
		pending = append(pending, slots[k].stranded...)
	}
	for k := range slots {
		pending = append(pending, slots[k].victims...)
	}

	// Spill pass: stranded containers retry the other shards in index
	// order — batch containers first (batch order), then re-queued
	// preemption victims from earlier batches (shard order).  Each
	// shard takes every remaining stranding as one queue, which places
	// the same containers as spilling them one at a time (a shard
	// processes its queue serially, in order) but amortises the
	// per-call overhead and lets isomorphism limiting short-circuit
	// sibling spills.  Serial and deterministic in both concurrency
	// modes; errors abort further spills.
	if len(errs) == 0 {
		for k2 := 0; k2 < len(s.shards) && len(pending) > 0; k2++ {
			queue := pending[:0:0]
			for _, c := range pending {
				if s.route(c) != int32(k2) {
					queue = append(queue, c)
				}
			}
			if len(queue) == 0 {
				continue
			}
			sb := s.runShard(k2, queue, epoch, limit, unplaced)
			if sb.err != nil {
				errs = append(errs, fmt.Errorf("spill shard %d: %w", k2, sb.err))
				break
			}
			res.Migrations += sb.migrations
			res.Preemptions += sb.preempts
			res.WorkUnits += sb.work
			if limit >= 0 {
				limit -= sb.migrations + sb.preempts
			}
			if len(sb.placed) == 0 {
				continue
			}
			landed := make(map[int]bool, len(sb.placed))
			for i, ord := range sb.placed {
				landed[int(ord)] = true
				if s.isInBatch(int(ord), epoch) {
					res.Assignment[canon[ord].ID] = sb.asg[i]
				}
			}
			next := pending[:0]
			for _, c := range pending {
				if !landed[c.Ord] {
					next = append(next, c)
				}
			}
			pending = next
		}
	}

	// Final undeployed view: whatever survived the spill pass, still
	// in batch order then victim order.  Victims were not part of the
	// admitted batch, so each one stranded grows the total.
	res.Total = nBatch
	for _, c := range pending {
		res.Undeployed = append(res.Undeployed, c.ID)
		if !s.isInBatch(c.Ord, epoch) {
			res.Total++
		}
	}
	// Elapsed is the batch's critical path: the serial sections
	// (admission, merge, spill, bookkeeping) at wall-clock plus the
	// slowest shard of the fan-out — the placements inside the fan-out
	// are independent by construction, so the critical path is what a
	// host with one core per shard spends.  WallElapsed keeps this
	// host's actual wall-clock; the two coincide when GOMAXPROCS
	// covers the shard count.
	res.WallElapsed = s.opts.now().Sub(start)
	res.Elapsed = res.WallElapsed - fanWall + slowest
	return res, errors.Join(errs...)
}

// consolidateChunk is how many container moves a sharded consolidation
// performs per shard-lock acquisition: large enough to amortise the
// drain pass's candidate scan, small enough that concurrent Place and
// failure traffic never waits behind a whole-shard drain.
const consolidateChunk = 64

// ConsolidateN runs the machine-draining consolidation pass with a
// per-call move budget: at most budget containers relocate (0 =
// unlimited).  Result.More reports whether drain work (possibly
// infeasible — the signal is conservative) remained; a later call
// resumes it, so interleaving callers (the rebalancer, the HTTP
// handler) can spread a full sweep across cycles.  Moves never cross a
// shard boundary.  A NewSession session drains in one pass; a
// NewSharded one holds each shard's lock for only one bounded chunk of
// moves at a time and never takes Place's lock, so concurrent
// Place/Remove/Fail/Recover traffic interleaves with the sweep instead
// of stalling behind it.  A non-nil error is a CorruptionError: a
// drain's rollback failed and the session state can no longer be
// trusted.
func (s *Session) ConsolidateN(budget int) (ConsolidateResult, error) {
	if !s.chunkedDrain {
		sh := s.shards[0]
		sh.mu.Lock()
		moves, more, err := sh.r.consolidateBudget(budget)
		sh.mu.Unlock()
		return ConsolidateResult{Moves: moves, More: more}, err
	}
	var out ConsolidateResult
	remaining := budget
	for _, sh := range s.shards {
		chunk := consolidateChunk
		for {
			if budget > 0 && remaining <= 0 {
				out.More = true
				return out, nil
			}
			n := chunk
			if budget > 0 && n > remaining {
				n = remaining
			}
			sh.mu.Lock()
			moves, more, err := sh.r.consolidateBudget(n)
			sh.mu.Unlock()
			out.Moves += moves
			if budget > 0 {
				remaining -= moves
			}
			if err != nil {
				return out, err
			}
			if !more {
				break // shard fully consolidated
			}
			if moves == 0 {
				// Every remaining drainable machine on this shard holds
				// more residents than the chunk allows.  Grow the chunk
				// until one fits — unless the sweep budget itself is the
				// binding cap, in which case this shard must wait for a
				// future sweep.
				if budget > 0 && n >= remaining {
					out.More = true
					break
				}
				chunk *= 2
			}
		}
	}
	return out, nil
}
