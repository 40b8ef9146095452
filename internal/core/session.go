package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/obs"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Ledger states: every container the session has seen is either
// currently deployed or was submitted and is now undeployed (arrival
// rejection, removal, preemption stranding, machine failure).  The
// zero value means never submitted, so a fresh ledger needs no fill.
// ledgerStranded is the undeployed sub-state for containers knocked
// out by a machine failure: they did not ask to leave, so recovery
// (and the rebalancer's stranded sweep) auto-retries them; every
// other undeployed path requires an explicit re-submission.
const (
	ledgerNever      uint8 = 0
	ledgerPlaced     uint8 = 1
	ledgerUndeployed uint8 = 2
	ledgerStranded   uint8 = 3
)

// noShard marks a container as placed on no shard.
const noShard int32 = -1

// shard is one independently locked slice of a session: a bare run
// (flow network, search index, IL cache, rescue state) over its
// cluster.  mu guards r and cluster, so the single-threaded run
// contract holds per shard while different shards run concurrently.
type shard struct {
	//aladdin:lock-level 20 per-shard lock, taken under placeMu and before the session table lock mu
	mu      sync.Mutex
	r       *run
	cluster *topology.Cluster
	k       int32 //aladdin:domain shard the shard's own index
}

// Session is the online face of Aladdin (§VI: "Aladdin is an online
// scheduling system"): it keeps the flow network, blacklists and
// aggregates alive across scheduling rounds so LLA batches can arrive
// and depart over time without rebuilding state.  The production
// deployment runs one scheduler manager (SM) per cluster (§III.A).
//
// A session holds K shards.  NewSession builds K=1, running directly
// on the caller's cluster; NewSharded splits the cluster along
// sub-cluster boundaries into K>1 shards, each over a private topology
// copy, so independent applications place concurrently.  Whatever K,
// the session owns the single submission ledger, the container →
// shard ownership table and the per-batch scratch, and every public
// operation is safe for concurrent use.
//
// Lock order (see DESIGN.md §13): placeMu serializes whole Place
// passes and is always outermost; a shard's mu comes next; the table
// lock mu is innermost.
//
// All per-batch working state of a K=1 session (queue, undeployed
// list, result and its assignment map, batch-membership marks) lives
// in reusable scratch buffers: once warm, a steady-state Place call
// that needs no migration or preemption performs zero heap
// allocations (enforced by TestSessionPlaceZeroAlloc and the
// allocguard CI gate).
type Session struct {
	opts    Options            //aladdin:lock-ok immutable after construction
	w       *workload.Workload //aladdin:lock-ok immutable after construction
	cluster *topology.Cluster  //aladdin:lock-ok immutable after construction
	name    string             //aladdin:lock-ok immutable after construction
	met     coreMetrics        //aladdin:lock-ok immutable handles; the instruments synchronize themselves
	// r is shard 0's run — the only run of a K=1 session.
	r    *run                           //aladdin:lock-ok immutable after construction; the run itself is guarded by shard 0's mu
	byID map[string]*workload.Container //aladdin:lock-ok read-only container lookup
	// chunkedDrain makes ConsolidateN drain in bounded per-shard chunks
	// (NewSharded) instead of one pass (NewSession).
	chunkedDrain bool //aladdin:lock-ok immutable after construction
	// sequential runs the shard queues one at a time in shard order: the
	// byte-identical oracle tests check the concurrent fan-out against.
	sequential bool //aladdin:lock-ok set by tests before first use, immutable after

	//aladdin:lock-ok immutable slice; each shard guarded by its own mu
	//aladdin:domain shard -> _ shard index → shard
	shards []*shard

	// Routing tables, built by NewSharded and nil at K=1, where every
	// machine and container lives on shard 0 under its own id.  The
	// //aladdin:domain directives declare each table's id spaces:
	// "global" is a machine id in the session's cluster, "machine" a
	// machine id local to one shard's topology copy, "shard" a shard
	// index and "ord" a container ordinal.

	//aladdin:lock-ok immutable after construction
	//aladdin:domain global -> shard owning shard of each global machine id
	ownerOf []int32

	//aladdin:lock-ok immutable after construction
	//aladdin:domain global -> machine global machine id → id inside its shard
	localOf []topology.MachineID

	//aladdin:lock-ok immutable after construction
	//aladdin:domain shard, machine -> global per-shard local → global machine id
	globalOf [][]topology.MachineID

	//aladdin:lock-ok immutable after construction
	//aladdin:domain ord -> shard container ordinal → first-try shard
	routeOf []int32

	// placeMu serializes Place: batches are admitted, placed and
	// merged one at a time, like the one scheduler manager per cluster
	// the paper assumes — sharding parallelises the inside of a batch,
	// not batches against each other.  It also guards the per-batch
	// scratch below.  Consolidation deliberately does NOT take it:
	// ConsolidateN drains in bounded per-shard chunks so placements
	// interleave with the sweep (see DESIGN.md §15).
	//
	//aladdin:lock-level 10 outermost: whole-batch serialization, taken before any shard mu
	placeMu sync.Mutex

	// Reusable per-batch scratch: the per-shard queues (batch plus
	// requeued preemption victims), the undeployed-ID buffer, and the
	// K=1 Result with its batch assignment view.  The Result a K=1
	// Place call returns (and everything it references) is valid only
	// until the next Place, RetryStranded or RecoverMachine call.
	queues   [][]*workload.Container
	undepBuf []string
	res      sched.Result
	resAsg   constraint.Assignment

	// mu guards the session's global view: the submission ledger, the
	// shard each container is placed on, and batch-membership epochs.
	//
	//aladdin:lock-level 30 innermost: table updates only, taken after a shard mu or alone
	mu sync.Mutex

	// ledger records each container's submission state by ordinal.
	// ExportState derives the undeployed set from it.
	//
	//aladdin:domain ord -> _ container ordinal → submission state
	ledger []uint8
	// strandedN counts ledgerStranded entries so RecoverMachine can
	// skip the retry sweep in O(1) when nothing is stranded.
	strandedN int

	//aladdin:domain ord -> shard container ordinal → shard it is placed on (noShard if none)
	shardOf []int32

	// inBatch marks batch membership by ordinal: inBatch[ord] ==
	// batchEpoch means the container is part of the Place call in
	// flight.  An epoch bump resets all marks in O(1).
	batchEpoch uint32
	//aladdin:domain ord -> _ container ordinal → epoch of the batch in flight
	inBatch []uint32
}

// NewSession builds a single-shard session over a workload universe
// (every app that may ever arrive; constraints need the full
// registry) and a cluster, which it schedules in place.  The cluster
// may already host residents unknown to the workload; they are
// treated as immovable.
func NewSession(opts Options, w *workload.Workload, cluster *topology.Cluster) *Session {
	return newSession(opts, w, cluster, opts.Name(), []*topology.Cluster{cluster})
}

// newSession builds a session with one shard per cluster in shards.
// The shard runs share the session's container index and preemption
// requeue ledger: a container's requeue budget is its own, whichever
// shard evicts it.
func newSession(opts Options, w *workload.Workload, cluster *topology.Cluster, name string, shards []*topology.Cluster) *Session {
	n := w.NumContainers()
	s := &Session{
		opts:    opts,
		w:       w,
		cluster: cluster,
		name:    name,
		queues:  make([][]*workload.Container, len(shards)),
		ledger:  make([]uint8, n),
		shardOf: make([]int32, n),
		inBatch: make([]uint32, n),
	}
	for i := range s.shardOf {
		s.shardOf[i] = noShard
	}
	for _, cl := range shards {
		r := newRun(opts, w, cl)
		if s.r != nil {
			r.byID, r.requeues = s.r.byID, s.r.requeues
		} else {
			s.r = r
		}
		s.shards = append(s.shards, &shard{r: r, cluster: cl, k: int32(len(s.shards))})
	}
	s.byID = s.r.byID
	s.met = s.r.met
	s.met.initGauges(cluster)
	return s
}

// Name returns the paper-style scheduler name, with a shard suffix for
// sessions built by NewSharded, e.g. "Aladdin(16)+IL+DL+S8".
func (s *Session) Name() string { return s.name }

// NumShards returns the session's shard count.
func (s *Session) NumShards() int { return len(s.shards) }

// ShardClusters returns the clusters that hold the live allocations,
// one per shard: the session's own cluster at K=1, the per-shard
// topology copies at K>1 (the cluster passed to NewSharded stays
// empty).  Callers aggregate utilization and usage across them.
func (s *Session) ShardClusters() []*topology.Cluster {
	out := make([]*topology.Cluster, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.cluster
	}
	return out
}

// locate resolves a global machine id to (shard, shard-local id).
// The routing tables are immutable after construction, so no lock is
// needed.
//
//aladdin:domain global -> _
func (s *Session) locate(gid topology.MachineID) (*shard, topology.MachineID, error) {
	if int(gid) < 0 || int(gid) >= s.cluster.Size() {
		return nil, topology.Invalid, fmt.Errorf("core: session: unknown machine %d", gid)
	}
	if s.ownerOf == nil {
		return s.shards[0], gid, nil
	}
	return s.shards[s.ownerOf[gid]], s.localOf[gid], nil
}

// global translates shard k's machine id to the session's.
//
//aladdin:domain shard, machine -> global
func (s *Session) global(k int, lid topology.MachineID) topology.MachineID {
	if s.globalOf == nil {
		return lid //aladdin:domain-ok a single shard schedules the session's cluster under its own ids
	}
	return s.globalOf[k][lid]
}

// route picks the shard a container tries first.
func (s *Session) route(c *workload.Container) int32 {
	if s.routeOf == nil {
		return 0
	}
	return s.routeOf[c.Ord]
}

// Machine returns the live machine with the given global id, or nil
// when the id is out of range.  At K>1 it is the owning shard's copy,
// the one that holds the allocations and the up/down state.
func (s *Session) Machine(id topology.MachineID) *topology.Machine {
	sh, lid, err := s.locate(id)
	if err != nil {
		return nil
	}
	return sh.cluster.Machine(lid)
}

// Assignment returns a fresh container→machine map in the session's
// machine ids, read shard by shard under each shard's lock.  The
// caller owns the map; nothing the session keeps aliases it.
func (s *Session) Assignment() constraint.Assignment {
	out := make(constraint.Assignment, s.NumPlaced())
	cs := s.w.Containers()
	for k, sh := range s.shards {
		sh.mu.Lock()
		for ord, lm := range sh.r.asg {
			if lm != topology.Invalid {
				out[cs[ord].ID] = s.global(k, lm)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// NumPlaced returns the number of containers currently deployed.
func (s *Session) NumPlaced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.ledger {
		if st == ledgerPlaced {
			n++
		}
	}
	return n
}

// Placed reports whether the container is currently deployed, in O(1).
func (s *Session) Placed(containerID string) bool {
	c := s.byID[containerID]
	if c == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger[c.Ord] == ledgerPlaced
}

// Place schedules a batch of containers against the current state.
// Each container must belong to the session's workload, appear at
// most once in the batch, and not be currently placed.  The result
// covers only this batch; at K=1 it — like every slice and map it
// references — is session scratch, valid only until the next Place,
// RetryStranded or RecoverMachine call, and callers that need to
// retain it must copy what they keep.  Result.Elapsed reports the
// batch's critical path (at K>1 the serial sections plus the slowest
// shard); Result.WallElapsed reports this host's wall-clock.
//
// Place holds placeMu for the whole batch and each shard's lock while
// that shard places.  Readers (Assignment, Placed, NumPlaced) take
// only the shard and table locks and never write session state.
//
// On an internal placement error the containers placed before the
// error stay placed, and the partial Result is returned alongside the
// error so callers (the HTTP /place handler, the online simulator)
// can reconcile their view instead of silently diverging from the
// live cluster state.
//
//aladdin:hotpath steady-state placement is allocation-free (allocguard pins AllocsPerRun == 0)
func (s *Session) Place(batch []*workload.Container) (*sched.Result, error) {
	s.opts.Tracer.Emit(obs.Event{Kind: obs.EvPlaceStart, Machine: -1, N: int64(len(batch))})
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	res, err := s.placeLocked(batch, 0, ledgerUndeployed)
	s.observeBatch(res)
	return res, err
}

// observeBatch records a Place call's latency.
func (s *Session) observeBatch(res *sched.Result) {
	if res != nil {
		s.met.placeBatch.Observe(res.Elapsed.Microseconds())
	}
}

// placeLocked is Place without the per-call trace event and
// batch-latency observation, for callers that hold placeMu (or own the
// session outright, like the batch adapter Scheduler.Schedule).  budget
// caps rescue moves for the whole call (0 = unlimited); unplaced
// records the ledger state of containers the call leaves undeployed.
func (s *Session) placeLocked(batch []*workload.Container, budget int, unplaced uint8) (*sched.Result, error) {
	start := s.opts.now()
	epoch, n, err := s.admit(batch)
	if err != nil {
		return nil, err
	}
	limit := -1
	if budget > 0 {
		limit = budget
	}
	if len(s.shards) > 1 {
		return s.placeSharded(start, epoch, n, limit, unplaced)
	}

	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.r
	migBefore, preBefore := r.migrations, r.preempts
	exploredBefore := r.search.explored
	r.capMoves(limit)
	queue, undeployed, err := r.placeQueue(s.queues[0], s.undepBuf[:0])
	r.capMoves(-1)
	s.queues[0], s.undepBuf = queue, undeployed
	s.settle(sh, queue, unplaced)

	// Per-batch assignment view: only this batch's containers (victims
	// from earlier batches that were displaced and re-placed stay in
	// the session-wide Assignment view, not this one).  queue's first
	// n entries are exactly the batch, whatever re-queueing happened
	// behind them.
	if s.resAsg == nil {
		s.resAsg = make(constraint.Assignment, n) //aladdin:hotalloc-ok one-time lazy init; steady state clears and reuses the map
	}
	clear(s.resAsg)
	for _, c := range queue[:n] {
		if m := r.asg[c.Ord]; m != topology.Invalid {
			s.resAsg[c.ID] = m
		}
	}

	dt := s.opts.now().Sub(start)
	s.res = sched.Result{
		Scheduler:   s.name,
		Assignment:  s.resAsg,
		Undeployed:  undeployed,
		Migrations:  r.migrations - migBefore,
		Preemptions: r.preempts - preBefore,
		Elapsed:     dt,
		WallElapsed: dt,
		WorkUnits:   r.search.explored - exploredBefore,
	}
	// Total for this batch only, plus requeued victims from earlier
	// batches that this round stranded.
	s.res.Total = n
	for _, id := range undeployed {
		if c := s.byID[id]; c == nil || s.inBatch[c.Ord] != epoch {
			s.res.Total++
		}
	}
	return &s.res, err
}

// admit validates a batch against the ledger and splits it into the
// per-shard queues by first-try shard.  It returns the batch epoch and
// size.  The whole batch is validated before anything is placed.
func (s *Session) admit(batch []*workload.Container) (epoch uint32, n int, err error) {
	canon := s.w.Containers()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchEpoch++
	epoch = s.batchEpoch
	for k := range s.queues {
		s.queues[k] = s.queues[k][:0]
	}
	for _, c := range batch {
		if c == nil {
			return 0, 0, fmt.Errorf("core: session: nil container in batch")
		}
		// Canonicalise to the workload's own container value: callers
		// may hand in equivalent copies, but all ordinal-keyed state
		// (assignment, network, ledger) is owned by the canonical one.
		if c.Ord < 0 || c.Ord >= len(canon) || canon[c.Ord] != c {
			cc := s.container(c.ID)
			if cc == nil {
				return 0, 0, fmt.Errorf("core: session: container %s not in workload universe", c.ID)
			}
			c = cc
		}
		if s.ledger[c.Ord] == ledgerPlaced {
			return 0, 0, fmt.Errorf("core: session: container %s already placed", c.ID)
		}
		// A duplicate must be caught here: by the time the pipeline saw
		// the second copy, the first would already be deployed and the
		// "not currently placed" check above would have passed for
		// both, double-booking the machine.
		if s.inBatch[c.Ord] == epoch {
			return 0, 0, fmt.Errorf("core: session: container %s appears more than once in batch", c.ID)
		}
		s.inBatch[c.Ord] = epoch
		k := s.route(c)
		s.queues[k] = append(s.queues[k], c)
	}
	return epoch, len(batch), nil
}

// container resolves a container ID in the workload universe.
func (s *Session) container(id string) *workload.Container { return s.byID[id] }

// settle writes the outcome of one queue that ran on shard sh into
// the ledger and the ownership table: a container the shard now hosts
// is placed there, anything else in the queue is left in the unplaced
// state.  Every container in a shard queue was unplaced when its turn
// came or hosted by that shard, so the shard's own assignment is the
// whole truth.  Callers hold sh.mu.
func (s *Session) settle(sh *shard, queue []*workload.Container, unplaced uint8) {
	asg := sh.r.asg
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range queue {
		if asg[c.Ord] != topology.Invalid {
			s.setLedger(c.Ord, ledgerPlaced)
			s.shardOf[c.Ord] = sh.k
		} else {
			s.setLedger(c.Ord, unplaced)
			s.shardOf[c.Ord] = noShard
		}
	}
}

// setLedger writes a container's submission state, keeping the
// stranded count in sync.  Every ledger mutation funnels through here
// so strandedN can never drift.  Callers hold s.mu.
func (s *Session) setLedger(ord int, state uint8) {
	if s.ledger[ord] == ledgerStranded {
		s.strandedN--
	}
	if state == ledgerStranded {
		s.strandedN++
	}
	s.ledger[ord] = state
}

// Remove handles a departure: the container's resources are released
// and its flow cancelled.  Removing an unplaced container is an
// error.
//
//aladdin:hotpath departures run between placements; steady state stays allocation-free
func (s *Session) Remove(containerID string) error {
	c := s.byID[containerID]
	if c == nil {
		return fmt.Errorf("core: session: unknown container %s", containerID)
	}
	for {
		owner := s.owner(c.Ord)
		if owner == noShard {
			return fmt.Errorf("core: session: container %s not placed", containerID)
		}
		sh := s.shards[owner]
		sh.mu.Lock()
		if s.owner(c.Ord) != owner {
			// Lost a race with a failure eviction or re-placement;
			// re-resolve the owner.
			sh.mu.Unlock()
			continue
		}
		err := sh.r.unplace(c, sh.r.asg[c.Ord])
		if err == nil {
			s.mu.Lock()
			s.setLedger(c.Ord, ledgerUndeployed)
			s.shardOf[c.Ord] = noShard
			s.mu.Unlock()
		}
		sh.mu.Unlock()
		return err
	}
}

// owner reads the shard a container is placed on under s.mu.
func (s *Session) owner(ord int) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardOf[ord]
}

// FailureResult summarises one FailMachine call.
type FailureResult struct {
	// Machine is the failed machine.
	Machine topology.MachineID
	// Evicted counts the containers resident at the moment of
	// failure (including residents unknown to the workload).
	Evicted int
	// Replaced counts evicted containers the re-placement pipeline
	// parked on other machines.
	Replaced int
	// Stranded lists the containers left undeployed: evicted
	// residents with no feasible new home, residents unknown to the
	// workload (they die with the machine), and any lower-priority
	// collateral victims preempted during re-placement.
	Stranded []string
	// Migrations and Preemptions are the pipeline costs incurred to
	// re-place the evicted residents.
	Migrations, Preemptions int
	// Elapsed is the wall-clock time of eviction plus re-placement —
	// the re-placement latency a production cluster would alert on.
	Elapsed time.Duration
}

// FailMachine models a machine loss: the machine is taken out of
// service (the search index and all rescue passes stop considering
// it), every resident's flow is cancelled and its resources and
// blacklist entries released, and the evicted residents re-enter the
// normal place → migrate → defragment → preempt pipeline in priority
// order — highest first, so a displaced high-priority container is
// never beaten to the remaining capacity by a lower-priority
// neighbour from the same machine.  Re-placement stays inside the
// owning shard.  Containers with no feasible new home are stranded
// (reported in the result): recovery and the rebalancer retry them.
//
// The session stays audit-clean across the call: anti-affinity and
// priority invariants are enforced by the shared pipeline, and flow
// conservation holds because every eviction cancels its flow before
// any re-placement augments a new path.
func (s *Session) FailMachine(id topology.MachineID) (*FailureResult, error) {
	start := s.opts.now()
	sh, lid, err := s.locate(id)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.r
	machine := sh.cluster.Machine(lid)
	if !machine.Up() {
		return nil, fmt.Errorf("core: session: machine %s is already down", machine.Name)
	}
	machine.MarkDown()
	r.search.noteUpdate(lid)
	s.met.failures.Inc()
	s.met.machinesUp.Add(-1)
	s.met.machinesDown.Add(1)

	migBefore, preBefore := r.migrations, r.preempts
	res := &FailureResult{Machine: id}

	// Snapshot the residents, then evict each: release the (down)
	// machine's allocation, cancel the container's flow, clear its
	// blacklist contributions and refresh the index — r.unplace is the
	// same single mutation path every other eviction uses.  The
	// topology's string-ID view is used deliberately: it is the only
	// view that still includes pre-placed residents unknown to the
	// workload, and machine failure is a cold path.
	ids := append([]string(nil), machine.ContainerIDs()...)
	var evicted []*workload.Container
	for _, cid := range ids {
		res.Evicted++
		c := s.byID[cid]
		if c == nil {
			// A pre-placed resident unknown to the workload: it was
			// never routed through the flow network, so there is
			// nothing to cancel and nothing to re-place.
			if _, err := machine.Release(cid); err != nil {
				res.Elapsed = s.opts.now().Sub(start)
				return res, err
			}
			r.search.noteUpdate(lid)
			res.Stranded = append(res.Stranded, cid)
			continue
		}
		if err := r.unplace(c, lid); err != nil {
			res.Elapsed = s.opts.now().Sub(start)
			return res, err
		}
		evicted = append(evicted, c)
	}

	// Highest priority first (ties: workload order) so the scarce
	// remaining capacity goes to the containers whose weighted flows
	// dominate, without needing preemption to fix the order up after
	// the fact.
	sortByPriority(evicted)
	nEvicted := len(evicted)
	// Everything the failure leaves undeployed — evicted residents with
	// no new home and collateral preemption victims alike — is marked
	// stranded: these containers did not depart, so recovery may
	// auto-retry them.  Residents unknown to the workload have no
	// ledger entry and die with the machine.
	queue, stranded, err := r.placeQueue(evicted, nil)
	s.settle(sh, queue, ledgerStranded)
	res.Stranded = append(res.Stranded, stranded...)
	for _, c := range queue[:nEvicted] {
		if r.asg[c.Ord] != topology.Invalid {
			res.Replaced++
		}
	}
	res.Migrations = r.migrations - migBefore
	res.Preemptions = r.preempts - preBefore
	res.Elapsed = s.opts.now().Sub(start)
	s.met.failLat.Observe(res.Elapsed.Microseconds())
	r.trc.Emit(obs.Event{Kind: obs.EvFailMachine, Machine: int64(id), N: int64(res.Evicted)})
	return res, err
}

// sortByPriority orders containers highest priority first, ties in
// workload order — the order failure re-placement and the stranded
// retry sweep hand scarce capacity out in.
func sortByPriority(cs []*workload.Container) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Priority != cs[j].Priority {
			return cs[i].Priority > cs[j].Priority
		}
		return cs[i].Ord < cs[j].Ord
	})
}

// RecoverMachine returns a failed machine to service: its capacity
// becomes visible to the search index again, and the isomorphism
// cache is invalidated because reappearing capacity can make a
// previously unplaceable application feasible.  Containers stranded
// by earlier failures are then retried automatically through the
// shared placement pipeline (unbudgeted — recovery should restore as
// much of the pre-failure placement as is feasible); the result
// reports what came back.  A non-nil error alongside a non-nil result
// is an internal placement error from the retry sweep.
func (s *Session) RecoverMachine(id topology.MachineID) (*RecoverResult, error) {
	start := s.opts.now()
	sh, lid, err := s.locate(id)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	machine := sh.cluster.Machine(lid)
	if machine.Up() {
		sh.mu.Unlock()
		return nil, fmt.Errorf("core: session: machine %s is not down", machine.Name)
	}
	machine.MarkUp()
	sh.r.search.noteUpdate(lid)
	sh.r.search.il.bump()
	sh.mu.Unlock()
	s.met.recoveries.Inc()
	s.met.machinesUp.Add(1)
	s.met.machinesDown.Add(-1)
	s.opts.Tracer.Emit(obs.Event{Kind: obs.EvRecoverMachine, Machine: int64(id)})
	res := &RecoverResult{Machine: id}
	rr, err := s.RetryStranded(0)
	if rr != nil {
		res.Retried = rr.Retried
		res.Replaced = rr.Replaced
		res.Migrations = rr.Migrations
		res.Preemptions = rr.Preemptions
	}
	res.Elapsed = s.opts.now().Sub(start)
	return res, err
}

// Consolidate runs the machine-draining pass on demand (e.g. during
// off-peak hours) and returns the number of migrations it performed.
// A non-nil error is a CorruptionError: a drain's rollback failed and
// the session state can no longer be trusted.
func (s *Session) Consolidate() (int, error) {
	res, err := s.ConsolidateN(0)
	return res.Moves, err
}

// Audit re-checks the live placement for violations; a healthy
// session always returns an empty slice.
func (s *Session) Audit() []constraint.Violation {
	return constraint.AuditAntiAffinity(s.w, s.Assignment())
}

// FlowConservation verifies Equation 2 on every shard's network.
func (s *Session) FlowConservation() error {
	for k, sh := range s.shards {
		sh.mu.Lock()
		err := sh.r.net.checkConservation()
		sh.mu.Unlock()
		if err != nil && len(s.shards) == 1 {
			return err
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}
