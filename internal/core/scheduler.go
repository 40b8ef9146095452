package core

import (
	"fmt"
	"sort"

	"aladdin/internal/constraint"
	"aladdin/internal/obs"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Scheduler is the Aladdin scheduler.  One instance is reusable
// across runs; each Schedule call runs on a fresh session.
type Scheduler struct {
	opts Options
}

// New builds an Aladdin scheduler with the given options.
func New(opts Options) *Scheduler { return &Scheduler{opts: opts} }

// NewDefault builds the paper's headline configuration (weight base
// 16, IL+DL, migration and preemption on).
func NewDefault() *Scheduler { return New(DefaultOptions()) }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.opts.Name() }

// run carries the mutable state of one Schedule invocation.
type run struct {
	opts      Options
	w         *workload.Workload
	cluster   *topology.Cluster
	net       *network
	ladder    *constraint.WeightLadder
	blacklist *constraint.Blacklist
	search    *searcher
	met       coreMetrics
	trc       *obs.Tracer

	// asg is the live assignment, keyed by container ordinal (Invalid =
	// undeployed).  place/unplace are the scheduler's innermost
	// mutations; a slice write keeps them free of string hashing.  It
	// is the only assignment state: ID-keyed maps are built from it on
	// demand and never cached.
	//
	//aladdin:domain ord -> machine container ordinal → assigned machine
	asg []topology.MachineID
	// residents[m] lists the workload ordinals placed on machine m in
	// ascending ordinal order — the reverse view of asg, maintained by
	// place/unplace so migration, drain, defrag and preemption walk a
	// machine's occupants without the topology layer's string-ID round
	// trip.  Pre-placed residents unknown to the workload are absent;
	// consumers that need them (drain) detect the mismatch against
	// Machine.NumContainers.
	//
	//aladdin:domain machine, _ -> ord machine id → resident container ordinals
	residents [][]int32
	//aladdin:domain ord -> _ container ordinal → requeue count
	requeues       []int
	byID           map[string]*workload.Container
	migrations     int
	consolidations int
	preempts       int
	inversions     []constraint.Violation

	// preemptLog records every eviction for the runtime Auditor's
	// priority-ordering check: each entry must have victim priority
	// strictly below the claimant's (§III.B) unless the DisableWeights
	// ablation is on.
	preemptLog []preemptEvent

	// moveCap caps rescue moves (migration relocations, defrag moves,
	// preemption evictions) while moveCapped is set; moveStartMig/
	// moveStartPre snapshot the counters at capMoves so movesRemaining
	// can charge only moves made under the cap.  Direct placements are
	// free: the budget prices churn, not admissions.
	moveCapped   bool
	moveCap      int
	moveStartMig int
	moveStartPre int
}

// capMoves caps subsequent rescue moves at limit (a negative limit
// clears the cap; zero allows direct placements only).  The rescue
// paths consult movesRemaining before committing to a relocation set,
// so a capped call never exceeds the cap.
func (r *run) capMoves(limit int) {
	r.moveCapped = limit >= 0
	r.moveCap = limit
	r.moveStartMig = r.migrations
	r.moveStartPre = r.preempts
}

// movesRemaining reports how many rescue moves the active cap still
// allows; effectively unbounded when no cap is set.
func (r *run) movesRemaining() int {
	if !r.moveCapped {
		return int(^uint(0) >> 1)
	}
	spent := (r.migrations - r.moveStartMig) + (r.preempts - r.moveStartPre)
	if spent >= r.moveCap {
		return 0
	}
	return r.moveCap - spent
}

// preemptEvent is one preemption eviction: claimant displaced victim
// on machine.
type preemptEvent struct {
	claimant, victim *workload.Container
	machine          topology.MachineID
}

// newRun builds the mutable state for one scheduling context.
func newRun(opts Options, w *workload.Workload, cluster *topology.Cluster) *run {
	r := &run{
		opts:      opts,
		w:         w,
		cluster:   cluster,
		net:       buildNetwork(w, cluster),
		ladder:    constraint.NewWeightLadder(w, opts.WeightBase),
		blacklist: constraint.NewBlacklist(w, cluster.Size()),
		asg:       make([]topology.MachineID, w.NumContainers()),
		residents: make([][]int32, cluster.Size()),
		requeues:  make([]int, w.NumContainers()),
		byID:      make(map[string]*workload.Container, w.NumContainers()),
	}
	for i := range r.asg {
		r.asg[i] = topology.Invalid
	}
	for _, c := range w.Containers() {
		r.byID[c.ID] = c
	}
	r.search = newSearcher(opts, w, cluster, r.blacklist)
	r.met = newCoreMetrics(opts.Metrics, opts.MetricLabels)
	r.trc = opts.Tracer
	// Assigned after construction so newSearcher's signature stays
	// stable for the search benchmarks that build one directly.
	r.search.met = r.met
	return r
}

// assignmentMap builds a fresh ID-keyed map of the assignment, sized
// to the placed containers rather than the workload universe.
func (r *run) assignmentMap() constraint.Assignment {
	n := 0
	for _, m := range r.asg {
		if m != topology.Invalid {
			n++
		}
	}
	out := make(constraint.Assignment, n)
	for _, c := range r.w.Containers() {
		if m := r.asg[c.Ord]; m != topology.Invalid {
			out[c.ID] = m
		}
	}
	return out
}

// Schedule implements sched.Scheduler as an adapter over a session
// on the caller's cluster: Place the arrivals in the given order, then
// (with migration on) consolidate and Place once more whatever stayed
// undeployed — drained machines expose whole-machine gaps — and
// finally apply gang semantics.  The Result reports the whole run:
// its total explored vertices, every rescue move and every priority
// inversion.
func (s *Scheduler) Schedule(w *workload.Workload, cluster *topology.Cluster, arrivals []*workload.Container) (*sched.Result, error) {
	start := s.opts.now()
	// The session is private to this call, so placeLocked needs no
	// lock.
	sess := NewSession(s.opts, w, cluster)
	r := sess.r
	r.trc.Emit(obs.Event{Kind: obs.EvPlaceStart, Machine: -1, N: int64(len(arrivals))})
	res, err := sess.placeLocked(arrivals, 0, ledgerUndeployed)
	if err != nil {
		return nil, err
	}
	undeployed := append([]string(nil), res.Undeployed...)
	if s.opts.Migration {
		// Consolidation pass: empty lightly-loaded machines into the
		// free space of used ones — the final step of minimising the
		// number of used machines (§II.A's resource-efficiency
		// objective).
		if err := r.consolidate(); err != nil {
			return nil, err
		}
		if len(undeployed) > 0 {
			retry := make([]*workload.Container, len(undeployed))
			for i, id := range undeployed {
				retry[i] = sess.byID[id]
			}
			if res, err = sess.placeLocked(retry, 0, ledgerUndeployed); err != nil {
				return nil, err
			}
			undeployed = res.Undeployed
		}
	}
	if s.opts.GangScheduling {
		// Applied last: the retry above may have completed a
		// partially-placed gang, and withdrawals must be final.
		if undeployed, err = r.enforceGangs(undeployed); err != nil {
			return nil, err
		}
	}

	out := &sched.Result{
		Scheduler:      s.Name(),
		Assignment:     r.assignmentMap(),
		Undeployed:     undeployed,
		Violations:     r.inversions,
		Migrations:     r.migrations,
		Consolidations: r.consolidations,
		Preemptions:    r.preempts,
		Elapsed:        s.opts.now().Sub(start),
		WorkUnits:      r.search.explored,
	}
	r.met.placeBatch.Observe(out.Elapsed.Microseconds())
	out.Finalize(w)
	return out, nil
}

// placeOne routes one container through the paper's rescue pipeline —
// isomorphism-limiting skip, direct search, migration, defragmentation,
// preemption — and records an unplaceability proof when every step
// fails.  It is the only place the pipeline is written out.  placed
// reports whether c is deployed; victims are the containers a
// successful preemption evicted, which the caller re-queues.
func (r *run) placeOne(c *workload.Container) (victims []*workload.Container, placed bool, err error) {
	// Isomorphism limiting (Fig. 5a): a sibling of this container
	// already proved unplaceable and no capacity has been released
	// since — the search cannot succeed, skip it.
	if r.opts.IsomorphismLimiting {
		if r.search.il.skip(r.search.refOf(c)) {
			r.met.ilHits.Inc()
			return nil, false, nil
		}
		r.met.ilMisses.Inc()
	}
	gen := r.search.il.releaseGen
	if m := r.search.findMachine(c, noExclusion); m != topology.Invalid {
		if err := r.place(c, m); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	if r.opts.Migration {
		if ok, err := r.tryMigration(c); err != nil || ok {
			return nil, ok, err
		}
		if ok, err := r.tryDefrag(c); err != nil || ok {
			return nil, ok, err
		}
	}
	if r.opts.Preemption {
		if victims, ok, err := r.tryPreemption(c); err != nil || ok {
			return victims, ok, err
		}
	}
	// Every rescue step failed and rolled back exactly, so the state is
	// the one this call started from: its releases were not net
	// releases, and every IL proof recorded before the call still
	// holds.  An unplaceability proof recorded while a move cap
	// constrains the rescue pipeline would poison later unconstrained
	// searches — the failure may be the cap's, not the cluster's.
	r.search.il.releaseGen = gen
	if r.opts.IsomorphismLimiting && !r.moveCapped {
		r.search.il.note(r.search.refOf(c))
	}
	return nil, false, nil
}

// placeQueue drives a queue through placeOne in order, re-queueing
// preemption victims behind the current tail (their strictly lower
// priority bounds the recursion).  It returns the queue grown by those
// victims and the IDs left undeployed, appended to undep.  On an
// internal placement error the rest of the queue is reported
// undeployed and the error returned; containers placed before it stay
// placed.
func (r *run) placeQueue(queue []*workload.Container, undep []string) ([]*workload.Container, []string, error) {
	for i := 0; i < len(queue); i++ {
		victims, placed, err := r.placeOne(queue[i])
		if err != nil {
			for _, rest := range queue[i:] {
				undep = append(undep, rest.ID)
			}
			return queue, undep, err
		}
		if !placed {
			undep = append(undep, queue[i].ID)
			continue
		}
		queue = append(queue, victims...)
	}
	return queue, undep, nil
}

// place deploys a container on a machine, updating every view of the
// state: machine allocation, blacklist, flow network, and — via
// agg.update — the search index and rack/sub-cluster aggregates.
// Every mutation path (direct placement, migration, defragmentation,
// consolidation drains, preemption evictions, gang withdrawals)
// funnels through place/unplace, so the index can never go stale.
func (r *run) place(c *workload.Container, m topology.MachineID) error {
	machine := r.cluster.Machine(m)
	if err := machine.Allocate(c.ID, c.Demand); err != nil {
		return fmt.Errorf("core: place: %w", err)
	}
	if err := r.net.augment(c, m); err != nil {
		// Roll back the allocation to keep views consistent.
		if _, rerr := machine.Release(c.ID); rerr != nil {
			return fmt.Errorf("core: place rollback failed: %v (after %w)", rerr, err)
		}
		return err
	}
	r.blacklist.PlaceRef(m, r.search.refOf(c))
	r.asg[c.Ord] = m
	r.addResident(m, int32(c.Ord))
	r.search.noteUpdate(m)
	r.met.placements.Inc()
	r.met.placedGauge.Add(1)
	r.trc.Emit(obs.Event{Kind: obs.EvAugmentingPath, Container: c.ID, Machine: int64(m)})
	return nil
}

// addResident records the container ordinal in machine m's resident
// list, keeping it ordinal-sorted.  Lists are short (containers per
// machine), so the insertion shift beats any tree; the slice keeps its
// capacity across remove/add churn, so steady-state placement cycles
// allocate nothing.
func (r *run) addResident(m topology.MachineID, ord int32) {
	rs := r.residents[m]
	i := len(rs)
	for i > 0 && rs[i-1] > ord {
		i--
	}
	rs = append(rs, 0)
	copy(rs[i+1:], rs[i:])
	rs[i] = ord
	r.residents[m] = rs
}

// removeResident drops the container ordinal from machine m's
// resident list.
func (r *run) removeResident(m topology.MachineID, ord int32) {
	rs := r.residents[m]
	for i, o := range rs {
		if o == ord {
			copy(rs[i:], rs[i+1:])
			r.residents[m] = rs[:len(rs)-1]
			return
		}
	}
}

// unplace removes a container from its machine, reversing place.
func (r *run) unplace(c *workload.Container, m topology.MachineID) error {
	machine := r.cluster.Machine(m)
	if _, err := machine.Release(c.ID); err != nil {
		return fmt.Errorf("core: unplace: %w", err)
	}
	if err := r.net.cancel(c, m); err != nil {
		return err
	}
	r.blacklist.ReleaseRef(m, r.search.refOf(c))
	r.asg[c.Ord] = topology.Invalid
	r.removeResident(m, int32(c.Ord))
	r.search.noteUpdate(m)
	r.search.il.bump()
	r.met.placedGauge.Add(-1)
	return nil
}

// tryMigration clears anti-affinity blockage (Fig. 3b): find a
// machine where the container fits on resources but the blacklist
// blocks it, and relocate the blocking containers elsewhere.  The
// relocated containers stay deployed, so priority safety holds by
// construction.
//
//aladdin:hotpath-stop rescue path: migrations are rare and allocate for ranking/rollback by design
func (r *run) tryMigration(c *workload.Container) (bool, error) {
	if !r.met.on {
		return r.tryMigrationInner(c)
	}
	start := r.opts.now()
	ok, err := r.tryMigrationInner(c)
	r.met.migLat.Observe(r.opts.now().Sub(start).Microseconds())
	return ok, err
}

func (r *run) tryMigrationInner(c *workload.Container) (bool, error) {
	// Enumerate every machine the container fits on resource-wise,
	// then try the ones with the fewest blockers first: lightly
	// blocked machines clear cheapest, and under heavy anti-affinity
	// pressure (a large spread service arriving into a packed
	// cluster) most machines hold only one or two blockers.
	candidates := r.search.findResourceFits(c, noExclusion, 0)
	ref := r.search.refOf(c)
	type cand struct {
		m        topology.MachineID
		blockers []*workload.Container
	}
	var ranked []cand
	for _, mid := range candidates {
		if r.blacklist.AllowsRef(mid, ref) {
			// A direct path exists after all (state changed since the
			// failed search); just take it.
			return r.place(c, mid) == nil, nil
		}
		blockers := r.blockersOn(mid, c)
		if len(blockers) == 0 || len(blockers) > r.opts.maxBlockers() {
			continue
		}
		if len(blockers) > r.movesRemaining() {
			continue // over the rescue-move budget
		}
		ranked = append(ranked, cand{m: mid, blockers: blockers})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if len(ranked[i].blockers) != len(ranked[j].blockers) {
			return len(ranked[i].blockers) < len(ranked[j].blockers)
		}
		return ranked[i].m < ranked[j].m
	})
	const maxAttempts = 32
	for i, cd := range ranked {
		if i >= maxAttempts {
			break
		}
		if ok, err := r.relocate(cd.blockers, cd.m, c); err != nil {
			return false, err
		} else if ok {
			return true, nil
		}
	}
	return false, nil
}

// blockersOn lists containers on machine m whose app conflicts with c
// (pre-placed residents outside the workload carry no constraints and
// are never blockers).
func (r *run) blockersOn(m topology.MachineID, c *workload.Container) []*workload.Container {
	cs := r.w.Containers()
	var out []*workload.Container
	for _, ord := range r.residents[m] {
		other := cs[ord]
		if r.w.AntiAffine(other.App, c.App) || (other.App == c.App && r.w.AntiAffine(c.App, c.App)) {
			out = append(out, other)
		}
	}
	return out
}

// relocate moves every blocker off machine m and places c there; on
// any failure all moves are rolled back.  Each blocker's destination
// is searched for while it still sits on m: the search excludes m, and
// the blocker leaving m changes no other machine, so the answer is
// the one a search after the move would give, and a blocker with no
// home costs a rollback of the earlier moves only.  A non-nil error
// means a rollback or restore step itself failed and the scheduler
// state is corrupt (see CorruptionError).
func (r *run) relocate(blockers []*workload.Container, m topology.MachineID, c *workload.Container) (bool, error) {
	type move struct {
		c        *workload.Container
		from, to topology.MachineID
	}
	var done []move
	rollback := func() error {
		for i := len(done) - 1; i >= 0; i-- {
			mv := done[i]
			if err := r.unplace(mv.c, mv.to); err != nil {
				return r.corrupt("migration rollback unplace", err)
			}
			if err := r.place(mv.c, mv.from); err != nil {
				return r.corrupt("migration rollback replace", err)
			}
		}
		return nil
	}
	for _, b := range blockers {
		dest := r.search.findMachine(b, exclusion{machine: m})
		if dest == topology.Invalid {
			return false, rollback() // abandon this machine
		}
		if err := r.unplace(b, m); err != nil {
			return false, rollback()
		}
		if err := r.place(b, dest); err != nil {
			if perr := r.place(b, m); perr != nil {
				return false, r.corrupt("migration restore blocker after failed move", perr)
			}
			return false, rollback()
		}
		done = append(done, move{c: b, from: m, to: dest})
	}
	if !r.blacklist.AllowsRef(m, r.search.refOf(c)) || !r.cluster.Machine(m).Fits(c.Demand) {
		return false, rollback()
	}
	if err := r.place(c, m); err != nil {
		return false, rollback()
	}
	r.migrations += len(done)
	r.met.migrations.Add(int64(len(done)))
	for _, mv := range done {
		r.trc.Emit(obs.Event{Kind: obs.EvMigrate, Container: c.ID, Victim: mv.c.ID, Machine: int64(mv.to), Detail: "migration"})
	}
	return true, nil
}

// enforceGangs applies all-or-nothing application semantics: every
// placed container whose application has at least one undeployed
// sibling is withdrawn and added to the undeployed set.
func (r *run) enforceGangs(undeployed []string) ([]string, error) {
	broken := make(map[string]bool)
	for _, id := range undeployed {
		if c := r.byID[id]; c != nil {
			broken[c.App] = true
		}
	}
	if len(broken) == 0 {
		return undeployed, nil
	}
	for _, c := range r.w.Containers() {
		if !broken[c.App] {
			continue
		}
		m := r.asg[c.Ord]
		if m == topology.Invalid {
			continue
		}
		if err := r.unplace(c, m); err != nil {
			return nil, r.corrupt("gang rollback", err)
		}
		undeployed = append(undeployed, c.ID)
	}
	return undeployed, nil
}

// consolidate empties lightly-loaded machines by migrating every
// container they host into existing used machines.  A machine is only
// drained when every container relocates successfully; otherwise the
// drain rolls back.  Consolidation never opens an empty machine, so
// each successful drain strictly reduces the used-machine count.
func (r *run) consolidate() error {
	_, _, err := r.consolidateBudget(0)
	return err
}

// consolidateBudget is consolidate with a per-call move cap: at most
// budget containers relocate (0 = unlimited).  A drain is
// all-or-nothing, so a machine is attempted only when its entire
// resident set fits inside the remaining budget; machines skipped for
// budget set more=true so the caller can resume with a later call.
// Drains are deterministic in cluster state, so a resumed call
// re-ranks the surviving machines and picks up where this one
// stopped.  more may be conservatively true (a skipped machine could
// turn out undrainable), never falsely false.
func (r *run) consolidateBudget(budget int) (moves int, more bool, err error) {
	// Drains are deterministic in cluster/blacklist/flow state, and a
	// failed drain rolls back exactly, so state advances only when a
	// drain succeeds.  epoch counts successes; a machine whose drain
	// failed at the current epoch would fail identically if retried,
	// so later passes skip it until some drain lands.  For the same
	// reason a failed drain's releases are not net releases: the IL
	// generation rewinds past them, keeping earlier proofs alive.
	epoch := 0
	failedAt := make(map[topology.MachineID]int)
	memo := make(map[drainKey]topology.MachineID)
	for pass := 0; pass < 2; pass++ {
		// Lightest machines first: cheapest to drain.
		type lm struct {
			m    topology.MachineID
			used int64
		}
		var light []lm
		for _, m := range r.cluster.Machines() {
			if m.NumContainers() == 0 {
				continue
			}
			// A down machine mid-eviction is the failure path's to
			// empty; draining it here would make rollback (re-placing
			// onto the down machine) impossible.
			if !m.Up() {
				continue
			}
			light = append(light, lm{m: m.ID, used: m.Used().Dim(resource.CPU)})
		}
		sort.Slice(light, func(i, j int) bool {
			if light[i].used != light[j].used {
				return light[i].used < light[j].used
			}
			return light[i].m < light[j].m
		})
		drained := false
		for _, cand := range light {
			if e, ok := failedAt[cand.m]; ok && e == epoch {
				continue
			}
			n := r.cluster.Machine(cand.m).NumContainers()
			if budget > 0 && moves+n > budget {
				// Signal More only when the drain could plausibly land:
				// without this check a fully-consolidated cluster whose
				// last machine exceeds the budget would report pending
				// work forever, spinning any resume loop built on More.
				if r.drainCouldFit(cand.m) {
					more = true
				}
				continue
			}
			// The memo shares feasibility prechecks across attempts: it
			// too stays valid until the next successful drain.
			gen := r.search.il.releaseGen
			if ok, derr := r.drain(cand.m, memo); derr != nil {
				return moves, more, derr
			} else if ok {
				moves += n
				drained = true
				epoch++
				clear(memo)
			} else {
				failedAt[cand.m] = epoch
				r.search.il.releaseGen = gen
			}
		}
		if !drained {
			return moves, more, nil
		}
	}
	return moves, more, nil
}

// drainCouldFit is the budget-skip analogue of drain's feasibility
// precheck: residents can only relocate onto other used machines
// (consolidation never opens an empty one), so when their combined
// demand exceeds the free capacity there, the drain is infeasible
// whatever the budget and the skip must not promise future work.
func (r *run) drainCouldFit(m topology.MachineID) bool {
	used := r.cluster.Machine(m).Used()
	var free resource.Vector
	for _, o := range r.cluster.Machines() {
		if o.ID == m || !o.Up() || o.NumContainers() == 0 {
			continue
		}
		free = free.Add(o.Free())
	}
	return used.Fits(free)
}

// drainKey classifies a resident for the drain feasibility precheck:
// two containers of the same app with the same demand see identical
// search outcomes, so one lookup answers for the whole class.
type drainKey struct {
	app    int
	demand resource.Vector
}

// drain attempts to move every container off machine m into other
// used machines; returns whether the machine was emptied.  A non-nil
// error means a rollback or restore step itself failed and the
// scheduler state is corrupt.
func (r *run) drain(m topology.MachineID, memo map[drainKey]topology.MachineID) (bool, error) {
	machine := r.cluster.Machine(m)
	all := r.w.Containers()
	if machine.NumContainers() != len(r.residents[m]) {
		return false, nil // unknown residents present: not movable
	}
	cs := make([]*workload.Container, 0, len(r.residents[m]))
	for _, ord := range r.residents[m] {
		cs = append(cs, all[ord])
	}
	if len(cs) == 0 {
		return false, nil
	}
	// Exact feasibility precheck.  Moves within a drain only shrink
	// free space and grow blacklists on candidate destinations (m
	// itself is excluded and skipEmpty freezes the used-machine set),
	// so a resident with no feasible destination now cannot gain one
	// mid-drain.  Bailing out here skips the move+rollback churn for
	// machines that can never be emptied — the common case once the
	// cluster is packed.  The memo caches the unexcluded search per
	// (app, demand) class: a destination other than m itself proves
	// feasibility for this drain too, and an Invalid result rules the
	// class out everywhere until the next successful drain.
	for _, c := range cs {
		key := drainKey{app: int(r.search.refOf(c)), demand: c.Demand}
		dest, ok := memo[key]
		if !ok {
			dest = r.search.findMachine(c, exclusion{skipEmpty: true})
			memo[key] = dest
		}
		if dest == topology.Invalid {
			return false, nil
		}
		if dest == m {
			// The memoised destination is the machine being drained;
			// only an exact per-machine search can settle this class.
			if r.search.findMachine(c, exclusion{machine: m, skipEmpty: true}) == topology.Invalid {
				return false, nil
			}
		}
	}
	// Every search below excludes m, and each move (and any rollback)
	// mutates it, so batch m's per-move index pull chains into a
	// single final write (no-op in eager modes; see
	// searcher.deferUpdates for the monotonicity argument).
	r.search.deferUpdates(m)
	defer r.search.resumeUpdates()
	type move struct {
		c  *workload.Container
		to topology.MachineID
	}
	var done []move
	rollback := func() error {
		for i := len(done) - 1; i >= 0; i-- {
			mv := done[i]
			if err := r.unplace(mv.c, mv.to); err != nil {
				return r.corrupt("drain rollback unplace", err)
			}
			if err := r.place(mv.c, m); err != nil {
				return r.corrupt("drain rollback replace", err)
			}
		}
		return nil
	}
	for _, c := range cs {
		// Searched before the move, as in relocate: m is excluded, so
		// c still sitting on it changes no answer.
		dest := r.search.findMachine(c, exclusion{machine: m, skipEmpty: true})
		if dest == topology.Invalid {
			return false, rollback()
		}
		if err := r.unplace(c, m); err != nil {
			return false, rollback()
		}
		if err := r.place(c, dest); err != nil {
			if perr := r.place(c, m); perr != nil {
				return false, r.corrupt("drain restore after failed move", perr)
			}
			return false, rollback()
		}
		done = append(done, move{c: c, to: dest})
	}
	r.consolidations += len(done)
	r.met.consolidations.Add(int64(len(done)))
	for _, mv := range done {
		r.trc.Emit(obs.Event{Kind: obs.EvMigrate, Victim: mv.c.ID, Machine: int64(mv.to), Detail: "drain"})
	}
	return true, nil
}

// tryDefrag clears resource fragmentation (Fig. 7): when a container
// fits no machine's free space but does fit some machine's capacity,
// migrate the smallest containers off such a machine until the
// demand fits.  This is the "rescheduling incurs a cost ... bound to
// the worst complexity" mechanism of §IV.D.  Its latency lands in the
// migration histogram: defragmentation is the same relocate-to-admit
// rescue, differing only in what blocks the claimant.
//
//aladdin:hotpath-stop rescue path: defragmentation is rare and allocates its mover list and rollback log by design
func (r *run) tryDefrag(c *workload.Container) (bool, error) {
	if !r.met.on {
		return r.tryDefragInner(c)
	}
	start := r.opts.now()
	ok, err := r.tryDefragInner(c)
	r.met.migLat.Observe(r.opts.now().Sub(start).Microseconds())
	return ok, err
}

func (r *run) tryDefragInner(c *workload.Container) (bool, error) {
	type target struct {
		m    topology.MachineID
		free int64
	}
	// Keep the 16 best machines that could hold c once cleared, most
	// free space first (fewest containers to move).  Machines arrive in
	// ascending ID order, so a newcomer outranks a kept entry only on
	// strictly more free CPU, and one that cannot enter a full list is
	// dropped before its blacklist probe.
	ref := r.search.refOf(c)
	var top [16]target
	n := 0
	for _, m := range r.cluster.Machines() {
		if !m.Up() || !c.Demand.Fits(m.Capacity()) {
			continue
		}
		free := m.Free().Dim(resource.CPU)
		if n == len(top) && free <= top[n-1].free {
			continue
		}
		if !r.blacklist.AllowsRef(m.ID, ref) {
			continue
		}
		if n < len(top) {
			n++
		}
		i := n - 1
		for ; i > 0 && top[i-1].free < free; i-- {
			top[i] = top[i-1]
		}
		top[i] = target{m: m.ID, free: free}
	}
	for _, tg := range top[:n] {
		if ok, err := r.defragInto(tg.m, c, ref); err != nil {
			return false, err
		} else if ok {
			return true, nil
		}
	}
	return false, nil
}

// defragInto moves the smallest containers off machine m until c
// fits, then places c; everything rolls back on failure.  As in
// relocate, a mover's destination is searched for before it leaves m,
// so a mover with no home is skipped without touching any state.  ref
// is c's app ref.  A non-nil error means a rollback or restore step
// itself failed and the scheduler state is corrupt.
func (r *run) defragInto(m topology.MachineID, c *workload.Container, ref constraint.AppRef) (bool, error) {
	machine := r.cluster.Machine(m)
	// Choose movers: smallest CPU first, skip nothing else — the
	// relocation search enforces their constraints at the new homes.
	// Unknown pre-placed residents are simply immovable furniture.
	all := r.w.Containers()
	var movers []*workload.Container
	for _, ord := range r.residents[m] {
		movers = append(movers, all[ord])
	}
	sort.Slice(movers, func(i, j int) bool {
		di, dj := movers[i].Demand.Dim(resource.CPU), movers[j].Demand.Dim(resource.CPU)
		if di != dj {
			return di < dj
		}
		return movers[i].ID < movers[j].ID
	})
	type move struct {
		c        *workload.Container
		from, to topology.MachineID
	}
	var done []move
	rollback := func() error {
		for i := len(done) - 1; i >= 0; i-- {
			mv := done[i]
			if err := r.unplace(mv.c, mv.to); err != nil {
				return r.corrupt("defrag rollback unplace", err)
			}
			if err := r.place(mv.c, mv.from); err != nil {
				return r.corrupt("defrag rollback replace", err)
			}
		}
		return nil
	}
	maxMoves := 4
	if rem := r.movesRemaining(); rem < maxMoves {
		maxMoves = rem // rescue-move budget binds tighter
	}
	for _, mv := range movers {
		if c.Demand.Fits(machine.Free()) {
			break
		}
		if len(done) >= maxMoves {
			break
		}
		dest := r.search.findMachine(mv, exclusion{machine: m})
		if dest == topology.Invalid {
			continue // try the next mover
		}
		if err := r.unplace(mv, m); err != nil {
			return false, rollback()
		}
		if err := r.place(mv, dest); err != nil {
			if perr := r.place(mv, m); perr != nil {
				return false, r.corrupt("defrag restore after failed move", perr)
			}
			continue
		}
		done = append(done, move{c: mv, from: m, to: dest})
	}
	if !c.Demand.Fits(machine.Free()) || !r.blacklist.AllowsRef(m, ref) {
		return false, rollback()
	}
	if err := r.place(c, m); err != nil {
		return false, rollback()
	}
	r.migrations += len(done)
	r.met.migrations.Add(int64(len(done)))
	for _, mv := range done {
		r.trc.Emit(obs.Event{Kind: obs.EvMigrate, Container: c.ID, Victim: mv.c.ID, Machine: int64(mv.to), Detail: "defrag"})
	}
	return true, nil
}

// tryPreemption evicts strictly-lower-priority containers to free
// resources for c (§III.B: weighted flows mean a high-priority
// container's placement dominates; the evicted victims re-queue).
// Returns the victims to requeue and whether preemption succeeded; a
// non-nil error means an eviction or restore step failed and the
// scheduler state is corrupt.
//
//aladdin:hotpath-stop rescue path: preemption is rare and allocates its victim sets by design
func (r *run) tryPreemption(c *workload.Container) ([]*workload.Container, bool, error) {
	if !r.met.on {
		return r.tryPreemptionInner(c)
	}
	start := r.opts.now()
	victims, ok, err := r.tryPreemptionInner(c)
	r.met.preLat.Observe(r.opts.now().Sub(start).Microseconds())
	return victims, ok, err
}

func (r *run) tryPreemptionInner(c *workload.Container) ([]*workload.Container, bool, error) {
	if !r.opts.DisableWeights && c.Priority <= workload.PriorityLow {
		return nil, false, nil
	}
	ref := r.search.refOf(c)
	for _, gname := range r.cluster.SubClusters() {
		for _, rname := range r.cluster.SubCluster(gname).Racks {
			for _, mid := range r.cluster.Rack(rname).Machines {
				machine := r.cluster.Machine(mid)
				if !machine.Up() {
					continue
				}
				if !c.Demand.Fits(machine.Capacity()) {
					continue
				}
				if !r.blacklist.AllowsRef(mid, ref) {
					continue
				}
				victims := r.pickVictims(mid, c)
				if victims == nil {
					continue
				}
				// Evict victims that have requeue budget left.
				for _, v := range victims {
					if r.requeues[v.Ord] >= r.opts.maxRequeues() {
						victims = nil
						break
					}
				}
				if victims == nil {
					continue
				}
				if len(victims) > r.movesRemaining() {
					continue // over the rescue-move budget
				}
				for _, v := range victims {
					if err := r.unplace(v, mid); err != nil {
						return nil, false, r.corrupt("preemption evict", err)
					}
				}
				if err := r.place(c, mid); err != nil {
					// Should not happen: we just freed enough.  The
					// eviction bookkeeping below has not run yet, so
					// re-placing the victims restores the state exactly.
					for _, v := range victims {
						if perr := r.place(v, mid); perr != nil {
							return nil, false, r.corrupt("preemption restore victim", perr)
						}
					}
					return nil, false, nil
				}
				for _, v := range victims {
					r.preemptLog = append(r.preemptLog, preemptEvent{claimant: c, victim: v, machine: mid})
					r.requeues[v.Ord]++
					if v.Priority >= c.Priority {
						// Only reachable with DisableWeights: a
						// priority inversion the weighted flow would
						// have prevented.
						r.inversions = append(r.inversions, constraint.Violation{
							Kind: constraint.PriorityInversion, Machine: mid,
							ContainerA: c.ID, ContainerB: v.ID,
						})
					}
				}
				r.preempts += len(victims)
				r.met.preemptions.Add(int64(len(victims)))
				for _, v := range victims {
					r.trc.Emit(obs.Event{Kind: obs.EvPreempt, Container: c.ID, Victim: v.ID, Machine: int64(mid)})
				}
				return victims, true, nil
			}
		}
	}
	return nil, false, nil
}

// pickVictims chooses the smallest set of strictly-lower-priority
// containers on machine m whose eviction makes c fit, or nil when no
// such set exists.  Victims must also not be blacklist-relevant in a
// way that would keep c blocked (the blacklist check already passed,
// so only resources matter here).
func (r *run) pickVictims(m topology.MachineID, c *workload.Container) []*workload.Container {
	machine := r.cluster.Machine(m)
	free := machine.Free()
	if c.Demand.Fits(free) {
		// No preemption needed; caller's direct search should have
		// found it, but state may have changed.
		return []*workload.Container{}
	}
	var lower []*workload.Container
	cs := r.w.Containers()
	for _, ord := range r.residents[m] {
		other := cs[ord]
		// The weighted flow w_k·f (Equation 9) decides who may evict
		// whom: a container may only displace one with strictly
		// smaller weighted flow.  With a verified ladder this is
		// exactly "strictly lower priority"; the DisableWeights
		// ablation compares raw flows and so permits inversions.
		if r.evictable(other, c) {
			lower = append(lower, other)
		}
	}
	// Evict lowest priority first, largest demand first within a
	// class, until c fits.
	sortVictims(lower)
	var chosen []*workload.Container
	for _, v := range lower {
		free = free.Add(v.Demand)
		chosen = append(chosen, v)
		if c.Demand.Fits(free) {
			return chosen
		}
	}
	return nil
}

// evictable reports whether victim may be displaced by claimant under
// the flow-weighting rule.
func (r *run) evictable(victim, claimant *workload.Container) bool {
	if r.opts.DisableWeights {
		// Unweighted flows: a bigger raw flow wins regardless of
		// priority — the broken behaviour of Fig. 3a.
		return flowUnits(victim) < flowUnits(claimant)
	}
	return r.ladder.WeightedFlow(victim) < r.ladder.WeightedFlow(claimant) &&
		victim.Priority < claimant.Priority
}

func sortVictims(vs []*workload.Container) {
	// Insertion sort: victim lists are tiny.
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0; j-- {
			a, b := vs[j-1], vs[j]
			if a.Priority < b.Priority {
				break
			}
			if a.Priority == b.Priority && !b.Demand.Dominates(a.Demand) {
				break
			}
			vs[j-1], vs[j] = b, a
		}
	}
}
