package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// minPasses is the least number of passes of each kind a pack run
// makes whatever --seconds says, so its medians have material.
const minPasses = 3

// packSession is the part of core.Session and core.ShardedSession a
// pack pass calls.
type packSession interface {
	Place([]*workload.Container) (*sched.Result, error)
	Consolidate() (int, error)
	Assignment() constraint.Assignment
	AuditInvariants() []core.AuditViolation
	FlowConservation() error
}

// packInput is the fixed input of every pass of one run.
type packInput struct {
	sp       spec
	w        *workload.Workload
	arrivals []*workload.Container
	byID     map[string]*workload.Container
}

// passOut is what one pass measured.
type passOut struct {
	setup, window time.Duration
	deployed      int
	machinesUsed  int
	rt            rtDelta
	heapMB        float64
	digest        string

	// Counts from the Results, identical on every pass of a run.
	explored, migrations, preemptions float64
	retryAttempted, retryRecovered    float64
	consolidateMoves                  float64
	// criticalPath is the core's own Elapsed summed over the two Place
	// calls: wall clock for a plain session, the modelled critical
	// path for a sharded one.
	criticalPath time.Duration

	// Traced passes only.
	self  map[string]time.Duration
	phase obsPhases
}

// runPack measures pack passes until the run's time is up.  Each pass
// builds a fresh cluster and session, schedules the whole trace in
// submission order, and checks the outcome.  In a traced run every
// other pass is traced, so the run gives both the per-layer split and
// the untraced window it must add up to.
func runPack(sp spec, cfg runConfig, notes map[string]string) (measurement, error) {
	var ms measurement
	w, err := loadTrace(sp, cfg.TraceSeed, cfg.Seed)
	if err != nil {
		return ms, err
	}
	in := packInput{sp: sp, w: w, arrivals: w.Arrange(workload.OrderSubmission)}
	in.byID = make(map[string]*workload.Container, len(in.arrivals))
	for _, c := range in.arrivals {
		in.byID[c.ID] = c
	}
	origin := time.Now()
	deadline := origin.Add(cfg.Duration)
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder(origin, 0)
	}
	var plain, traced []passOut
	for i := 0; ; i++ {
		tr := cfg.Traced && i%2 == 1
		var r *recorder
		if tr {
			r = rec
		}
		p, gateErr, err := packPass(in, r, int64(i+1))
		if err != nil {
			return ms, err
		}
		ms.attempted++
		if gateErr == nil && len(plain) > 0 && p.digest != plain[0].digest {
			gateErr = fmt.Errorf("placement digest %s differs from the run's first pass %s", p.digest, plain[0].digest)
		}
		if gateErr != nil {
			ms.failed++
			ms.gateErr = fmt.Errorf("pass %d: %w", i+1, gateErr)
			return ms, nil
		}
		if tr {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		enough := len(plain) >= minPasses && (!cfg.Traced || len(traced) >= minPasses)
		if enough && time.Now().After(deadline) {
			break
		}
	}
	if rec != nil {
		ms.spans = rec.spans
	}

	n := float64(len(in.arrivals))
	last := plain[len(plain)-1]
	notes["containers"] = strconv.Itoa(len(in.arrivals))
	notes["machines"] = strconv.Itoa(sp.Machines)
	notes["passes"] = fmt.Sprintf("%d untraced, %d traced", len(plain), len(traced))
	notes["placement_digest"] = last.digest
	notes["undeployed"] = strconv.Itoa(len(in.arrivals) - last.deployed)
	notes["model_critical_path_s"] = fmt.Sprintf("%.6f (core-reported Place elapsed: the modelled critical path when sharded; a model, not a measurement)", median(pick(plain, func(p passOut) float64 { return seconds(p.criticalPath) })))

	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	window := median(pick(plain, func(p passOut) float64 { return seconds(p.window) }))
	v["setup_s"] = median(pick(plain, func(p passOut) float64 { return seconds(p.setup) }))
	v["schedule_ns_per_container"] = window * 1e9 / n
	v["deployed_frac"] = float64(last.deployed) / n
	v["undeployed_frac"] = 1 - v["deployed_frac"]
	v["machines_used"] = float64(last.machinesUsed)
	v["alloc_bytes_per_container"] = median(pick(plain, func(p passOut) float64 { return p.rt.allocBytes })) / n
	v["heap_mb"] = median(pick(plain, func(p passOut) float64 { return p.heapMB }))

	v["go.gc_cycles"] = median(pick(plain, func(p passOut) float64 { return p.rt.gcCycles }))
	v["go.gc_pause_s"] = median(pick(plain, func(p passOut) float64 { return p.rt.gcPause }))
	v["go.gc_cpu_s"] = median(pick(plain, func(p passOut) float64 { return p.rt.gcCPU }))
	v["go.sched_latency_p99_us"] = median(pick(plain, func(p passOut) float64 { return p.rt.schedP99 })) * 1e6

	v["core.place_explored_per_container"] = last.explored / n
	v["core.place_migrations"] = last.migrations
	v["core.place_preemptions"] = last.preemptions
	v["core.retry_attempted"] = last.retryAttempted
	v["core.retry_recovered"] = last.retryRecovered
	v["core.consolidate_moves"] = last.consolidateMoves

	if cfg.Traced {
		selfMed := func(name string) float64 {
			return median(pick(traced, func(p passOut) float64 { return seconds(p.self[name]) }))
		}
		v["topology.new_s"] = selfMed("topology.new")
		v["core.new_session_s"] = selfMed("core.new_session")
		v["core.place_s"] = selfMed("core.place")
		v["core.retry_s"] = selfMed("core.retry")
		v["core.consolidate_s"] = selfMed("core.consolidate")
		v["core.assignment_s"] = selfMed("core.assignment")
		v["sched.finalize_s"] = selfMed("sched.finalize")
		v["check.verify_s"] = selfMed("check.verify")
		v["check.audit_s"] = selfMed("check.audit")
		v["core.shard_critical_path_s"] = median(pick(traced, func(p passOut) float64 { return seconds(p.criticalPath) }))
		v["core.search_s"] = median(pick(traced, func(p passOut) float64 { return seconds(p.phase.search) }))
		v["core.migration_s"] = median(pick(traced, func(p passOut) float64 { return seconds(p.phase.migration) }))
		v["core.preemption_s"] = median(pick(traced, func(p passOut) float64 { return seconds(p.phase.preemption) }))
		v["core.il_hit_ratio"] = median(pick(traced, func(p passOut) float64 { return p.phase.ilRatio() }))
		v["core.dl_cutoffs"] = median(pick(traced, func(p passOut) float64 { return p.phase.dlCutoffs }))
		tracedWindow := median(pick(traced, func(p passOut) float64 { return seconds(p.window) }))
		v["trace.overhead_s"] = tracedWindow - window
		// The window's self times partition the traced window, so
		// their sum over the untraced window is the closure.
		v["trace.closure_frac"] = median(pick(traced, func(p passOut) float64 { return seconds(windowSelf(p.self)) })) / window
	}
	ms.values = v
	ms.samples = map[string][]float64{
		"setup_s":  pick(plain, func(p passOut) float64 { return seconds(p.setup) }),
		"window_s": pick(plain, func(p passOut) float64 { return seconds(p.window) }),
	}
	return ms, nil
}

// windowSpans are the spans inside the schedule window; "window"
// itself holds the benchmark's glue between the calls.
var windowSpans = []string{"window", "core.place", "core.consolidate", "core.retry", "core.assignment", "sched.finalize"}

func windowSelf(self map[string]time.Duration) time.Duration {
	var sum time.Duration
	for _, n := range windowSpans {
		sum += self[n]
	}
	return sum
}

func pick(ps []passOut, f func(passOut) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// packPass runs one pass: setup, the schedule window, then the checks.
// A traced pass (non-nil rec) also attaches a metrics registry and the
// fine clock to the session.  The gate error reports a wrong output;
// the plain error a failure to run.
func packPass(in packInput, rec *recorder, req int64) (p passOut, gateErr, err error) {
	sp := in.sp
	opts := core.DefaultOptions()
	opts.Shards = sp.Shards
	var reg *obs.Registry
	if rec != nil {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		opts.Clock = fineClock()
	}
	runtime.GC()

	root := rec.start("pass", 0, req)
	t0 := time.Now()
	su := rec.start("setup", root, req)
	s := rec.start("topology.new", su, req)
	cl := topology.New(topology.AlibabaConfig(sp.Machines))
	rec.end(s)
	s = rec.start("core.new_session", su, req)
	var (
		sess    packSession
		sharded *core.ShardedSession
	)
	if sp.Shards > 1 {
		if sharded, err = core.NewSharded(opts, in.w, cl); err != nil {
			return p, nil, err
		}
		sess = sharded
	} else {
		sess = core.NewSession(opts, in.w, cl)
	}
	rec.end(s)
	rec.end(su)
	p.setup = time.Since(t0)

	runtime.GC()
	rt0 := readRuntime()
	win := rec.start("window", root, req)
	w0 := time.Now()
	final, err := scheduleWindow(in, sess, rec, win, req, &p)
	p.window = time.Since(w0)
	rec.end(win)
	rt1 := readRuntime()
	if err != nil {
		return p, nil, err
	}
	p.rt = rt0.to(rt1)
	p.heapMB = liveHeapMB()
	p.deployed = len(final.Assignment)
	p.digest = digest(in.w, final.Assignment)
	p.machinesUsed = cl.UsedMachines()
	view := cl
	if sharded != nil {
		p.machinesUsed = 0
		for _, sc := range sharded.ShardClusters() {
			p.machinesUsed += sc.UsedMachines()
		}
	}

	ck := rec.start("check", root, req)
	s = rec.start("check.verify", ck, req)
	if sharded != nil {
		if view, err = mergeShards(cl, sharded.ShardClusters()); err != nil {
			gateErr = err
		}
	}
	if gateErr == nil {
		gateErr = checkResult(in, final, view)
	}
	rec.end(s)
	s = rec.start("check.audit", ck, req)
	if gateErr == nil {
		gateErr = checkSession(sess)
	}
	rec.end(s)
	rec.end(ck)
	rec.end(root)

	if rec != nil {
		p.self = selfTimes(subtree(rec.spans, rec.track, root))
		p.phase = readPhases(reg)
		p.criticalPath /= clockScale
	}
	return p, gateErr, nil
}

// scheduleWindow is the timed window: Place the trace, Consolidate,
// retry Place of what stayed undeployed, read the Assignment and
// finalize a sched.Result, mirroring what core.Scheduler.Schedule does
// inside one call.
func scheduleWindow(in packInput, sess packSession, rec *recorder, win int32, req int64, p *passOut) (*sched.Result, error) {
	s := rec.start("core.place", win, req)
	res, err := sess.Place(in.arrivals)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	// The Result is only valid until the next Place call.
	undeployed := append([]string(nil), res.Undeployed...)
	p.explored = float64(res.WorkUnits)
	p.migrations = float64(res.Migrations)
	p.preemptions = float64(res.Preemptions)
	p.criticalPath = res.Elapsed

	s = rec.start("core.consolidate", win, req)
	moves, err := sess.Consolidate()
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("consolidate: %w", err)
	}
	p.consolidateMoves = float64(moves)

	s = rec.start("core.retry", win, req)
	retry := make([]*workload.Container, len(undeployed))
	for i, id := range undeployed {
		retry[i] = in.byID[id]
	}
	res, err = sess.Place(retry)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("retry place: %w", err)
	}
	still := append([]string(nil), res.Undeployed...)
	p.retryAttempted = float64(len(retry))
	p.retryRecovered = float64(len(retry) - len(still))
	p.criticalPath += res.Elapsed

	s = rec.start("core.assignment", win, req)
	asg := sess.Assignment()
	rec.end(s)

	s = rec.start("sched.finalize", win, req)
	final := &sched.Result{
		Assignment:     asg,
		Undeployed:     still,
		Migrations:     int(p.migrations) + res.Migrations,
		Consolidations: moves,
		Preemptions:    int(p.preemptions) + res.Preemptions,
	}
	final.Finalize(in.w)
	rec.end(s)
	return final, nil
}

// checkResult is the gate on a finalized Result: it agrees with the
// cluster (every assigned container hosted where the Result says, no
// machine over capacity, deployed + undeployed = submitted), and the
// audit in Finalize found no anti-affinity violation or priority
// inversion.
func checkResult(in packInput, res *sched.Result, cluster *topology.Cluster) error {
	if err := res.Verify(in.w, cluster); err != nil {
		return err
	}
	if got := len(res.Assignment) + len(res.Undeployed); got != len(in.arrivals) {
		return fmt.Errorf("%d deployed + %d undeployed != %d submitted", len(res.Assignment), len(res.Undeployed), len(in.arrivals))
	}
	if vs := res.ViolationSummary(); vs.Total() != 0 {
		return fmt.Errorf("finalized result has %d anti-affinity violations and %d priority inversions", vs.Within+vs.Across, vs.Inversions)
	}
	return nil
}

// checkSession is the gate on the live session: the invariant auditor
// and flow conservation are clean.
func checkSession(sess packSession) error {
	if vs := sess.AuditInvariants(); len(vs) != 0 {
		return fmt.Errorf("%d invariant violations, first: %s", len(vs), vs[0])
	}
	if err := sess.FlowConservation(); err != nil {
		return fmt.Errorf("flow conservation: %w", err)
	}
	return nil
}

// mergeShards rebuilds the whole cluster from the sharded session's
// per-shard copies, so a Result in global machine ids can be verified
// against the machines that really hold the containers.
func mergeShards(parent *topology.Cluster, shards []*topology.Cluster) (*topology.Cluster, error) {
	merged, err := topology.FromSpecs(parent.Specs())
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*topology.Machine, merged.Size())
	for _, m := range merged.Machines() {
		byName[m.Name] = m
	}
	for _, sc := range shards {
		for _, m := range sc.Machines() {
			dst := byName[m.Name]
			if dst == nil {
				return nil, fmt.Errorf("shard machine %s not in the cluster", m.Name)
			}
			for id, demand := range m.Allocations() {
				if err := dst.Allocate(id, demand); err != nil {
					return nil, err
				}
			}
		}
	}
	return merged, nil
}

// digest hashes the placement as (container ordinal, machine) pairs in
// ordinal order, so it does not depend on container names.
func digest(w *workload.Workload, asg constraint.Assignment) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range w.Containers() {
		m, ok := asg[c.ID]
		if !ok {
			m = topology.Invalid
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(m)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// obsPhases are the core's own phase totals, read from the metrics
// registry a traced session records into.
type obsPhases struct {
	search, migration, preemption time.Duration
	ilHits, ilLookups, dlCutoffs  float64
}

func readPhases(reg *obs.Registry) obsPhases {
	var ph obsPhases
	snap := reg.Snapshot()
	for key, h := range snap.Histograms {
		// Observations are microseconds of the fine clock: nanoseconds.
		d := time.Duration(h.Sum)
		switch family(key) {
		case "aladdin_search_duration_us":
			ph.search += d
		case "aladdin_migration_duration_us":
			ph.migration += d
		case "aladdin_preemption_duration_us":
			ph.preemption += d
		}
	}
	for key, c := range snap.Counters {
		switch family(key) {
		case "aladdin_il_cache_hits_total":
			ph.ilHits += float64(c)
			ph.ilLookups += float64(c)
		case "aladdin_il_cache_misses_total":
			ph.ilLookups += float64(c)
		case "aladdin_dl_cutoffs_total":
			ph.dlCutoffs += float64(c)
		}
	}
	return ph
}

// ilRatio is the share of IL cache lookups that skipped a search.
func (ph obsPhases) ilRatio() float64 {
	if ph.ilLookups == 0 {
		return 0
	}
	return ph.ilHits / ph.ilLookups
}

// family strips the label set from a snapshot key.
func family(key string) string {
	name, _, _ := strings.Cut(key, "{")
	return name
}
