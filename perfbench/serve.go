package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/sched"
	"aladdin/internal/server"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Serve-churn's request mix.  Its clock is the client's arrivals (one
// application per POST /place), the unit in which the repository's
// online simulation (internal/sim) and its experiments set their rates;
// README.md gives the derivation of each.
const (
	secondTenant = "blue"
	setupReps    = 31
	// A machine fails every mtbfArrivals arrivals and is recovered
	// mttrArrivals later: the availability experiment's MTBF of 30 and
	// its MTTR of 10 interarrivals (internal/experiments/availability.go).
	mtbfArrivals = 30
	mttrArrivals = 10
	// A rebalancing cycle with a budget of rebalanceBudget moves runs
	// every rebalanceArrivals arrivals, as in the simulation's rebalancer
	// tests (internal/sim/rebalance_test.go).
	rebalanceArrivals = 2
	rebalanceBudget   = 8
	// roundTime is about how long one round of serve-churn takes on the
	// reference host; a run measures one round per roundTime of the
	// requested duration, and at least one.
	roundTime = time.Second
)

type route int

const (
	routePlace route = iota
	routeRemove
	routeFail
	routeRecover
	routeRebalance
	routeAssignments
	routeHealth
	numRoutes
)

var routeNames = [numRoutes]string{"place", "remove", "fail", "recover", "rebalance", "assignments", "healthz"}

// Container states in a client's ledger.
const (
	absent uint8 = iota
	placed
	stranded
)

// runServe drives serve-churn.  An untraced phase gives the end-to-end
// metrics; in a traced run a second, traced phase of the same length on
// a fresh server gives the per-layer split, and the difference between
// the phases is the tracing overhead.
func runServe(sp spec, cfg runConfig, notes map[string]string) (measurement, error) {
	var ms measurement
	w, err := loadTrace(sp, cfg.TraceSeed, cfg.Seed)
	if err != nil {
		return ms, err
	}
	phase := cfg.Duration
	if cfg.Traced {
		phase /= 2
	}
	plain, err := servePhase(sp, w, cfg.Seed, phase, false)
	if err != nil {
		return ms, err
	}
	ms.attempted, ms.failed, ms.gateErr = plain.attempted, plain.failed, plain.gateErr
	var tr *phaseOut
	if cfg.Traced && ms.gateErr == nil {
		if tr, err = servePhase(sp, w, cfg.Seed, phase, true); err != nil {
			return ms, err
		}
		ms.attempted += tr.attempted
		ms.failed += tr.failed
		ms.gateErr = tr.gateErr
		ms.spans = tr.spans
	}
	if ms.gateErr != nil {
		return ms, nil
	}

	notes["containers"] = strconv.Itoa(w.NumContainers())
	notes["apps"] = strconv.Itoa(w.NumApps())
	notes["machines"] = fmt.Sprintf("%d per tenant, 2 tenants", sp.Machines)
	notes["clients"] = "2 closed-loop, one per tenant, taking turns from one goroutine, each posting one round of its half of the applications per round"
	notes["rounds"] = fmt.Sprintf("%d in %.1f s; /place ns per container by round: %s", len(plain.rounds), plain.wall.Seconds(), formatRounds(plain.rounds))
	notes["schedule_ns_per_container_total"] = fmt.Sprintf("%.0f (all rounds pooled)", float64(sum(plain.lat[routePlace]))/float64(plain.posted))
	notes["window"] = fmt.Sprintf("%d applications per client, %v containers", sp.LiveApps, plain.windows)
	notes["resyncs"] = fmt.Sprintf("%d ledger reconciliations from GET /assignments", plain.resyncs)
	notes["failures"] = fmt.Sprintf("%d machines failed, evicting %d containers and stranding %d; the server re-placed %d stranded ones and its rescues preempted %d placed ones",
		plain.failures, plain.evictedN, plain.strandedN, plain.replacedN, plain.lostN)
	notes["requests"] = fmt.Sprintf("%d measured (%d place, %d remove)", plain.measured(), len(plain.lat[routePlace]), len(plain.lat[routeRemove]))

	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	posted := float64(plain.posted)
	v["setup_s"] = median(plain.setup)
	v["schedule_ns_per_container"] = median(plain.rounds)
	v["deployed_frac"] = float64(plain.deployed) / posted
	v["undeployed_frac"] = 1 - v["deployed_frac"]
	v["machines_used"] = plain.machinesUsed
	v["alloc_bytes_per_container"] = plain.rt.allocBytes / posted
	v["heap_mb"] = plain.heapMB
	v["place_p50_us"] = micros(pct(plain.lat[routePlace], 0.50))
	v["place_p99_us"] = micros(pct(plain.lat[routePlace], 0.99))
	v["remove_p50_us"] = micros(pct(plain.lat[routeRemove], 0.50))
	v["req_per_s"] = float64(plain.measured()) / plain.wall.Seconds()
	v["error_frac"] = float64(plain.failed) / float64(plain.attempted)
	v["go.gc_cycles"] = plain.rt.gcCycles
	v["go.gc_pause_s"] = plain.rt.gcPause
	v["go.gc_cpu_s"] = plain.rt.gcCPU
	v["go.sched_latency_p99_us"] = plain.rt.schedP99 * 1e6
	notes["place_samples"] = fmt.Sprintf("%d (p99 has %d beyond it)", len(plain.lat[routePlace]), len(plain.lat[routePlace])/100)

	if tr != nil {
		v["topology.new_s"] = median(tr.topo)
		v["core.new_session_s"] = median(tr.session)
		v["server.setup_s"] = median(tr.server)
		v["core.place_s"] = mean(tr.solverUS) / 1e6
		v["server.place_req_us"] = micros(meanDur(tr.lat[routePlace]))
		v["server.place_solver_us"] = mean(tr.solverUS)
		v["server.place_overhead_us"] = v["server.place_req_us"] - v["server.place_solver_us"]
		v["server.remove_req_us"] = micros(meanDur(tr.lat[routeRemove]))
		v["server.fail_req_us"] = micros(meanDur(tr.lat[routeFail]))
		v["server.recover_req_us"] = micros(meanDur(tr.lat[routeRecover]))
		v["server.rebalance_req_ms"] = micros(meanDur(tr.lat[routeRebalance])) / 1e3
		v["server.assignments_req_ms"] = micros(meanDur(tr.lat[routeAssignments])) / 1e3
		v["loadgen.encode_us"] = micros(tr.clientJSON) / float64(tr.measured())
		v["check.verify_s"] = tr.verify.Seconds()
		v["check.audit_s"] = tr.audit.Seconds()
		v["core.assignment_s"] = tr.assignment.Seconds()
		v["sched.finalize_s"] = tr.finalize.Seconds()
		// The core's phase totals cover every request since the server
		// was built, warm-up included; they are given per /place.
		allPlaces := float64(tr.allPlaces)
		v["core.search_s"] = tr.phase.search.Seconds() / allPlaces
		v["core.migration_s"] = tr.phase.migration.Seconds() / allPlaces
		v["core.preemption_s"] = tr.phase.preemption.Seconds() / allPlaces
		v["core.dl_cutoffs"] = tr.phase.dlCutoffs / allPlaces
		v["core.il_hit_ratio"] = tr.phase.ilRatio()
		plainReq := meanDur(plain.lat[routePlace])
		tracedReq := meanDur(tr.lat[routePlace])
		v["trace.overhead_s"] = (tracedReq - plainReq).Seconds()
		v["trace.closure_frac"] = (v["server.place_solver_us"] + v["server.place_overhead_us"]) / micros(plainReq)
	}
	ms.values = v
	ms.samples = map[string][]float64{"setup_s": plain.setup, "schedule_ns_per_container": plain.rounds}
	return ms, nil
}

// phaseOut is what one serve phase measured.
type phaseOut struct {
	setup, topo, session, server  []float64
	lat                           [numRoutes][]time.Duration
	solverUS                      []float64
	posted, deployed              int
	allPlaces, resyncs            int
	failures, evictedN, strandedN int
	replacedN, lostN              int
	windows                       []int
	attempted, failed             int
	gateErr                       error
	wall                          time.Duration
	// rounds holds each measured round's /place time per container
	// posted, in ns.
	rounds               []float64
	rt                   rtDelta
	heapMB               float64
	machinesUsed         float64
	clientJSON           time.Duration
	verify, audit        time.Duration
	assignment, finalize time.Duration
	phase                obsPhases
	spans                []span
}

func (p *phaseOut) measured() int {
	n := 0
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

// serveFixture is one built server with its default tenant's parts.
type serveFixture struct {
	srv     *server.Server
	sess    *core.Session
	cluster *topology.Cluster
	reg     *obs.Registry
}

// buildServer is serve-churn's setup: the default tenant's cluster and
// session, the server, and the second tenant, which shares the
// workload universe on its own cluster.
func buildServer(sp spec, w *workload.Workload, traced bool) (serveFixture, [3]time.Duration, error) {
	var (
		f serveFixture
		d [3]time.Duration
	)
	opts := core.DefaultOptions()
	var sopts []server.Option
	if traced {
		f.reg = obs.NewRegistry()
		opts.Metrics = f.reg
		opts.Clock = fineClock()
		sopts = append(sopts, server.WithRegistry(f.reg))
	}
	t0 := time.Now()
	f.cluster = topology.New(topology.AlibabaConfig(sp.Machines))
	t1 := time.Now()
	f.sess = core.NewSession(opts, w, f.cluster)
	t2 := time.Now()
	f.srv = server.New(f.sess, w, f.cluster, sopts...)
	if _, err := f.srv.CreateTenant(server.TenantSpec{Name: secondTenant, Machines: sp.Machines}); err != nil {
		return f, d, err
	}
	t3 := time.Now()
	d = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	return f, d, nil
}

// servePhase builds the server setupReps times (keeping the last),
// warms each tenant's live window up, measures both closed-loop
// clients over whole rounds, then runs the gates.
func servePhase(sp spec, w *workload.Workload, seed int64, dur time.Duration, traced bool) (*phaseOut, error) {
	out := &phaseOut{}
	var f serveFixture
	for i := 0; i < setupReps; i++ {
		f = serveFixture{} // let the collection below free the last build
		runtime.GC()
		var d [3]time.Duration
		var err error
		if f, d, err = buildServer(sp, w, traced); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, (d[0] + d[1] + d[2]).Seconds())
		out.topo = append(out.topo, d[0].Seconds())
		out.session = append(out.session, d[1].Seconds())
		out.server = append(out.server, d[2].Seconds())
	}

	origin := time.Now()
	clients := []*client{
		newClient(f.srv, "", w, sp, seed, 0),
		newClient(f.srv, "/t/"+secondTenant, w, sp, seed, 1),
	}
	for _, c := range clients {
		c.clockScale = 1
		if traced {
			c.rec = newRecorder(origin, c.track)
			c.clockScale = clockScale
		}
	}
	for _, c := range clients {
		c.warmUp()
	}
	takeTurns(clients, (*client).warming)
	runtime.GC()
	rt0 := readRuntime()
	t0 := time.Now()
	// Whole rounds only, so every run measures the same applications
	// whatever order the seed gives them: the trace is heavy-tailed, and
	// whether a time-boxed run caught its largest application moved the
	// metrics by more than their bounds.  The round count is fixed by
	// the requested duration, not by how fast the rounds run, so every
	// commit measures the same work.
	for r := 0; r < max(1, int(dur/roundTime)); r++ {
		out.rounds = append(out.rounds, runRound(clients, r))
	}
	out.wall = time.Since(t0)
	out.rt = rt0.to(readRuntime())
	out.heapMB = liveHeapMB()

	for _, c := range clients {
		if out.gateErr == nil {
			out.gateErr = c.finalCheck()
		}
		out.attempted += c.attempted
		out.failed += c.failed
		if out.gateErr == nil && c.err != nil {
			out.gateErr = c.err
		}
		for r := range c.lat {
			out.lat[r] = append(out.lat[r], c.lat[r]...)
		}
		out.solverUS = append(out.solverUS, c.solverUS...)
		out.posted += c.posted
		out.deployed += c.deployed
		out.allPlaces += c.allPlaces
		out.resyncs += c.resyncs
		out.failures += c.failures
		out.evictedN += c.evictedN
		out.strandedN += c.strandedN
		out.replacedN += c.replacedN
		out.lostN += c.lostN
		out.windows = append(out.windows, c.window)
		out.clientJSON += c.clientJSON
		out.machinesUsed += median(c.usedSamples)
		if c.rec != nil {
			out.spans = append(out.spans, c.rec.spans...)
		}
	}
	if out.gateErr == nil {
		out.gateErr = out.checkDefaultTenant(f, w)
	}
	if traced {
		out.phase = readPhases(f.reg)
	}
	return out, nil
}

// checkDefaultTenant runs the core-level gates on the default tenant,
// whose session the benchmark built: the live placement, read as a
// finalized Result, agrees with the cluster and passes the audits.
func (out *phaseOut) checkDefaultTenant(f serveFixture, w *workload.Workload) error {
	t0 := time.Now()
	asg := f.sess.Assignment()
	t1 := time.Now()
	res := &sched.Result{Assignment: asg}
	for _, c := range w.Containers() {
		if _, ok := asg[c.ID]; !ok {
			res.Undeployed = append(res.Undeployed, c.ID)
		}
	}
	res.Finalize(w)
	t2 := time.Now()
	err := res.Verify(w, f.cluster)
	if err == nil {
		if vs := res.ViolationSummary(); vs.Total() != 0 {
			err = fmt.Errorf("default tenant: %d violations in the live placement", vs.Total())
		}
	}
	t3 := time.Now()
	if err == nil {
		err = checkSession(f.sess)
	}
	t4 := time.Now()
	out.assignment, out.finalize, out.verify, out.audit = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return err
}

// runRound has every client post round r of its share, the clients
// taking turns one step at a time from this goroutine, and returns the
// round's /place time per container posted, in ns.  One goroutine
// keeps the load within the host's cores: two busy clients plus the
// collector, which takes about a third of the CPU here, would queue
// for them, and the latencies would time the Go scheduler.
func runRound(cs []*client, r int) float64 {
	lat0 := make([]int, len(cs))
	posted0 := make([]int, len(cs))
	for i, c := range cs {
		lat0[i], posted0[i] = len(c.lat[routePlace]), c.posted
		c.startRound(r)
	}
	takeTurns(cs, (*client).inRound)
	var lat time.Duration
	posted := 0
	for i, c := range cs {
		c.record = false
		lat += sum(c.lat[routePlace][lat0[i]:])
		posted += c.posted - posted0[i]
	}
	return float64(lat) / float64(max(posted, 1))
}

// takeTurns steps each client in turn while busy says it has more to
// send.
func takeTurns(cs []*client, busy func(*client) bool) {
	for more := true; more; {
		more = false
		for _, c := range cs {
			if busy(c) {
				c.step()
				more = true
			}
		}
	}
}

func formatRounds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(parts, " ")
}

// client is one closed-loop caller, bound to one tenant.  Its share of
// the universe is every other application (by index, so the share is
// the same for every seed), dealt into rounds, also the same for every
// seed.  It posts one application per POST /place, round by round, each
// round in a seeded order, and keeps about window containers placed:
// while more are, it retires the oldest live application, removing it
// container by container.  A window counted in containers, not
// applications, keeps the load the same whichever applications the
// seed makes live.  Its ledger tracks which containers the server has
// placed, from the responses and the reads that follow a rebalance.
type client struct {
	h      http.Handler
	prefix string
	track  int
	rng    *rand.Rand
	window int
	nMach  int

	cs    []*workload.Container
	order []*workload.App
	// Round i is order[roundStart[i]:roundStart[i+1]]; the warm-up
	// posts from round warmRound on.
	roundStart []int
	warmRound  int
	roundEnd   int
	byApp      map[string][]*workload.Container
	ordOf      map[string]int
	next       int
	live       []*workload.App
	isLive     map[string]bool
	state      []uint8
	nPlaced    int
	removeQ    []string
	arrivals   int
	down       topology.MachineID
	downAt     int
	record     bool
	rec        *recorder
	// clockScale is the rate of the session clock that stamps a /place
	// response's elapsed_us: clockScale for a traced server, else 1.
	clockScale float64
	reqID      int64

	attempted, failed int
	err               error
	lat               [numRoutes][]time.Duration
	solverUS          []float64
	posted, deployed  int
	allPlaces         int
	// failures, evictedN, strandedN, replacedN and lostN count machine
	// failures, the containers they evicted and stranded, stranded
	// containers the server re-placed, and placed ones lost to rescue
	// preemptions.
	failures, evictedN, strandedN, replacedN, lostN int
	resyncs                                         int
	clientJSON                                      time.Duration
	// usedSamples holds the tenant's used-machine count at each measured
	// GET /assignments.
	usedSamples []float64
}

func newClient(h http.Handler, prefix string, w *workload.Workload, sp spec, seed int64, track int) *client {
	c := &client{
		h:      h,
		prefix: prefix,
		track:  track,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(track))),
		nMach:  sp.Machines,
		byApp:  make(map[string][]*workload.Container, w.NumApps()),
		ordOf:  make(map[string]int, w.NumContainers()),
		isLive: make(map[string]bool),
		state:  make([]uint8, w.NumContainers()),
		down:   topology.Invalid,
		cs:     w.Containers(),
	}
	for _, ct := range w.Containers() {
		c.byApp[ct.App] = append(c.byApp[ct.App], ct)
		c.ordOf[ct.ID] = ct.Ord
	}
	var share []*workload.App
	shared := 0
	for i, a := range w.Apps() {
		if i%2 == track {
			share = append(share, a)
			shared += len(c.byApp[a.ID])
		}
	}
	// The window holds sp.LiveApps applications of the share's mean size.
	c.window = int(math.Round(float64(sp.LiveApps*shared) / float64(len(share))))
	// Deal the share, largest application first, into sp.Rounds rounds,
	// snaking so that every round gets a like mix of sizes.  The
	// largest applications are a heavy tail; this way no round holds
	// two of the sp.Rounds largest.
	sort.SliceStable(share, func(i, j int) bool { return len(c.byApp[share[i].ID]) > len(c.byApp[share[j].ID]) })
	rounds := make([][]*workload.App, sp.Rounds)
	for i, a := range share {
		r := i % sp.Rounds
		if (i/sp.Rounds)%2 == 1 {
			r = sp.Rounds - 1 - r
		}
		rounds[r] = append(rounds[r], a)
	}
	for _, round := range rounds {
		c.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		c.roundStart = append(c.roundStart, len(c.order))
		c.order = append(c.order, round...)
	}
	c.roundStart = append(c.roundStart, len(c.order))
	// The warm-up posts the last rounds, as many as hold twice the
	// window, so it never reaches round 0, and the first measured
	// rounds never post an application that is still live.
	c.warmRound = sp.Rounds
	for held := 0; held < 2*c.window && c.warmRound > 1; {
		c.warmRound--
		for _, a := range rounds[c.warmRound] {
			held += len(c.byApp[a.ID])
		}
	}
	return c
}

// warmUp fills the live window from the last rounds without recording
// latencies.  The rest of those rounds is then sent with the full mix
// of requests, still unrecorded (see warming), so the measured rounds
// start in the steady state of place, remove, rebalance and failure.
func (c *client) warmUp() {
	c.next = c.roundStart[c.warmRound]
	for c.nPlaced < c.window && c.err == nil {
		c.placeNext()
	}
}

// warming reports whether the client has yet to post part of the
// warm-up rounds; the last of them brings c.next back to round 0.
func (c *client) warming() bool {
	return c.err == nil && c.next != 0
}

// startRound starts measured round i, which posts round i of the share
// (modulo the round count): by the time a run comes back to a round,
// every application in it has been retired.
func (c *client) startRound(i int) {
	r := i % (len(c.roundStart) - 1)
	c.next = c.roundStart[r]
	c.roundEnd = c.allPlaces + c.roundStart[r+1] - c.roundStart[r]
	c.record = true
}

// inRound reports whether the client has yet to post part of its round.
func (c *client) inRound() bool {
	return c.err == nil && c.allPlaces < c.roundEnd
}

// step sends the client's next requests: a /remove while a retired
// application still has containers placed, else the next arrival, a
// /place, followed by the /rebalance, /fail or /recover due at it.
func (c *client) step() {
	switch {
	case len(c.removeQ) > 0:
		c.remove()
		return
	case c.nPlaced >= c.window && len(c.live) > 0:
		c.retire()
		c.step()
		return
	}
	c.placeNext()
	c.arrivals++
	if c.arrivals%rebalanceArrivals == 0 {
		c.rebalance()
	}
	switch {
	case c.down == topology.Invalid && c.arrivals%mtbfArrivals == 0:
		c.fail(topology.MachineID(c.rng.Intn(c.nMach)))
	case c.down != topology.Invalid && c.arrivals-c.downAt >= mttrArrivals:
		c.recover()
	}
}

// retire drops the oldest live application and queues its placed
// containers for removal.
func (c *client) retire() {
	app := c.live[0]
	c.live = c.live[1:]
	delete(c.isLive, app.ID)
	for _, ct := range c.byApp[app.ID] {
		if c.state[ct.Ord] == placed {
			c.removeQ = append(c.removeQ, ct.ID)
		}
	}
}

// do sends one request and returns its status and body.  Only the
// ServeHTTP call is timed as the request; encoding the body before it
// and decoding the response after it are the client's own work.
func (c *client) do(rt route, method, path string, body []byte, encode time.Duration) (int, []byte) {
	req := httptest.NewRequest(method, c.prefix+path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s := c.rec.start("server."+routeNames[rt], 0, c.reqID)
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	c.rec.end(s)
	c.attempted++
	if rec.Code != http.StatusOK {
		c.failed++
		c.setErr(fmt.Errorf("%s %s%s: status %d: %s", method, c.prefix, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes())))
	}
	if c.record {
		c.lat[rt] = append(c.lat[rt], d)
		c.clientJSON += encode
	}
	return rec.Code, rec.Body.Bytes()
}

func (c *client) get(rt route, path string) (int, []byte) {
	c.reqID++
	return c.do(rt, http.MethodGet, path, nil, 0)
}

func (c *client) post(rt route, path string, v any) (int, []byte) {
	c.reqID++
	s := c.rec.start("loadgen.encode", 0, c.reqID)
	t0 := time.Now()
	body, err := json.Marshal(v)
	encode := time.Since(t0)
	c.rec.end(s)
	if err != nil {
		c.err = err
		return 0, nil
	}
	return c.do(rt, http.MethodPost, path, body, encode)
}

// decode parses a response body, charging the time to the client.
func (c *client) decode(data []byte, v any) bool {
	s := c.rec.start("loadgen.decode", 0, c.reqID)
	t0 := time.Now()
	err := json.Unmarshal(data, v)
	if c.record {
		c.clientJSON += time.Since(t0)
	}
	c.rec.end(s)
	if err != nil {
		c.setErr(fmt.Errorf("decode response: %w", err))
	}
	return err == nil
}

func (c *client) placeNext() {
	app := c.order[c.next]
	c.next = (c.next + 1) % len(c.order)
	cs := c.byApp[app.ID]
	ids := make([]string, len(cs))
	for i, ct := range cs {
		ids[i] = ct.ID
	}
	code, body := c.post(routePlace, "/place", map[string][]string{"containers": ids})
	if code != http.StatusOK {
		return
	}
	var resp struct {
		Placed     int      `json:"placed"`
		Undeployed []string `json:"undeployed"`
		ElapsedUS  int64    `json:"elapsed_us"`
	}
	if !c.decode(body, &resp) {
		return
	}
	c.allPlaces++
	undep := make(map[string]bool, len(resp.Undeployed))
	for _, id := range resp.Undeployed {
		undep[id] = true
	}
	got := 0
	for _, ct := range cs {
		if undep[ct.ID] {
			c.set(ct.Ord, absent)
			continue
		}
		c.set(ct.Ord, placed)
		got++
	}
	// Preemption victims from earlier applications that found no new
	// home are reported undeployed too.
	for _, id := range resp.Undeployed {
		if ord := c.ordOf[id]; c.state[ord] == placed && c.cs[ord].App != app.ID {
			c.set(ord, absent)
		}
	}
	if got != resp.Placed {
		c.setErr(fmt.Errorf("place %s: response says %d placed, its undeployed list leaves %d", app.ID, resp.Placed, got))
	}
	c.live = append(c.live, app)
	c.isLive[app.ID] = true
	if c.record {
		c.solverUS = append(c.solverUS, float64(resp.ElapsedUS)/c.clockScale)
		c.posted += len(cs)
		c.deployed += got
	}
}

func (c *client) remove() {
	id := c.removeQ[0]
	c.removeQ = c.removeQ[1:]
	if code, _ := c.post(routeRemove, "/remove", map[string]string{"container": id}); code == http.StatusOK {
		c.set(c.ordOf[id], absent)
	}
}

func (c *client) fail(m topology.MachineID) {
	code, body := c.post(routeFail, "/fail", map[string]topology.MachineID{"machine": m})
	if code != http.StatusOK {
		return
	}
	var resp struct {
		Evicted  int      `json:"evicted"`
		Stranded []string `json:"stranded"`
	}
	if !c.decode(body, &resp) {
		return
	}
	c.down, c.downAt = m, c.arrivals
	c.failures++
	c.evictedN += resp.Evicted
	for _, id := range resp.Stranded {
		if ord := c.ordOf[id]; c.state[ord] == placed {
			c.set(ord, stranded)
			c.strandedN++
		}
	}
}

func (c *client) recover() {
	code, body := c.post(routeRecover, "/recover", map[string]topology.MachineID{"machine": c.down})
	if code != http.StatusOK {
		return
	}
	var resp struct {
		Replaced    []string `json:"replaced"`
		Preemptions int      `json:"preemptions"`
	}
	if !c.decode(body, &resp) {
		return
	}
	c.down = topology.Invalid
	for _, id := range resp.Replaced {
		c.replaced(c.ordOf[id])
	}
	// The response names what the stranded retry re-placed but not the
	// victims its preemptions left stranded; a read finds them.
	if resp.Preemptions != 0 {
		c.resync("recover", 0, resp.Preemptions)
	}
}

// rebalance runs one budgeted cycle.  Its response counts the stranded
// containers it re-placed and the moves it made without naming them,
// so the client reads the assignment after it, as a controller that
// binds containers to machines would.
func (c *client) rebalance() {
	code, body := c.post(routeRebalance, "/rebalance", map[string]int{"budget": rebalanceBudget})
	if code != http.StatusOK {
		return
	}
	var resp struct {
		Moves    int `json:"moves"`
		Replaced int `json:"replaced"`
	}
	if c.decode(body, &resp) {
		c.resync("rebalance", resp.Replaced, resp.Moves)
	}
}

// replaced records that the server re-placed a stranded container on
// its own; one whose application has retired is queued for removal.
func (c *client) replaced(ord int) {
	c.set(ord, placed)
	c.replacedN++
	if !c.isLive[c.cs[ord].App] {
		c.removeQ = append(c.removeQ, c.cs[ord].ID)
	}
}

// resync reads GET /assignments after a request whose response counts
// what it changed without naming it, and brings the ledger up to date
// under the server's rules: the only containers that may appear are
// ones the ledger holds stranded, exactly appeared of them (the server
// re-places failure-stranded containers by itself), and at most maxLost
// placed ones may vanish, as rescue victims, which the server then
// holds stranded.  Anything else is a ledger mismatch.
func (c *client) resync(what string, appeared, maxLost int) {
	ids, ok := c.assignments()
	if !ok {
		return
	}
	c.resyncs++
	var came []int
	seen := 0
	for id := range ids {
		ord, known := c.ordOf[id]
		switch {
		case !known || c.state[ord] == absent:
			c.setErr(fmt.Errorf("%s: tenant%s holds %s, which the client never placed or has removed", what, c.prefix, id))
			return
		case c.state[ord] == placed:
			seen++
		default:
			came = append(came, ord)
		}
	}
	var lost []int
	if seen < c.nPlaced {
		for ord, st := range c.state {
			if st == placed && !ids[c.cs[ord].ID] {
				lost = append(lost, ord)
			}
		}
	}
	sort.Ints(came) // the removal queue follows it, so keep runs repeatable
	if len(came) != appeared || len(lost) > maxLost {
		c.setErr(fmt.Errorf("%s: tenant%s re-placed %d stranded containers and lost %d placed ones, its response allows %d and at most %d",
			what, c.prefix, len(came), len(lost), appeared, maxLost))
		return
	}
	for _, ord := range came {
		c.replaced(ord)
	}
	for _, ord := range lost {
		c.set(ord, stranded)
	}
	c.lostN += len(lost)
}

// assignments reads GET /assignments, checks the count against the
// ledger, samples the used machines, and returns the placed IDs.
func (c *client) assignments() (map[string]bool, bool) {
	code, body := c.get(routeAssignments, "/assignments")
	if code != http.StatusOK {
		return nil, false
	}
	var rows []struct {
		Container string `json:"container"`
		Machine   int    `json:"machine"`
	}
	if !c.decode(body, &rows) {
		return nil, false
	}
	ids := make(map[string]bool, len(rows))
	machines := make(map[int]bool)
	for _, r := range rows {
		ids[r.Container] = true
		machines[r.Machine] = true
	}
	if c.record {
		c.usedSamples = append(c.usedSamples, float64(len(machines)))
	}
	return ids, true
}

// finalCheck is the serve gate: health is 200, and the tenant's final
// placement is exactly the client's ledger.
func (c *client) finalCheck() error {
	if c.err != nil {
		return c.err
	}
	if code, body := c.get(routeHealth, "/healthz"); code != http.StatusOK {
		return fmt.Errorf("tenant%s healthz: status %d: %s", c.prefix, code, bytes.TrimSpace(body))
	}
	ids, ok := c.assignments()
	if !ok || c.err != nil {
		return c.err
	}
	return c.checkLedger(ids)
}

// checkLedger compares the server's placed set with the ledger.
func (c *client) checkLedger(ids map[string]bool) error {
	var missing, extra []string
	for id, ord := range c.ordOf {
		switch {
		case c.state[ord] == placed && !ids[id]:
			missing = append(missing, id)
		case c.state[ord] != placed && ids[id]:
			extra = append(extra, id)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("tenant%s: ledger disagrees with the server: %d placed per ledger but absent %v, %d present but not in the ledger %v",
		c.prefix, len(missing), head(missing), len(extra), head(extra))
}

func head(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// set moves one container's ledger state, keeping the counts.
func (c *client) set(ord int, st uint8) {
	if c.state[ord] == placed {
		c.nPlaced--
	}
	if st == placed {
		c.nPlaced++
	}
	c.state[ord] = st
}

// setErr records the client's first error, which ends its run.
func (c *client) setErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

// pct returns the q-quantile of the durations (nearest rank).
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
