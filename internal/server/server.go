// Package server exposes scheduling sessions over HTTP — the
// operational surface a production scheduler manager needs: health,
// metrics, the live assignment, per-container diagnosis, and batch
// submission.  It is the in-process analogue of the watching/binding
// APIs the paper's model adaptor delegates (§IV.C).
//
// The server is multi-tenant: a registry of named tenants, each with
// its own session, workload universe, cluster, coalescing batcher and
// labeled metrics.  The un-prefixed routes (/place, /assignments, …)
// serve the default tenant, so a single-tenant deployment looks
// exactly like the pre-tenancy server; /t/{tenant}/... variants reach
// the others, and /tenants is the CRUD surface.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"aladdin/internal/checkpoint"
	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Server is the multi-tenant HTTP front end.  Three lock tiers, all
// disjoint by construction: the registry lock (this mu) guards only
// the tenant map and is never held while a tenant or batcher lock is
// taken; each batcher's queue lock is never held across a solver
// call; each tenant's session lock serializes that tenant's session —
// mutating handlers hold it exclusively, read-only handlers share it
// and never write session state.  The scheduler core's own locks nest
// strictly inside a tenant lock.
type Server struct {
	//aladdin:lock-level 40 tenant registry lock; guards the tenants map only and is released before any batcher or tenant session lock is acquired
	mu      sync.RWMutex
	tenants map[string]*Tenant

	// def is the default tenant, also registered in tenants; kept as a
	// field so the un-prefixed routes skip the map lookup.
	def *Tenant

	// baseOpts is the scheduler configuration template for created
	// tenants, captured from the default tenant's session so every
	// tenant runs the same policy knobs (per-tenant metrics labels and
	// shard counts are layered on top).
	baseOpts core.Options

	// coalesce, when enabled, gives every tenant a request batcher.
	coalesce CoalesceConfig

	// draining flips at Drain: placement admission stops (503 on the
	// direct path, errDraining from the batchers) while queued work is
	// flushed so every admitted request still gets its response.
	draining atomic.Bool

	// reg is the metrics registry behind /metrics and /debug/vars.
	// Attach the same registry via core.Options.Metrics and the
	// scheduler's phase histograms and pipeline counters appear in the
	// exposition alongside the server's scrape-time cluster gauges.
	// Nil leaves only the scrape-time gauges.
	reg       *obs.Registry
	withPprof bool

	// ckptPath is the default tenant's snapshot destination for
	// POST /checkpoint requests that name none (WithCheckpointPath).
	ckptPath string

	// explain is the diagnosis seam, core.Explain in production; tests
	// inject failures to exercise the handler's internal-error path.
	explain func(w *workload.Workload, cluster *topology.Cluster, asg constraint.Assignment, containerID string) (*core.Explanation, error)

	mux *http.ServeMux
}

// Option customises a Server at construction.
type Option func(*Server)

// WithRegistry attaches a metrics registry: /metrics renders its
// families as Prometheus text exposition and /debug/vars serves its
// JSON snapshot.  Pass the registry also carried by the session's
// core.Options.Metrics to expose the scheduler's internals.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.  Off by
// default: profiling endpoints expose heap contents and must be
// opted into (cmd/aladdin-server gates it behind -pprof).
func WithPprof() Option {
	return func(s *Server) { s.withPprof = true }
}

// WithCheckpointPath sets the default tenant's snapshot file for
// POST /checkpoint requests that name no path of their own.
func WithCheckpointPath(path string) Option {
	return func(s *Server) { s.ckptPath = path }
}

// WithCoalescing turns on request coalescing for every tenant: small
// POST /place calls enqueue into a per-tenant batcher and flush as
// one merged solver batch (see CoalesceConfig).  A zero Window leaves
// coalescing off.
func WithCoalescing(cfg CoalesceConfig) Option {
	return func(s *Server) { s.coalesce = cfg.withDefaults() }
}

// New builds a server whose default tenant wraps the given session.
// w and cluster are the session's own workload and cluster; the server
// reads every view through the session itself.
func New(session *core.Session, w *workload.Workload, cluster *topology.Cluster, opts ...Option) *Server {
	s := &Server{
		tenants: make(map[string]*Tenant),
		explain: core.Explain,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.baseOpts = session.Options()
	s.def = newTenant(DefaultTenant, session, s.ckptPath, 0, s.reg)
	if s.coalesce.enabled() {
		s.def.bat = newBatcher(s.def, s.coalesce)
	}
	s.tenants[DefaultTenant] = s.def

	s.mux = http.NewServeMux()
	routes := []struct {
		method, path string
		h            tenantHandler
	}{
		{"GET", "healthz", s.handleHealth},
		{"GET", "assignments", s.handleAssignments},
		{"GET", "explain", s.handleExplain},
		{"POST", "place", s.handlePlace},
		{"POST", "remove", s.handleRemove},
		{"POST", "fail", s.handleFail},
		{"POST", "recover", s.handleRecover},
		{"POST", "checkpoint", s.handleCheckpoint},
		{"POST", "restore", s.handleRestore},
		{"POST", "consolidate", s.handleConsolidate},
		{"POST", "rebalance", s.handleRebalance},
		{"POST", "rebalance/start", s.handleRebalanceStart},
		{"POST", "rebalance/stop", s.handleRebalanceStop},
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" /"+rt.path, s.dflt(rt.h))
		s.mux.HandleFunc(rt.method+" /t/{tenant}/"+rt.path, s.named(rt.h))
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("GET /tenants", s.handleTenantsList)
	s.mux.HandleFunc("POST /tenants", s.handleTenantCreate)
	s.mux.HandleFunc("DELETE /tenants/{tenant}", s.handleTenantDelete)
	if s.withPprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting placement work and flushes every tenant's
// coalescing queue, so each already-admitted request receives its
// response rather than a connection reset.  Call before process
// shutdown; other endpoints (reads, metrics, admin) keep serving.
func (s *Server) Drain() {
	s.draining.Store(true)
	for _, t := range s.tenantsSorted() {
		if t.bat != nil {
			t.bat.close()
		}
		t.stopRebalancer()
	}
}

// tenantHandler is a handler bound to a resolved tenant.
type tenantHandler func(http.ResponseWriter, *http.Request, *Tenant)

// dflt adapts a tenant handler to the un-prefixed routes, which serve
// the default tenant.
func (s *Server) dflt(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, s.def) }
}

// named adapts a tenant handler to the /t/{tenant}/... routes.
func (s *Server) named(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t := s.lookupTenant(name)
		if t == nil {
			http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
			return
		}
		h(w, r, t)
	}
}

// handleHealth only reads, so it shares the read lock with the other
// read handlers; the session takes its shard locks inside.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.sess.FlowConservation(); err != nil {
		http.Error(w, fmt.Sprintf("flow conservation violated: %v", err), http.StatusInternalServerError)
		return
	}
	if vs := t.sess.Audit(); len(vs) != 0 {
		http.Error(w, fmt.Sprintf("%d constraint violations live", len(vs)), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// clusterSample is one tenant's scrape-time cluster summary, read
// under that tenant's lock alone so a scrape never serializes the
// whole fleet.
type clusterSample struct {
	tenant   string
	machines int
	used     int
	down     int
	placed   int
	cpu      int64
	mem      int64
	lo       float64
	mean     float64
	hi       float64
}

// sample reads one tenant's cluster summary under its read lock,
// folding the session's shard clusters (the live machines) together.
// The utilization mean is weighted by each shard's used machines.
func (t *Tenant) sample() clusterSample {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cs := clusterSample{tenant: t.name, placed: t.sess.NumPlaced()}
	for _, cl := range t.sess.ShardClusters() {
		lo, mean, hi := cl.UtilizationRange()
		used := cl.UsedMachines()
		if used > 0 {
			if cs.used == 0 || lo < cs.lo {
				cs.lo = lo
			}
			if hi > cs.hi {
				cs.hi = hi
			}
			cs.mean += mean * float64(used)
		}
		totalUsed := cl.TotalUsed()
		cs.machines += cl.Size()
		cs.used += used
		cs.down += cl.DownMachines()
		cs.cpu += totalUsed.Dim(resource.CPU)
		cs.mem += totalUsed.Dim(resource.Memory)
	}
	if cs.used > 0 {
		cs.mean /= float64(cs.used)
	}
	return cs
}

// handleMetrics renders Prometheus text exposition (format 0.0.4):
// the attached registry's families first — the scheduler's phase
// histograms and event counters when the sessions share a registry —
// then scrape-time gauges derived from every tenant's live cluster
// state.  The scrape-time block skips any family the registry already
// owns, so a core-maintained gauge (aladdin_machines_down) is never
// emitted twice with conflicting values.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf) //aladdin:errcheck-ok bytes.Buffer writes cannot fail (nil registry: no-op)
	samples := make([]clusterSample, 0, 4)
	for _, t := range s.tenantsSorted() {
		samples = append(samples, t.sample())
	}
	s.writeClusterMetrics(&buf, samples)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// writeClusterMetrics appends gauges recomputed from cluster ground
// truth at scrape time, one sample per tenant under each family
// header.  The default tenant stays unlabeled — identical to the
// pre-tenancy exposition — and every other tenant gets a
// tenant="name" label.  They need no registry plumbing and stay
// correct even when the scheduler runs uninstrumented.
func (s *Server) writeClusterMetrics(buf *bytes.Buffer, samples []clusterSample) {
	series := func(name, tenant string) string {
		if tenant == DefaultTenant {
			return name
		}
		// Tenant names are pre-validated to [A-Za-z0-9._-], so no label
		// escaping is needed here.
		return fmt.Sprintf("%s{tenant=%q}", name, tenant)
	}
	intGauge := func(name, help string, v func(clusterSample) int64) {
		if s.reg.Has(name) {
			return
		}
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, cs := range samples {
			fmt.Fprintf(buf, "%s %d\n", series(name, cs.tenant), v(cs))
		}
	}
	floatGauge := func(name, help string, v func(clusterSample) float64) {
		if s.reg.Has(name) {
			return
		}
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, cs := range samples {
			fmt.Fprintf(buf, "%s %.4f\n", series(name, cs.tenant), v(cs))
		}
	}
	intGauge("aladdin_machines_total", "machines in the cluster topology", func(cs clusterSample) int64 { return int64(cs.machines) })
	intGauge("aladdin_machines_used", "machines hosting at least one container", func(cs clusterSample) int64 { return int64(cs.used) })
	intGauge("aladdin_machines_down", "machines currently marked failed", func(cs clusterSample) int64 { return int64(cs.down) })
	intGauge("aladdin_containers_placed", "containers with a live assignment", func(cs clusterSample) int64 { return int64(cs.placed) })
	intGauge("aladdin_cpu_milli_allocated", "millicores allocated across the cluster", func(cs clusterSample) int64 { return cs.cpu })
	intGauge("aladdin_mem_mb_allocated", "memory MB allocated across the cluster", func(cs clusterSample) int64 { return cs.mem })
	floatGauge("aladdin_cpu_utilization_min", "lowest per-machine CPU utilization among used machines", func(cs clusterSample) float64 { return cs.lo })
	floatGauge("aladdin_cpu_utilization_mean", "mean per-machine CPU utilization among used machines", func(cs clusterSample) float64 { return cs.mean })
	floatGauge("aladdin_cpu_utilization_max", "highest per-machine CPU utilization among used machines", func(cs clusterSample) float64 { return cs.hi })
}

// varsResponse is the JSON body of /debug/vars: the full registry
// snapshot plus per-tenant cluster summaries.  Cluster repeats the
// default tenant's block under its pre-tenancy key so existing
// consumers keep working.
type varsResponse struct {
	Metrics obs.Snapshot           `json:"metrics"`
	Cluster clusterVars            `json:"cluster"`
	Tenants map[string]clusterVars `json:"tenants,omitempty"`
}

type clusterVars struct {
	Machines         int     `json:"machines"`
	MachinesUsed     int     `json:"machines_used"`
	MachinesDown     int     `json:"machines_down"`
	ContainersPlaced int     `json:"containers_placed"`
	CPUMilli         int64   `json:"cpu_milli_allocated"`
	MemMB            int64   `json:"mem_mb_allocated"`
	UtilizationMin   float64 `json:"cpu_utilization_min"`
	UtilizationMean  float64 `json:"cpu_utilization_mean"`
	UtilizationMax   float64 `json:"cpu_utilization_max"`
}

func (cs clusterSample) vars() clusterVars {
	return clusterVars{
		Machines:         cs.machines,
		MachinesUsed:     cs.used,
		MachinesDown:     cs.down,
		ContainersPlaced: cs.placed,
		CPUMilli:         cs.cpu,
		MemMB:            cs.mem,
		UtilizationMin:   cs.lo,
		UtilizationMean:  cs.mean,
		UtilizationMax:   cs.hi,
	}
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	resp := varsResponse{
		Metrics: s.reg.Snapshot(),
		Tenants: make(map[string]clusterVars),
	}
	for _, t := range s.tenantsSorted() {
		cv := t.sample().vars()
		if t.name == DefaultTenant {
			resp.Cluster = cv
		}
		resp.Tenants[t.name] = cv
	}
	writeJSON(w, resp)
}

// assignmentEntry is the JSON row of /assignments.
type assignmentEntry struct {
	Container string             `json:"container"`
	Machine   topology.MachineID `json:"machine"`
	MachineID string             `json:"machine_name"`
	Rack      string             `json:"rack"`
}

func (s *Server) handleAssignments(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	asg := t.sess.Assignment()
	out := make([]assignmentEntry, 0, len(asg))
	for id, m := range asg {
		machine := t.sess.Machine(m)
		out = append(out, assignmentEntry{
			Container: id, Machine: m,
			MachineID: machine.Name, Rack: machine.Rack,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Container < out[j].Container })
	writeJSON(w, out)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, t *Tenant) {
	id := r.URL.Query().Get("container")
	if id == "" {
		http.Error(w, "missing ?container=", http.StatusBadRequest)
		return
	}
	// Capture a private snapshot under the shared read lock, then run
	// the diagnosis unlocked: Explain walks blocking containers per
	// machine, which is arbitrarily expensive on a loaded cluster, and
	// an RWMutex alone would still let one slow reader stall the next
	// writer (and every reader queued behind it).
	t.mu.RLock()
	specs := make([]topology.MachineSpec, t.sess.Cluster().Size())
	allocs := make([]map[string]resource.Vector, len(specs))
	for i := range specs {
		m := t.sess.Machine(topology.MachineID(i))
		specs[i] = topology.MachineSpec{Name: m.Name, Rack: m.Rack, Cluster: m.Cluster, Capacity: m.Capacity(), Down: !m.Up()}
		allocs[i] = m.Allocations()
	}
	asg := t.sess.Assignment()
	t.mu.RUnlock()
	shadow, err := snapshotCluster(specs, allocs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	e, err := s.explain(t.w, shadow, asg, id)
	if err != nil {
		// Only "that container does not exist" is the caller's mistake;
		// anything else is an internal failure and must say so — a 404
		// here would send an operator hunting for a typo in a container
		// ID while the scheduler is broken.
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrUnknownContainer) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, e)
}

// snapshotCluster rebuilds a private cluster from specs and
// per-machine allocations captured under the read lock.  Machines are
// constructed up — Allocate rejects a down machine — so the captured
// allocations replay, then the originally-down machines are re-marked
// down.
func snapshotCluster(specs []topology.MachineSpec, allocs []map[string]resource.Vector) (*topology.Cluster, error) {
	up := make([]topology.MachineSpec, len(specs))
	copy(up, specs)
	for i := range up {
		up[i].Down = false
	}
	cl, err := topology.FromSpecs(up)
	if err != nil {
		return nil, err
	}
	for i, m := range cl.Machines() {
		for cid, v := range allocs[i] {
			if err := m.Allocate(cid, v); err != nil {
				return nil, err
			}
		}
	}
	for i, sp := range specs {
		if sp.Down {
			cl.Machine(topology.MachineID(i)).MarkDown()
		}
	}
	return cl, nil
}

// placeRequest is the JSON body of /place.
type placeRequest struct {
	Containers []string `json:"containers"`
}

// placeResponse summarises one batch.  Error is set when the batch
// hit an internal placement error mid-way: the other fields then
// describe the partial placement that is live on the cluster, so the
// caller can reconcile instead of guessing what a bare 409 left
// behind.  Coalesced, when set, is the size of the merged solver
// batch this request rode in — the request's own containers plus
// everything queued alongside it.
type placeResponse struct {
	Placed     int      `json:"placed"`
	Undeployed []string `json:"undeployed,omitempty"`
	Migrations int      `json:"migrations"`
	ElapsedUS  int64    `json:"elapsed_us"`
	Coalesced  int      `json:"coalesced,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// handlePlace admits one placement request.  With coalescing on, the
// request enqueues into the tenant's batcher and the handler parks on
// the reply channel: admission control answers 429 + Retry-After at
// queue capacity, drain answers 503, and a departed client simply
// abandons its buffered reply.  Without coalescing the request places
// directly under the tenant lock, exactly the pre-tenancy behavior.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req placeRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	t.met.requests.Inc()
	t.met.inflight.Add(1)
	defer t.met.inflight.Add(-1)
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	if t.bat != nil {
		call := &placeCall{ids: req.Containers, done: make(chan placeReply, 1)}
		if err := t.bat.enqueue(call); err != nil {
			if errors.Is(err, errQueueFull) {
				w.Header().Set("Retry-After", strconv.Itoa(t.bat.cfg.retryAfterSeconds()))
				http.Error(w, err.Error(), http.StatusTooManyRequests)
				return
			}
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		select {
		case rep := <-call.done:
			if rep.plain != "" {
				http.Error(w, rep.plain, rep.status)
				return
			}
			writeJSONStatus(w, rep.status, rep.body)
		case <-r.Context().Done():
			// Client gone.  The flusher's send lands in the buffered
			// channel and is garbage collected with the call.
		}
		return
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	batch := make([]*workload.Container, 0, len(req.Containers))
	for _, id := range req.Containers {
		c := t.byID[id]
		if c == nil {
			http.Error(w, fmt.Sprintf("unknown container %q", id), http.StatusBadRequest)
			return
		}
		batch = append(batch, c)
	}
	res, err := t.sess.Place(batch)
	t.met.batches.Inc()
	t.met.batchSize.Observe(int64(len(batch)))
	if err != nil {
		if res == nil {
			// Validation failure: nothing was placed.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSONStatus(w, http.StatusConflict, placeResponse{
			Placed:     res.Deployed(),
			Undeployed: res.Undeployed,
			Migrations: res.Migrations,
			ElapsedUS:  res.Elapsed.Microseconds(),
			Error:      err.Error(),
		})
		return
	}
	writeJSON(w, placeResponse{
		Placed:     res.Deployed(),
		Undeployed: res.Undeployed,
		Migrations: res.Migrations,
		ElapsedUS:  res.Elapsed.Microseconds(),
	})
}

// removeRequest is the JSON body of /remove.
type removeRequest struct {
	Container string `json:"container"`
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req removeRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.sess.Remove(req.Container); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "removed")
}

// machineRequest is the JSON body of /fail and /recover.
type machineRequest struct {
	Machine topology.MachineID `json:"machine"`
}

// failResponse reports one failure event's outcome.
type failResponse struct {
	Machine     topology.MachineID `json:"machine"`
	Evicted     int                `json:"evicted"`
	Replaced    int                `json:"replaced"`
	Stranded    []string           `json:"stranded,omitempty"`
	Migrations  int                `json:"migrations"`
	Preemptions int                `json:"preemptions"`
	ElapsedUS   int64              `json:"elapsed_us"`
}

// handleFail is the admin endpoint for taking a machine out of
// service: residents are evicted and re-placed through the normal
// pipeline; the response reports who moved and who was stranded.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req machineRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess.Machine(req.Machine) == nil {
		http.Error(w, fmt.Sprintf("unknown machine %d", req.Machine), http.StatusNotFound)
		return
	}
	res, err := t.sess.FailMachine(req.Machine)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, failResponse{
		Machine:     res.Machine,
		Evicted:     res.Evicted,
		Replaced:    res.Replaced,
		Stranded:    res.Stranded,
		Migrations:  res.Migrations,
		Preemptions: res.Preemptions,
		ElapsedUS:   res.Elapsed.Microseconds(),
	})
}

// recoverResponse reports one recovery event's outcome, including the
// automatic stranded-container retry RecoverMachine runs.
type recoverResponse struct {
	Machine     topology.MachineID `json:"machine"`
	Retried     int                `json:"retried"`
	Replaced    []string           `json:"replaced,omitempty"`
	Migrations  int                `json:"migrations"`
	Preemptions int                `json:"preemptions"`
	ElapsedUS   int64              `json:"elapsed_us"`
}

// handleRecover returns a failed machine to service and reports the
// stranded containers the recovery re-placed onto it.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req machineRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess.Machine(req.Machine) == nil {
		http.Error(w, fmt.Sprintf("unknown machine %d", req.Machine), http.StatusNotFound)
		return
	}
	res, err := t.sess.RecoverMachine(req.Machine)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, recoverResponse{
		Machine:     res.Machine,
		Retried:     res.Retried,
		Replaced:    res.Replaced,
		Migrations:  res.Migrations,
		Preemptions: res.Preemptions,
		ElapsedUS:   res.Elapsed.Microseconds(),
	})
}

// checkpointRequest is the JSON body of /checkpoint; an empty body is
// allowed.
type checkpointRequest struct {
	// Path overrides the tenant's configured checkpoint file.  With
	// neither, the snapshot itself is returned inline.
	Path string `json:"path,omitempty"`
}

// checkpointResponse summarises a snapshot written to disk.
type checkpointResponse struct {
	Path       string `json:"path"`
	Machines   int    `json:"machines"`
	Placements int    `json:"placements"`
	Undeployed int    `json:"undeployed"`
}

// handleCheckpoint captures the live session as a v2 snapshot.  With
// a destination path (request body or the tenant's configured path)
// the snapshot is written crash-safely and a summary returned;
// without one the snapshot JSON itself is the response, so an
// operator can checkpoint a diskless server through curl alone.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req checkpointRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap, err := checkpoint.CaptureSession(t.sess)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	path := req.Path
	if path == "" {
		path = t.ckptPath
	}
	if path == "" {
		writeJSON(w, snap)
		return
	}
	if err := checkpoint.WriteFile(path, snap); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, checkpointResponse{
		Path:       path,
		Machines:   len(snap.Machines),
		Placements: len(snap.Placements),
		Undeployed: len(snap.Undeployed),
	})
}

// restoreRequest is the JSON body of /restore: a snapshot file path
// or the snapshot inline (exactly one).
type restoreRequest struct {
	Path     string          `json:"path,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// restoreResponse summarises the restored session.
type restoreResponse struct {
	Machines   int `json:"machines"`
	Placed     int `json:"placed"`
	Undeployed int `json:"undeployed"`
}

// handleRestore replaces the tenant's live session with one rebuilt
// from a v2 snapshot, at the tenant's own shard count.  The workload
// universe is the tenant's own: a snapshot captured against a
// different trace fails validation rather than restoring a diverged
// state.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req restoreRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	var snap *checkpoint.SessionSnapshot
	var err error
	switch {
	case len(req.Snapshot) > 0 && req.Path != "":
		http.Error(w, "give either path or snapshot, not both", http.StatusBadRequest)
		return
	case len(req.Snapshot) > 0:
		snap, err = checkpoint.ReadSession(bytes.NewReader(req.Snapshot))
	case req.Path != "":
		snap, err = checkpoint.ReadFile(req.Path)
	default:
		http.Error(w, "missing path or snapshot", http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, cluster, err := snap.Restore(t.sess.Options(), t.w)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	t.sess = sess
	writeJSON(w, restoreResponse{
		Machines:   cluster.Size(),
		Placed:     sess.NumPlaced(),
		Undeployed: len(snap.Undeployed),
	})
}

// maxBodyBytes caps every JSON request body: 32 MiB is over 3× an
// inline /restore of a 10,000-machine, ~108k-container tenant (5.9 MB
// compact, 9.2 MB as the indented JSON /checkpoint returns).
const maxBodyBytes = 32 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v.  On failure it answers 413 for an oversize body and 400 for any
// other decode error, and returns false.  emptyOK accepts an empty
// body as the zero request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil || emptyOK && errors.Is(err, io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus encodes to a buffer before touching the response:
// encoding directly into the ResponseWriter commits a 200 header (and
// possibly a partial body) before an encode error can be reported, so
// the error path would corrupt the response with a superfluous
// WriteHeader instead of returning a clean 500.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
