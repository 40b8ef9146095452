package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/rebalance"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// DefaultTenant is the name of the tenant New builds from its session
// argument.  The un-prefixed routes (/place, /assignments, …) serve
// it, so a single-tenant deployment never needs to spell a tenant
// name.
const DefaultTenant = "default"

// tenantMetrics bundles the server-layer per-tenant instrument
// handles, each a labeled series (tenant="<name>") in the shared
// registry.  All handles are nil-safe: with no registry attached
// every record call is a no-op.
type tenantMetrics struct {
	requests   *obs.Counter   // place requests received
	batches    *obs.Counter   // solver batches submitted (flushes + direct calls)
	rejected   *obs.Counter   // 429s issued by admission control
	inflight   *obs.Gauge     // requests queued or being placed right now
	queueDepth *obs.Gauge     // requests waiting in the coalescing queue
	batchSize  *obs.Histogram // containers per solver batch
}

// batchSizeBuckets is the bucket ladder for coalesced batch sizes.
var batchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// newTenantMetrics registers one tenant's labeled families.
func newTenantMetrics(reg *obs.Registry, name string) tenantMetrics {
	if reg == nil {
		return tenantMetrics{}
	}
	lbl := obs.Labels{"tenant": name}
	return tenantMetrics{
		requests:   reg.LabeledCounter("aladdin_tenant_place_requests_total", "POST /place requests received, per tenant", lbl),
		batches:    reg.LabeledCounter("aladdin_tenant_place_batches_total", "solver batches submitted (coalesced flushes and direct calls), per tenant", lbl),
		rejected:   reg.LabeledCounter("aladdin_tenant_rejected_total", "place requests rejected with 429 by admission control, per tenant", lbl),
		inflight:   reg.LabeledGauge("aladdin_tenant_inflight_requests", "place requests currently queued or being placed, per tenant", lbl),
		queueDepth: reg.LabeledGauge("aladdin_tenant_queue_depth", "place requests waiting in the coalescing queue, per tenant", lbl),
		batchSize:  reg.LabeledHistogram("aladdin_tenant_batch_size", "containers per solver batch after coalescing, per tenant", batchSizeBuckets, lbl),
	}
}

// Tenant is one named scheduling session: its own workload universe,
// session (one shard or several, via TenantSpec.Shards), checkpoint
// path, coalescing batcher, and labeled metrics.  Every cluster view
// the handlers serve is read through the session, which owns the live
// machines.  Handlers for /t/{tenant}/... resolve a Tenant and operate
// on it alone, so tenants never contend on each other's locks.
type Tenant struct {
	name string

	// mu is the session lock: mutating handlers take it exclusively
	// and read-only handlers share it, so a handler always sees one
	// consistent session state.  Read handlers, the health check and
	// the audits included, never write session state.
	// The core's own locks (placeMu and below) nest strictly inside it;
	// the analyzer sees only intra-package nesting, so the server-layer
	// levels (40/42/44) order the registry, batcher and tenant locks
	// among themselves.
	//
	//aladdin:lock-level 44 per-tenant session lock; innermost server-layer lock, never held while acquiring the registry or batcher locks
	mu       sync.RWMutex
	sess     *core.Session
	w        *workload.Workload
	byID     map[string]*workload.Container
	ckptPath string
	shards   int

	// resched is the rescheduling surface POST /consolidate and the
	// rebalancer drive: the session behind the tenant lock
	// (rebalanceTarget).
	resched rebalance.Target

	bat *batcher
	met tenantMetrics

	// rbMu guards the tenant's rebalancer lifecycle (lazy creation,
	// start/stop).  It is held while acquiring t.mu only transitively —
	// a cycle started under it takes t.mu through the target adapter —
	// never the other way around, and Tenant.stopRebalancer must never
	// run under t.mu: Stop waits for an in-flight cycle that needs t.mu
	// to finish.
	//
	//aladdin:lock-level 43 per-tenant rebalancer lifecycle lock; may be held while a cycle acquires the tenant session lock (44), never acquired under it
	rbMu sync.Mutex
	rb   *rebalance.Rebalancer
}

// newTenant wraps an existing session as a tenant.
func newTenant(name string, sess *core.Session, ckptPath string, shards int, reg *obs.Registry) *Tenant {
	w := sess.Workload()
	t := &Tenant{
		name:     name,
		sess:     sess,
		w:        w,
		byID:     make(map[string]*workload.Container, w.NumContainers()),
		ckptPath: ckptPath,
		shards:   shards,
		met:      newTenantMetrics(reg, name),
	}
	t.resched = rebalanceTarget{t}
	for _, c := range w.Containers() {
		t.byID[c.ID] = c
	}
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name } //aladdin:lock-ok name is immutable after construction

// TenantSpec describes a tenant to create, the JSON body of
// POST /tenants.  The zero knobs inherit from the default tenant:
// its workload universe (Factor 0), its cluster size (Machines 0),
// and the unsharded core (Shards ≤ 1).
type TenantSpec struct {
	Name string `json:"name"`
	// Machines sizes the tenant's private cluster (paper evaluation
	// shape); 0 copies the default tenant's cluster size.
	Machines int `json:"machines,omitempty"`
	// Factor, when positive, generates a private synthetic workload
	// universe at this trace scale divisor; 0 shares the default
	// tenant's universe (each tenant still schedules onto its own
	// cluster, so shared universes never contend).
	Factor int   `json:"factor,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// Shards, when > 1, splits the tenant's session into that many
	// shards (core.NewSharded); every endpoint, checkpoint and restore
	// included, works the same at any shard count.
	Shards int `json:"shards,omitempty"`
	// CheckpointPath is the tenant's default snapshot destination.
	CheckpointPath string `json:"checkpoint_path,omitempty"`
}

// validTenantName gates names usable in paths and metric labels.
func validTenantName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("tenant name must be 1–64 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("tenant name %q: only letters, digits, '-', '_', '.'", name)
		}
	}
	return nil
}

// CreateTenant builds and registers a tenant.  The expensive parts
// (workload generation, session construction) run outside the
// registry lock so scrapes and placements on other tenants never
// stall behind a creation.
func (s *Server) CreateTenant(spec TenantSpec) (*Tenant, error) {
	if err := validTenantName(spec.Name); err != nil {
		return nil, err
	}
	s.mu.RLock()
	_, exists := s.tenants[spec.Name]
	def := s.def
	s.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("tenant %q already exists", spec.Name)
	}
	defSize := def.sess.Cluster().Size()

	w := def.w
	if spec.Factor > 0 {
		seed := spec.Seed
		if seed == 0 {
			seed = 42
		}
		var err error
		w, err = trace.Generate(trace.Scaled(seed, spec.Factor))
		if err != nil {
			return nil, fmt.Errorf("tenant %q workload: %w", spec.Name, err)
		}
	}
	machines := spec.Machines
	if machines <= 0 {
		machines = defSize
	}
	cluster := topology.New(topology.AlibabaConfig(machines))

	opts := s.baseOpts
	opts.Metrics = s.reg
	opts.MetricLabels = obs.Labels{"tenant": spec.Name}
	opts.Shards = spec.Shards

	var sess *core.Session
	if spec.Shards > 1 {
		var err error
		if sess, err = core.NewSharded(opts, w, cluster); err != nil {
			return nil, fmt.Errorf("tenant %q sharded core: %w", spec.Name, err)
		}
	} else {
		sess = core.NewSession(opts, w, cluster)
	}
	t := newTenant(spec.Name, sess, spec.CheckpointPath, spec.Shards, s.reg)
	if s.coalesce.enabled() {
		t.bat = newBatcher(t, s.coalesce)
	}

	s.mu.Lock()
	_, raced := s.tenants[spec.Name]
	if !raced {
		s.tenants[spec.Name] = t
	}
	s.mu.Unlock()
	if raced {
		if t.bat != nil {
			t.bat.close()
		}
		return nil, fmt.Errorf("tenant %q already exists", spec.Name)
	}
	return t, nil
}

// DeleteTenant unregisters a tenant and drains its batcher so every
// queued request still gets a response.  The default tenant is
// undeletable — the un-prefixed routes depend on it.
func (s *Server) DeleteTenant(name string) error {
	if name == DefaultTenant {
		return fmt.Errorf("the default tenant cannot be deleted")
	}
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown tenant %q", name)
	}
	if t.bat != nil {
		t.bat.close()
	}
	t.stopRebalancer()
	return nil
}

// lookupTenant resolves a tenant by name; nil when unknown.
func (s *Server) lookupTenant(name string) *Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// tenantsSorted snapshots the registry in name order with the default
// tenant first — the stable iteration every rendering path uses.
func (s *Server) tenantsSorted() []*Tenant {
	s.mu.RLock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if (out[i].name == DefaultTenant) != (out[j].name == DefaultTenant) {
			return out[i].name == DefaultTenant
		}
		return out[i].name < out[j].name
	})
	return out
}

// tenantInfo is the JSON row of GET /tenants.
type tenantInfo struct {
	Name           string `json:"name"`
	Machines       int    `json:"machines"`
	MachinesDown   int    `json:"machines_down"`
	Containers     int    `json:"containers"`
	Placed         int    `json:"placed"`
	QueueDepth     int    `json:"queue_depth"`
	Coalescing     bool   `json:"coalescing"`
	Shards         int    `json:"shards,omitempty"`
	CheckpointPath string `json:"checkpoint_path,omitempty"`
}

// info reads one tenant's summary under its read lock.  The queue
// depth is read first: queueLen takes the batcher lock (level 42),
// which must not be acquired under t.mu (level 44).
func (t *Tenant) info() tenantInfo {
	depth := 0
	if t.bat != nil {
		depth = t.bat.queueLen()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	down := 0
	for _, cl := range t.sess.ShardClusters() {
		down += cl.DownMachines()
	}
	return tenantInfo{
		Name:           t.name,
		Machines:       t.sess.Cluster().Size(),
		MachinesDown:   down,
		Containers:     t.w.NumContainers(),
		Placed:         t.sess.NumPlaced(),
		QueueDepth:     depth,
		Coalescing:     t.bat != nil,
		Shards:         t.shards,
		CheckpointPath: t.ckptPath,
	}
}

// handleTenantsList renders GET /tenants.
func (s *Server) handleTenantsList(w http.ResponseWriter, _ *http.Request) {
	tenants := s.tenantsSorted()
	out := make([]tenantInfo, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.info())
	}
	writeJSON(w, out)
}

// handleTenantCreate serves POST /tenants.
func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if !decodeBody(w, r, &spec, false) {
		return
	}
	t, err := s.CreateTenant(spec)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSONStatus(w, http.StatusCreated, t.info())
}

// handleTenantDelete serves DELETE /tenants/{tenant}.
func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := s.DeleteTenant(name); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "unknown tenant") {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "deleted")
}
