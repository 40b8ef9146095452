package server

import (
	"fmt"
	"net/http"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/rebalance"
)

// This file is the HTTP face of continuous rescheduling: the one-shot
// POST /consolidate and POST /rebalance endpoints, the background
// loop's start/stop lifecycle, and the locking adapter that lets a
// rebalance.Rebalancer drive a tenant's session safely.

// rebalanceTarget adapts a Tenant to rebalance.Target: every call
// takes the tenant session lock exactly as the equivalent handler
// would, so a background cycle and an HTTP mutation never interleave
// inside the scheduler core.
type rebalanceTarget struct{ t *Tenant }

func (rt rebalanceTarget) PackingStats() core.PackingStats {
	rt.t.mu.RLock()
	defer rt.t.mu.RUnlock()
	return rt.t.sess.PackingStats()
}

func (rt rebalanceTarget) ConsolidateN(budget int) (core.ConsolidateResult, error) {
	rt.t.mu.Lock()
	defer rt.t.mu.Unlock()
	return rt.t.sess.ConsolidateN(budget)
}

func (rt rebalanceTarget) RetryStranded(budget int) (*core.RetryResult, error) {
	rt.t.mu.Lock()
	defer rt.t.mu.Unlock()
	return rt.t.sess.RetryStranded(budget)
}

// The audits only read, so they take the read lock, like
// handleHealth.
func (rt rebalanceTarget) AuditInvariants() []core.AuditViolation {
	rt.t.mu.RLock()
	defer rt.t.mu.RUnlock()
	return rt.t.sess.AuditInvariants()
}

func (rt rebalanceTarget) FlowConservation() error {
	rt.t.mu.RLock()
	defer rt.t.mu.RUnlock()
	return rt.t.sess.FlowConservation()
}

// rebalancer lazily builds the tenant's Rebalancer.  The instance is
// created once and reconfigured by Start calls; cycles serialize
// inside it, so one-shot POST /rebalance sweeps and the background
// loop never interleave their moves.
func (t *Tenant) rebalancer(reg *obs.Registry) *rebalance.Rebalancer {
	t.rbMu.Lock()
	defer t.rbMu.Unlock()
	if t.rb == nil {
		cfg := rebalance.Config{Audit: true}
		if reg != nil {
			cfg.Metrics = reg
			cfg.MetricLabels = obs.Labels{"tenant": t.name}
		}
		t.rb = rebalance.New(t.resched, cfg)
	}
	return t.rb
}

// stopRebalancer halts the tenant's background loop if one runs.
// Never call it under t.mu: Stop waits for an in-flight cycle, and
// the cycle needs t.mu to finish.
func (t *Tenant) stopRebalancer() {
	t.rbMu.Lock()
	rb := t.rb
	t.rbMu.Unlock()
	if rb != nil {
		rb.Stop()
	}
}

// StartRebalancer launches a tenant's background rebalancing loop
// with the given cycle interval and per-cycle move budget (0 =
// unlimited).  It errors on an unknown tenant, a non-positive
// interval, or a loop that is already running.
func (s *Server) StartRebalancer(tenant string, interval time.Duration, budget int) error {
	t := s.lookupTenant(tenant)
	if t == nil {
		return fmt.Errorf("unknown tenant %q", tenant)
	}
	if interval <= 0 {
		return fmt.Errorf("rebalance interval must be positive")
	}
	t.rebalancer(s.reg) // ensure the instance exists
	t.rbMu.Lock()
	defer t.rbMu.Unlock()
	if t.rb.Running() {
		return fmt.Errorf("tenant %q rebalancer already running", tenant)
	}
	if err := t.rb.SetSchedule(interval, budget); err != nil {
		return err
	}
	return t.rb.Start()
}

// budgetRequest is the JSON body of /consolidate and /rebalance; an
// empty body means unlimited budget.
type budgetRequest struct {
	// Budget caps container moves for this call; 0 = unlimited.
	Budget int `json:"budget,omitempty"`
}

// decodeBudget parses an optional budget body; a missing body is the
// zero request.  On a bad body it answers the request and returns
// false.
func decodeBudget(w http.ResponseWriter, r *http.Request) (budgetRequest, bool) {
	var req budgetRequest
	if !decodeBody(w, r, &req, true) {
		return req, false
	}
	if req.Budget < 0 {
		http.Error(w, "budget must be non-negative", http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// schedulerErrorStatus maps a scheduler error for the response: state
// corruption is a 500 — the session can no longer be trusted and the
// operator must restore from a checkpoint — anything else a 409.
func schedulerErrorStatus(err error) int {
	if rebalance.IsCorruption(err) {
		return http.StatusInternalServerError
	}
	return http.StatusConflict
}

// handleConsolidate runs one budgeted consolidation pass — the direct
// path to Session.ConsolidateN, for operators who want machine
// draining without the rebalancer's triggers.
func (s *Server) handleConsolidate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	req, ok := decodeBudget(w, r)
	if !ok {
		return
	}
	res, err := t.resched.ConsolidateN(req.Budget)
	if err != nil {
		http.Error(w, err.Error(), schedulerErrorStatus(err))
		return
	}
	writeJSON(w, res)
}

// handleRebalance runs one full rebalancing cycle (stranded retry,
// triggered consolidation, audit) and returns its CycleResult.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request, t *Tenant) {
	req, ok := decodeBudget(w, r)
	if !ok {
		return
	}
	res := t.rebalancer(s.reg).RunCycleBudget(req.Budget)
	if res.Err != nil {
		http.Error(w, res.Err.Error(), schedulerErrorStatus(res.Err))
		return
	}
	writeJSON(w, res)
}

// rebalanceStartRequest is the JSON body of /rebalance/start.
type rebalanceStartRequest struct {
	// IntervalMS is the background cycle period in milliseconds.
	IntervalMS int `json:"interval_ms"`
	// Budget caps moves per cycle; 0 = unlimited.
	Budget int `json:"budget,omitempty"`
}

// handleRebalanceStart launches the tenant's background loop.
func (s *Server) handleRebalanceStart(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req rebalanceStartRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if req.IntervalMS <= 0 || req.Budget < 0 {
		http.Error(w, "interval_ms must be positive and budget non-negative", http.StatusBadRequest)
		return
	}
	err := s.StartRebalancer(t.name, time.Duration(req.IntervalMS)*time.Millisecond, req.Budget)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "started")
}

// handleRebalanceStop halts the tenant's background loop; stopping a
// loop that isn't running is a no-op, so the endpoint is idempotent.
func (s *Server) handleRebalanceStop(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	t.stopRebalancer()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "stopped")
}
