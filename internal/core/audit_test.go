package core

import (
	"errors"
	"testing"

	"aladdin/internal/flow"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// auditSession places every container of the session workload and
// asserts the auditor finds nothing — corruption tests start from a
// proven-clean session.
func auditSession(t *testing.T) (*Session, *workload.Workload) {
	t.Helper()
	w := sessionWorkload()
	s := NewSession(DefaultOptions(), w, smallCluster(8))
	if _, err := s.Place(w.Containers()); err != nil {
		t.Fatal(err)
	}
	if vs := s.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("clean session reports violations: %v", vs)
	}
	return s, w
}

func hasKind(vs []AuditViolation, kind AuditViolationKind) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func placedMachine(t *testing.T, s *Session, c *workload.Container) topology.MachineID {
	t.Helper()
	m := s.r.asg[c.Ord]
	if m == topology.Invalid {
		t.Fatalf("container %s not placed", c.ID)
	}
	return m
}

// TestAuditorDetectsBrokenConservation pushes one unit through a
// machine's N→t arc with no matching inflow: Equation 2 breaks at the
// machine vertex and the tier flow no longer matches the placements.
func TestAuditorDetectsBrokenConservation(t *testing.T) {
	s, w := auditSession(t)
	c := appContainers(w, "web")[0]
	m := placedMachine(t, s, c)
	if err := flow.AugmentPath(s.r.net.g, []int{int(s.r.net.ntArc[m])}, 1); err != nil {
		t.Fatal(err)
	}
	vs := s.AuditInvariants()
	if !hasKind(vs, AuditFlowConservation) {
		t.Errorf("no flow-conservation violation in %v", vs)
	}
	if !hasKind(vs, AuditTierFlow) {
		t.Errorf("no tier-flow violation in %v", vs)
	}
}

// TestAuditorDetectsViolatedBlacklist teleports a self-anti-affine
// web container onto its sibling's machine behind the scheduler's
// back: the anti-affinity audit and the assignment cross-check must
// both fire.
func TestAuditorDetectsViolatedBlacklist(t *testing.T) {
	s, w := auditSession(t)
	web := appContainers(w, "web")
	sibling := placedMachine(t, s, web[1])
	s.r.asg[web[0].Ord] = sibling
	vs := s.AuditInvariants()
	if !hasKind(vs, AuditAntiAffinity) {
		t.Errorf("no anti-affinity violation in %v", vs)
	}
	if !hasKind(vs, AuditAssignmentDrift) {
		t.Errorf("no assignment-drift violation in %v", vs)
	}
}

// TestAuditorDetectsInvertedPreemption forges a preemption log entry
// where a low-priority claimant evicted a high-priority victim — the
// inversion weighted flows exist to prevent.
func TestAuditorDetectsInvertedPreemption(t *testing.T) {
	s, w := auditSession(t)
	batch := appContainers(w, "batch")[0] // PriorityLow
	web := appContainers(w, "web")[0]     // PriorityHigh
	s.r.preemptLog = append(s.r.preemptLog, preemptEvent{
		claimant: batch, victim: web, machine: placedMachine(t, s, web),
	})
	vs := s.AuditInvariants()
	if !hasKind(vs, AuditPreemptionOrder) {
		t.Errorf("no preemption-order violation in %v", vs)
	}
}

// TestAuditorDetectsIndexDrift allocates resources on a machine
// without notifying the search index (the cached leaf and its
// ancestors diverge from live state) and separately corrupts a cached
// rack aggregate (the allocation alone need not move the rack's
// maximum if a freer machine still dominates it).
func TestAuditorDetectsIndexDrift(t *testing.T) {
	s, w := auditSession(t)
	c := appContainers(w, "web")[0]
	m := placedMachine(t, s, c)
	if err := s.r.cluster.Machine(m).Allocate("ghost/0", resource.Cores(2, 1024)); err != nil {
		t.Fatal(err)
	}
	agg := s.r.search.agg
	agg.refresh() // settle lazy staleness so the corruption below sticks
	agg.rackMaxFree[s.r.cluster.Machine(m).Rack] = resource.Cores(1, 1)
	vs := s.AuditInvariants()
	if !hasKind(vs, AuditIndexDrift) {
		t.Errorf("no index-drift violation in %v", vs)
	}
	if !hasKind(vs, AuditAggregateDrift) {
		t.Errorf("no aggregate-drift violation in %v", vs)
	}
}

// TestAuditorCleanAcrossFailure exercises the auditor across the
// failure/recovery lifecycle: a healthy session must stay
// violation-free through FailMachine and RecoverMachine.
func TestAuditorCleanAcrossFailure(t *testing.T) {
	s, w := auditSession(t)
	m := placedMachine(t, s, appContainers(w, "batch")[0])
	if _, err := s.FailMachine(m); err != nil {
		t.Fatal(err)
	}
	if vs := s.AuditInvariants(); len(vs) != 0 {
		t.Errorf("violations after failure: %v", vs)
	}
	if _, err := s.RecoverMachine(m); err != nil {
		t.Fatal(err)
	}
	if vs := s.AuditInvariants(); len(vs) != 0 {
		t.Errorf("violations after recovery: %v", vs)
	}
}

// TestCorruptionErrorSurfacesNotPanics corrupts a placed container's
// flow-units memo so that its unplace cancels too little flow and
// every re-augment — the forward move and the rollback's restore —
// fails on the exhausted s→T arc.  The failure must surface as a
// typed CorruptionError, not a panic that kills the serving process.
func TestCorruptionErrorSurfacesNotPanics(t *testing.T) {
	s, w := auditSession(t)
	web := appContainers(w, "web")
	blocker := web[0]
	m := placedMachine(t, s, blocker)
	_, ct, err := s.r.net.ctOrd(blocker)
	if err != nil {
		t.Fatal(err)
	}
	s.r.net.units[ct] = 1 // memo says 1 unit; the arc carries 4000
	_, err = s.r.relocate([]*workload.Container{blocker}, m, web[1])
	if err == nil {
		t.Fatal("sabotaged relocate returned no error")
	}
	if !errors.Is(err, ErrStateCorruption) {
		t.Errorf("errors.Is(err, ErrStateCorruption) = false for %v", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CorruptionError", err)
	}
	if ce.Op == "" || ce.Err == nil {
		t.Errorf("CorruptionError missing context: %+v", ce)
	}
}
