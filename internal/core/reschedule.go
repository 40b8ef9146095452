package core

import (
	"fmt"
	"time"

	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// This file is the continuous-rescheduling face of the session: the
// budgeted consolidation entry points, the stranded-container retry
// sweep that RecoverMachine and the background rebalancer share, and
// the packing statistics the rebalancer's triggers read.  Everything
// here warm-starts from the live flow network and search index — no
// state is rebuilt, so the cost of a call is proportional to the
// moves it makes, not to the cluster size.

// ConsolidateResult reports one budgeted consolidation call.
type ConsolidateResult struct {
	// Moves counts the containers relocated by this call.
	Moves int `json:"moves"`
	// More is set when eligible drain work remained beyond the
	// budget; a later call can resume it.  It is conservative: a
	// skipped machine may turn out undrainable when attempted.
	More bool `json:"more"`
}

// RetryResult reports one stranded-container retry sweep.
type RetryResult struct {
	// Retried counts the stranded containers the sweep attempted.
	Retried int `json:"retried"`
	// Replaced lists the retried containers that found a new home.
	Replaced []string `json:"replaced,omitempty"`
	// Migrations and Preemptions are the rescue moves the sweep
	// spent; under a budget their sum never exceeds it.
	Migrations  int `json:"migrations"`
	Preemptions int `json:"preemptions"`
}

// RecoverResult reports one RecoverMachine call, including the
// automatic stranded-container retry it runs.
type RecoverResult struct {
	Machine topology.MachineID `json:"machine"`
	// Retried / Replaced / Migrations / Preemptions describe the
	// stranded retry sweep (all zero when nothing was stranded).
	Retried     int           `json:"retried"`
	Replaced    []string      `json:"replaced,omitempty"`
	Migrations  int           `json:"migrations"`
	Preemptions int           `json:"preemptions"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// PackingStats is a cheap point-in-time summary of placement quality,
// read by the rebalancer to decide whether a cycle is worth running.
type PackingStats struct {
	// Machines is the cluster size; Used counts up machines hosting
	// at least one container; Down counts machines out of service.
	Machines int `json:"machines"`
	Used     int `json:"used"`
	Down     int `json:"down"`
	// MeanUtilization is the mean CPU utilization across up machines
	// in [0, 1].
	MeanUtilization float64 `json:"mean_utilization"`
	// FreeCPU is the total free CPU across up machines and
	// LargestFreeCPU the biggest single-machine slab of it — their
	// ratio is the fragmentation signal (free capacity that exists
	// but is shattered across machines).
	FreeCPU        int64 `json:"free_cpu"`
	LargestFreeCPU int64 `json:"largest_free_cpu"`
	// Stranded counts containers knocked out by machine failures and
	// still waiting for a feasible home.
	Stranded int `json:"stranded"`
}

// packingAccum folds one or more clusters (a session owns a cluster
// per shard) into a PackingStats.
type packingAccum struct {
	ps      PackingStats
	utilSum float64
	up      int
}

// add folds one cluster's machines into the accumulator.  The
// utilization ratio is a reporting metric, never an allocation
// decision; every capacity aggregate here stays exact int64.
//
//aladdin:float-ok reporting metric, not capacity accounting
func (a *packingAccum) add(cluster *topology.Cluster) {
	a.ps.Machines += cluster.Size()
	for _, m := range cluster.Machines() {
		if !m.Up() {
			a.ps.Down++
			continue
		}
		a.up++
		if m.NumContainers() > 0 {
			a.ps.Used++
		}
		free := m.Free().Dim(resource.CPU)
		cap := m.Capacity().Dim(resource.CPU)
		a.ps.FreeCPU += free
		if free > a.ps.LargestFreeCPU {
			a.ps.LargestFreeCPU = free
		}
		if cap > 0 {
			a.utilSum += float64(cap-free) / float64(cap)
		}
	}
}

// finish closes out the accumulator, averaging the per-machine
// utilization ratios across up machines.
//
//aladdin:float-ok reporting metric, not capacity accounting
func (a *packingAccum) finish(stranded int) PackingStats {
	a.ps.Stranded = stranded
	if a.up > 0 {
		a.ps.MeanUtilization = a.utilSum / float64(a.up)
	}
	return a.ps
}

// PackingStats summarises the session's current placement quality
// across its shard clusters.
func (s *Session) PackingStats() PackingStats {
	var a packingAccum
	for _, sh := range s.shards {
		sh.mu.Lock()
		a.add(sh.cluster)
		sh.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return a.finish(s.strandedN)
}

// RetryStranded re-submits every failure-stranded container through
// the placement pipeline as one priority-ordered queue (highest
// first, like FailMachine's re-placement), spending at most budget
// rescue moves — migrations plus preemption evictions; direct
// placements are free (0 = unlimited).  At K>1 the queue is routed
// and spilled like a Place batch, with the shards run in order so one
// budget threads through all of them.  Containers that still fit
// nowhere — and collateral victims the sweep preempts — stay stranded
// for the next sweep.
func (s *Session) RetryStranded(budget int) (*RetryResult, error) {
	// Holding placeMu from the ledger scan on keeps concurrent Place
	// calls from claiming a queued container first.
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	queue := s.strandedQueue()
	res := &RetryResult{Retried: len(queue)}
	if len(queue) == 0 {
		return res, nil
	}
	pr, err := s.placeLocked(queue, budget, ledgerStranded)
	if pr == nil {
		return res, err
	}
	res.Migrations = pr.Migrations
	res.Preemptions = pr.Preemptions
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range queue {
		if s.ledger[c.Ord] == ledgerPlaced {
			res.Replaced = append(res.Replaced, c.ID)
		}
	}
	return res, err
}

// strandedQueue lists the failure-stranded containers in retry order.
func (s *Session) strandedQueue() []*workload.Container {
	cs := s.w.Containers()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.strandedN == 0 {
		return nil
	}
	queue := make([]*workload.Container, 0, s.strandedN)
	for ord, st := range s.ledger {
		if st == ledgerStranded {
			queue = append(queue, cs[ord])
		}
	}
	sortByPriority(queue)
	return queue
}

// StrandedIDs lists the failure-stranded containers in workload
// ordinal order.  The slice is freshly allocated; callers may keep it.
func (s *Session) StrandedIDs() []string {
	cs := s.w.Containers()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.strandedN == 0 {
		return nil
	}
	out := make([]string, 0, s.strandedN)
	for ord, st := range s.ledger {
		if st == ledgerStranded {
			out = append(out, cs[ord].ID)
		}
	}
	return out
}

// Forget clears a container's failure-stranded mark so retry sweeps
// stop attempting it — the online simulator calls it when a stranded
// container's application departs.  Forgetting a placed container is
// an error (use Remove); forgetting a container that is not stranded
// is a no-op.
func (s *Session) Forget(containerID string) error {
	c := s.byID[containerID]
	if c == nil {
		return fmt.Errorf("core: session: unknown container %s", containerID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger[c.Ord] == ledgerPlaced {
		return fmt.Errorf("core: session: container %s is placed; use Remove", containerID)
	}
	if s.ledger[c.Ord] == ledgerStranded {
		s.setLedger(c.Ord, ledgerUndeployed)
	}
	return nil
}
