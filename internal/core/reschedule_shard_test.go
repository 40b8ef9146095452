package core

import (
	"fmt"
	"sync"
	"testing"

	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// TestShardedConsolidateNIncremental proves the sharded sweep is
// genuinely incremental: with a move budget of 1 every call performs
// at most one move, and a placement issued between two calls lands
// immediately instead of queueing behind the rest of the drain — the
// old Consolidate pinned placeMu for the whole sweep, so this
// interleaving was impossible.
func TestShardedConsolidateNIncremental(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "fill", Demand: resource.Cores(8, 16384), Replicas: 64},
		{ID: "mid", Demand: resource.Cores(8, 16384), Replicas: 2},
	})
	s := newSharded(t, shardedOpts(2), w, shardCluster(16))
	res, err := s.Place(appContainers(w, "fill"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undeployed) != 0 {
		t.Fatalf("fill left %d undeployed", len(res.Undeployed))
	}
	// Scatter: one resident per machine, worst case for packing.
	for m, ids := range byMachine(s.Assignment()) {
		for _, id := range ids[1:] {
			if err := s.Remove(id); err != nil {
				t.Fatalf("remove %s from machine %d: %v", id, m, err)
			}
		}
	}
	if used := len(byMachine(s.Assignment())); used != 16 {
		t.Fatalf("scatter produced %d used machines, want 16", used)
	}

	mid := appContainers(w, "mid")
	var calls, moves int
	for {
		r, err := s.ConsolidateN(1)
		if err != nil {
			t.Fatalf("ConsolidateN(1) call %d: %v", calls, err)
		}
		if r.Moves > 1 {
			t.Fatalf("call %d moved %d containers on a budget of 1", calls, r.Moves)
		}
		moves += r.Moves
		calls++
		// Mid-sweep placements: the budgeted sweep holds no lock
		// between calls, so these must land right away.
		if calls == 3 {
			for _, c := range mid {
				if _, err := s.Place([]*workload.Container{c}); err != nil {
					t.Fatalf("mid-sweep Place(%s): %v", c.ID, err)
				}
				if !s.Placed(c.ID) {
					t.Fatalf("mid-sweep placement %s did not land between drain steps", c.ID)
				}
			}
		}
		if !r.More {
			break
		}
		if calls > 128 {
			t.Fatalf("budget-1 sweep did not converge after %d calls", calls)
		}
	}
	if calls < 4 {
		t.Fatalf("sweep converged in %d calls; mid-sweep placement never interleaved", calls)
	}
	if moves == 0 {
		t.Fatal("sweep converged without moving anything on a 16-way scatter")
	}
	// 16 fill containers + 2 mid at 8 cores on 32-core machines pack
	// into at most 5 machines (one shard holds the extra pair).
	if used := len(byMachine(s.Assignment())); used > 6 {
		t.Errorf("post-sweep packing uses %d machines, want <= 6", used)
	}
	for _, c := range mid {
		if !s.Placed(c.ID) {
			t.Errorf("mid-sweep placement %s lost during consolidation", c.ID)
		}
	}
	mustCleanSharded(t, s, calls, "consolidate")
}

// TestShardedConcurrentConsolidateRacingPlace is the -race proof for
// the incremental sweep: one goroutine runs budgeted consolidation
// cycles in a loop while another streams placements and departures
// into the same shards.  Because ConsolidateN never takes placeMu and
// releases each shard lock between chunks, the traffic interleaves;
// afterwards every shard must be audit-clean and flow-conserving.
func TestShardedConcurrentConsolidateRacingPlace(t *testing.T) {
	apps := make([]*workload.App, 16)
	for i := range apps {
		apps[i] = &workload.App{
			ID:       fmt.Sprintf("app%02d", i),
			Demand:   resource.Cores(2, 4096),
			Replicas: 8,
		}
	}
	w := workload.MustNew(apps)
	s := newSharded(t, shardedOpts(4), w, shardCluster(32))
	containers := w.Containers()
	half := len(containers) / 2
	if _, err := s.Place(containers[:half]); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, c := range containers[half:] {
			if _, err := s.Place([]*workload.Container{c}); err != nil {
				t.Errorf("Place(%s): %v", c.ID, err)
				return
			}
			// Departures reopen holes for the sweep to chase.
			if i%4 == 3 {
				victim := containers[half+i-3]
				if err := s.Remove(victim.ID); err != nil {
					t.Errorf("Remove(%s): %v", victim.ID, err)
					return
				}
			}
		}
	}()
	cycles := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.ConsolidateN(2); err != nil {
				t.Errorf("ConsolidateN during churn: %v", err)
				return
			}
			cycles++
		}
	}()
	wg.Wait()
	if cycles == 0 {
		t.Log("consolidator never cycled before the placer finished")
	}

	// Let the sweep finish uncontended, then audit everything.
	if _, err := s.ConsolidateN(0); err != nil {
		t.Fatalf("final ConsolidateN: %v", err)
	}
	mustCleanSharded(t, s, cycles, "concurrent consolidate")
	// The placer removed every 4th streamed container (index i-3 at
	// each i%4==3 step, i.e. the indices divisible by 4).
	for i, c := range containers[half:] {
		removed := i%4 == 0 && i+3 < half
		if got := s.Placed(c.ID); got == removed {
			t.Errorf("container %s: placed=%v, want %v", c.ID, got, !removed)
		}
	}
}

// TestShardedRetryStrandedBudget: a budgeted stranded sweep on a
// 2-shard session never spends more rescue moves than its budget, even
// when the work spills from a full home shard onto the other shard.
// Shard 1 fills with high-priority whole-machine containers and shard 0
// with mid-priority ones; failing two shard-1 machines strands two
// high-priority containers that only a preemption on shard 0 can
// re-place.
func TestShardedRetryStrandedBudget(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "mid", Demand: resource.Cores(32, 64*1024), Replicas: 8, Priority: workload.PriorityMid},
		{ID: "hi", Demand: resource.Cores(32, 64*1024), Replicas: 8, Priority: workload.PriorityHigh},
	})
	s := newSharded(t, shardedOpts(2), w, shardCluster(16))
	for _, app := range []string{"mid", "hi"} {
		res, err := s.Place(appContainers(w, app))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Undeployed) != 0 {
			t.Fatalf("%s left %v undeployed", app, res.Undeployed)
		}
	}
	for _, m := range []topology.MachineID{8, 9} {
		if _, err := s.FailMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.StrandedIDs()); got != 2 {
		t.Fatalf("%d stranded after the failures, want 2", got)
	}
	for sweep := 0; sweep < 3; sweep++ {
		rr, err := s.RetryStranded(1)
		if err != nil {
			t.Fatal(err)
		}
		if moves := rr.Migrations + rr.Preemptions; moves > 1 {
			t.Fatalf("sweep %d spent %d moves under a budget of 1: %+v", sweep, moves, rr)
		}
		if sweep == 0 && len(rr.Replaced) != 1 {
			t.Fatalf("first sweep replaced %v, want one high-priority container", rr.Replaced)
		}
		mustCleanSharded(t, s, sweep, "budgeted retry")
	}
}
