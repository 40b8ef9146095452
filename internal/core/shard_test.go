package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// shardCluster builds a cluster with one sub-cluster per 8 machines
// (4 per rack, 2 racks per sub), so shard counts up to machines/8 are
// exercisable.
func shardCluster(machines int) *topology.Cluster {
	return topology.New(topology.Config{
		Machines:        machines,
		MachinesPerRack: 4,
		RacksPerCluster: 2,
		Capacity:        resource.Cores(32, 64*1024),
	})
}

func newSharded(t *testing.T, opts Options, w *workload.Workload, cl *topology.Cluster) *ShardedSession {
	t.Helper()
	s, err := NewSharded(opts, w, cl)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustCleanSharded asserts the sharded session is fully audit-clean:
// every shard's invariant auditor, the wrapper coherence check, flow
// conservation, and global anti-affinity over the merged assignment in
// parent machine-id space (the cross-shard view no single shard can
// check on its own).
func mustCleanSharded(t *testing.T, s *ShardedSession, step int, op string) {
	t.Helper()
	if vs := s.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("step %d (%s): sharded invariants broken: %v", step, op, vs)
	}
	if err := s.FlowConservation(); err != nil {
		t.Fatalf("step %d (%s): flow conservation: %v", step, op, err)
	}
	if vs := constraint.AuditAntiAffinity(s.w, s.Assignment()); len(vs) != 0 {
		t.Fatalf("step %d (%s): global anti-affinity violated: %v", step, op, vs)
	}
}

func TestShardedConstruction(t *testing.T) {
	w := sessionWorkload()
	cl := shardCluster(32) // 4 sub-clusters
	cases := []struct{ shards, want int }{
		{0, 1}, {1, 1}, {2, 2}, {4, 4}, {8, 4}, {-3, 1},
	}
	for _, c := range cases {
		opts := DefaultOptions()
		opts.Shards = c.shards
		s := newSharded(t, opts, w, cl)
		if got := s.NumShards(); got != c.want {
			t.Errorf("Shards=%d: NumShards=%d, want %d", c.shards, got, c.want)
		}
		// The shard clusters partition the parent: every machine
		// appears exactly once, in parent traversal order within its
		// shard, and capacities carry over.
		total := 0
		seen := make(map[string]bool)
		for _, shc := range s.ShardClusters() {
			total += shc.Size()
			for _, m := range shc.Machines() {
				if seen[m.Name] {
					t.Fatalf("Shards=%d: machine %s in two shards", c.shards, m.Name)
				}
				seen[m.Name] = true
			}
		}
		if total != cl.Size() {
			t.Errorf("Shards=%d: shard machines total %d, parent has %d", c.shards, total, cl.Size())
		}
		// Round-trip the routing tables.
		for gid := 0; gid < cl.Size(); gid++ {
			g := topology.MachineID(gid)
			sh, lid, err := s.locate(g)
			if err != nil {
				t.Fatalf("locate(%d): %v", gid, err)
			}
			if got := sh.cluster.Machine(lid).Name; got != cl.Machine(g).Name {
				t.Errorf("machine %d routes to %s, want %s", gid, got, cl.Machine(g).Name)
			}
		}
	}

	// Sharding an already-populated cluster must be rejected: the
	// shard copies would silently drop the live allocations.
	dirty := shardCluster(16)
	if err := dirty.Machine(0).Allocate("x", resource.Cores(1, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded(DefaultOptions(), w, dirty); err == nil {
		t.Error("NewSharded accepted a cluster with live allocations")
	}
}

// TestShardedMatchesSequential drives an identical mixed schedule
// through a concurrent and a sequential sharded session for several
// shard counts: the two must agree on every error outcome and stay
// byte-identical on the merged assignment after every operation.
func TestShardedMatchesSequential(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			w := sessionWorkload()
			par := newSharded(t, shardedOpts(k), w, shardCluster(32))
			seq := newSharded(t, shardedOpts(k), w, shardCluster(32))
			seq.sequential = true
			containers := w.Containers()
			// A fixed schedule with placement churn, failures in both
			// shard ranges, recoveries and removals.
			schedule := []byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 2, 66, 1, 5, 3, 67, 0, 4, 44, 40, 2, 14, 3, 15}
			for i, b := range schedule {
				op, arg := int(b&3), int(b>>2)
				var errs [2]error
				for si, s := range []*ShardedSession{par, seq} {
					switch op {
					case 0:
						c := containers[arg%len(containers)]
						if !s.Placed(c.ID) {
							_, errs[si] = s.Place([]*workload.Container{c})
						}
					case 1:
						c := containers[arg%len(containers)]
						if s.Placed(c.ID) {
							errs[si] = s.Remove(c.ID)
						}
					case 2:
						_, errs[si] = s.FailMachine(topology.MachineID(arg % 32))
					case 3:
						_, errs[si] = s.RecoverMachine(topology.MachineID(arg % 32))
					}
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("step %d: concurrent err %v, sequential err %v", i, errs[0], errs[1])
				}
				pa, sa := par.Assignment(), seq.Assignment()
				if len(pa) != len(sa) {
					t.Fatalf("step %d: concurrent placed %d, sequential %d", i, len(pa), len(sa))
				}
				for id, m := range pa {
					if sm, ok := sa[id]; !ok || sm != m {
						t.Fatalf("step %d: container %s on machine %d concurrent, %d sequential", i, id, m, sm)
					}
				}
				mustCleanSharded(t, par, i, "op")
				mustCleanSharded(t, seq, i, "op")
			}
		})
	}
}

func shardedOpts(k int) Options {
	o := DefaultOptions()
	o.Shards = k
	return o
}

// TestShardedSpill overfills an application's home shard: the
// overflow must land on other shards instead of stranding, and the
// batch result must report every container placed.
func TestShardedSpill(t *testing.T) {
	// Shard 0 owns 8 machines × 32 cores = 256 cores; 20 replicas of
	// 16 cores need 320, so at least 4 must spill to shard 1.
	w := workload.MustNew([]*workload.App{
		{ID: "big", Demand: resource.Cores(16, 16*1024), Replicas: 20},
	})
	s := newSharded(t, shardedOpts(2), w, shardCluster(16))
	res, err := s.Place(w.Containers())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undeployed) != 0 {
		t.Fatalf("undeployed with cluster-wide capacity available: %v", res.Undeployed)
	}
	if got := len(res.Assignment); got != 20 {
		t.Fatalf("batch assignment has %d containers, want 20", got)
	}
	spilled := 0
	for _, m := range res.Assignment {
		if int(m) >= 8 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Error("no container spilled to shard 1 despite home-shard overflow")
	}
	mustCleanSharded(t, s, 0, "spill")
}

// TestShardedCrossShardAntiAffinity is the DL-boundary satellite: an
// application whose self-anti-affine replicas cannot all fit in its
// home shard must span sub-clusters without ever co-locating two
// replicas on one machine, checked on the merged global assignment.
func TestShardedCrossShardAntiAffinity(t *testing.T) {
	// 16 self-anti-affine replicas vs a home shard of 8 machines: at
	// most 8 place at home, the rest must spread across other shards.
	w := workload.MustNew([]*workload.App{
		{ID: "aa", Demand: resource.Cores(2, 2048), Replicas: 16, AntiAffinitySelf: true},
	})
	s := newSharded(t, shardedOpts(4), w, shardCluster(32))
	res, err := s.Place(w.Containers())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undeployed) != 0 {
		t.Fatalf("undeployed: %v (32 machines can host 16 anti-affine replicas)", res.Undeployed)
	}
	byMachine := make(map[topology.MachineID]int)
	shardsUsed := make(map[int32]bool)
	for _, m := range res.Assignment {
		byMachine[m]++
		if byMachine[m] > 1 {
			t.Fatalf("machine %d hosts %d replicas of a self-anti-affine app", m, byMachine[m])
		}
		shardsUsed[s.ownerOf[m]] = true
	}
	if len(shardsUsed) < 2 {
		t.Errorf("app should span shards (home shard holds at most 8 of 16), used %d", len(shardsUsed))
	}
	mustCleanSharded(t, s, 0, "anti-affinity")
}

// TestShardedFailRecoverRouting exercises machine failure and repair
// through the global-id routing layer on a non-zero shard.
func TestShardedFailRecoverRouting(t *testing.T) {
	w := sessionWorkload()
	s := newSharded(t, shardedOpts(2), w, shardCluster(16))
	if _, err := s.Place(w.Containers()); err != nil {
		t.Fatal(err)
	}
	mustCleanSharded(t, s, 0, "place")

	// Find a hosting machine owned by shard 1 (global ids 8..15).
	var target topology.MachineID = topology.Invalid
	for id, m := range s.Assignment() {
		if int(m) >= 8 {
			target = m
			_ = id
			break
		}
	}
	if target == topology.Invalid {
		t.Skip("no container landed on shard 1 for this workload")
	}
	res, err := s.FailMachine(target)
	if err != nil {
		t.Fatalf("FailMachine(%d): %v", target, err)
	}
	if res.Machine != target {
		t.Errorf("FailureResult.Machine = %d, want the global id %d", res.Machine, target)
	}
	if res.Evicted == 0 {
		t.Error("failed a hosting machine but evicted nothing")
	}
	mustCleanSharded(t, s, 1, "fail")
	for _, m := range s.Assignment() {
		if m == target {
			t.Fatalf("container still assigned to failed machine %d", target)
		}
	}
	if _, err := s.FailMachine(target); err == nil {
		t.Error("second FailMachine on a down machine should error")
	}
	if _, err := s.RecoverMachine(target); err != nil {
		t.Fatalf("RecoverMachine(%d): %v", target, err)
	}
	if _, err := s.RecoverMachine(target); err == nil {
		t.Error("recovering an up machine should error")
	}
	if _, err := s.FailMachine(topology.MachineID(999)); err == nil {
		t.Error("failing an unknown machine should error")
	}
	mustCleanSharded(t, s, 2, "recover")
}

// TestShardedRemove round-trips departure and re-arrival through the
// ownership table.
func TestShardedRemove(t *testing.T) {
	w := sessionWorkload()
	s := newSharded(t, shardedOpts(2), w, shardCluster(16))
	if _, err := s.Place(w.Containers()); err != nil {
		t.Fatal(err)
	}
	id := w.Containers()[0].ID
	if err := s.Remove(id); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s.Placed(id) {
		t.Fatalf("container %s still placed after Remove", id)
	}
	if err := s.Remove(id); err == nil {
		t.Error("second Remove should error")
	}
	if err := s.Remove("nope/0"); err == nil {
		t.Error("removing an unknown container should error")
	}
	if _, err := s.Place([]*workload.Container{w.Containers()[0]}); err != nil {
		t.Fatalf("re-place after Remove: %v", err)
	}
	mustCleanSharded(t, s, 0, "remove")
}

// TestShardedConcurrentFailRecoverRacingPlace is the -race satellite:
// placements fan out across shards while machine failures and repairs
// hammer the same shards from other goroutines.  After the storm
// drains, every shard and the wrapper tables must be audit-clean and
// flow-conserving.  Shard counts cover the CI matrix {1, 4,
// GOMAXPROCS}.
func TestShardedConcurrentFailRecoverRacingPlace(t *testing.T) {
	counts := map[int]bool{1: true, 4: true, runtime.GOMAXPROCS(0): true}
	for k := range counts {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			apps := make([]*workload.App, 16)
			for i := range apps {
				apps[i] = &workload.App{
					ID:               fmt.Sprintf("app%02d", i),
					Demand:           resource.Cores(2, 4096),
					Replicas:         8,
					AntiAffinitySelf: i%3 == 0,
				}
			}
			w := workload.MustNew(apps)
			cl := shardCluster(64)
			s := newSharded(t, shardedOpts(k), w, cl)

			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				containers := w.Containers()
				for i := 0; i < len(containers); i += 4 {
					end := i + 4
					if end > len(containers) {
						end = len(containers)
					}
					if _, err := s.Place(containers[i:end]); err != nil {
						t.Errorf("Place: %v", err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				// Deterministic LCG over machine ids; every failed
				// machine is recovered before the goroutine exits.
				x := uint32(12345)
				for i := 0; i < 64; i++ {
					x = x*1664525 + 1013904223
					m := topology.MachineID(x % 64)
					if _, err := s.FailMachine(m); err == nil {
						_, _ = s.RecoverMachine(m)
					}
				}
			}()
			wg.Wait()
			mustCleanSharded(t, s, 0, "drain")
		})
	}
}
