package core

import (
	"fmt"
	"maps"
	"testing"

	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

func sessionWorkload() *workload.Workload {
	return workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 4, Priority: workload.PriorityHigh, AntiAffinitySelf: true},
		{ID: "db", Demand: resource.Cores(8, 16384), Replicas: 2, Priority: workload.PriorityMid, AntiAffinityApps: []string{"web"}},
		{ID: "batch", Demand: resource.Cores(2, 4096), Replicas: 6, Priority: workload.PriorityLow},
	})
}

func appContainers(w *workload.Workload, app string) []*workload.Container {
	var out []*workload.Container
	for _, c := range w.Containers() {
		if c.App == app {
			out = append(out, c)
		}
	}
	return out
}

func TestSessionIncrementalBatches(t *testing.T) {
	w := sessionWorkload()
	cl := smallCluster(8)
	s := NewSession(DefaultOptions(), w, cl)

	res1, err := s.Place(appContainers(w, "batch"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Undeployed) != 0 {
		t.Fatalf("batch 1 undeployed: %v", res1.Undeployed)
	}
	res2, err := s.Place(appContainers(w, "web"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Undeployed) != 0 {
		t.Fatalf("batch 2 undeployed: %v", res2.Undeployed)
	}
	res3, err := s.Place(appContainers(w, "db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Undeployed) != 0 {
		t.Fatalf("batch 3 undeployed: %v", res3.Undeployed)
	}
	if len(s.Assignment()) != 12 {
		t.Errorf("assignment size = %d, want 12", len(s.Assignment()))
	}
	if vs := s.Audit(); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
	if err := s.FlowConservation(); err != nil {
		t.Error(err)
	}
}

// TestAssignmentIsACopy mutates the map Assignment returns and checks
// that the session never sees it: a second Assignment, the invariant
// audit and the next Place all read the live state, at one shard and
// at two.
func TestAssignmentIsACopy(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			w := sessionWorkload()
			opts := DefaultOptions()
			opts.Shards = k
			s, err := NewSharded(opts, w, shardCluster(16))
			if err != nil {
				t.Fatal(err)
			}
			if s.NumShards() != k {
				t.Fatalf("shards = %d, want %d", s.NumShards(), k)
			}
			if _, err := s.Place(append(appContainers(w, "web"), appContainers(w, "batch")...)); err != nil {
				t.Fatal(err)
			}
			asg := s.Assignment()
			want := maps.Clone(asg)
			if len(want) != 10 || s.NumPlaced() != 10 {
				t.Fatalf("placed %d (NumPlaced %d), want 10", len(want), s.NumPlaced())
			}

			// Stack both web replicas, drop a batch container and invent
			// a db placement, all in the caller's map only.
			asg["web/1"] = asg["web/0"]
			delete(asg, "batch/0")
			asg["db/0"] = asg["web/0"]

			if got := s.Assignment(); !maps.Equal(got, want) {
				t.Fatalf("second Assignment = %v, want %v", got, want)
			}
			if vs := s.AuditInvariants(); len(vs) != 0 {
				t.Fatalf("audit after mutating the returned map: %v", vs)
			}
			res, err := s.Place(appContainers(w, "db"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Undeployed) != 0 {
				t.Fatalf("db undeployed: %v", res.Undeployed)
			}
			after := s.Assignment()
			if len(after) != 12 || s.NumPlaced() != 12 {
				t.Fatalf("placed %d (NumPlaced %d) after db, want 12", len(after), s.NumPlaced())
			}
			if vs := s.Audit(); len(vs) != 0 {
				t.Fatalf("violations after db: %v", vs)
			}
		})
	}
}

func TestSessionRejectsDuplicatesAndUnknown(t *testing.T) {
	w := sessionWorkload()
	cl := smallCluster(8)
	s := NewSession(DefaultOptions(), w, cl)
	web := appContainers(w, "web")
	if _, err := s.Place(web[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(web[:1]); err == nil {
		t.Error("double placement should fail")
	}
	ghost := &workload.Container{ID: "ghost/0", App: "ghost", Demand: resource.Cores(1, 1)}
	if _, err := s.Place([]*workload.Container{ghost}); err == nil {
		t.Error("unknown container should fail")
	}
	// Malformed requests must come back as errors, never crash the
	// serving process: a nil entry and a same-batch duplicate.
	if _, err := s.Place([]*workload.Container{web[1], nil}); err == nil {
		t.Error("nil container in batch should fail")
	}
	if _, err := s.Place([]*workload.Container{web[1], web[1]}); err == nil {
		t.Error("duplicate container within one batch should fail")
	}
	// The rejected batches must leave no partial state behind.
	if s.Placed(web[1].ID) {
		t.Error("rejected batch leaked a placement")
	}
	if vs := s.AuditInvariants(); len(vs) != 0 {
		t.Errorf("rejected batches left violations: %v", vs)
	}
}

func TestSessionRemoveAndReuse(t *testing.T) {
	w := sessionWorkload()
	cl := smallCluster(8)
	s := NewSession(DefaultOptions(), w, cl)
	web := appContainers(w, "web")
	if _, err := s.Place(web); err != nil {
		t.Fatal(err)
	}
	used := cl.UsedMachines()
	if err := s.Remove("web/0"); err != nil {
		t.Fatal(err)
	}
	if cl.UsedMachines() >= used && used > 1 {
		t.Log("machine may still host others; checking assignment instead")
	}
	if _, ok := s.Assignment()["web/0"]; ok {
		t.Error("web/0 should be gone from assignment")
	}
	if err := s.Remove("web/0"); err == nil {
		t.Error("double remove should fail")
	}
	if err := s.Remove("nope"); err == nil {
		t.Error("unknown remove should fail")
	}
	// Re-place the departed container: departures free capacity for
	// later arrivals.
	if _, err := s.Place(web[:1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Assignment()["web/0"]; !ok {
		t.Error("web/0 should be placed again")
	}
	if err := s.FlowConservation(); err != nil {
		t.Error(err)
	}
}

func TestSessionDeparturesUnblockArrivals(t *testing.T) {
	// Fill a single machine, then depart everything and verify a new
	// batch fits.
	w := workload.MustNew([]*workload.App{
		{ID: "gen1", Demand: resource.Cores(16, 16384), Replicas: 2},
		{ID: "gen2", Demand: resource.Cores(16, 16384), Replicas: 2},
	})
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(32, 64*1024),
	})
	s := NewSession(DefaultOptions(), w, cl)
	res, err := s.Place(appContainers(w, "gen1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undeployed) != 0 {
		t.Fatal("gen1 should fit exactly")
	}
	res2, err := s.Place(appContainers(w, "gen2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Undeployed) != 2 {
		t.Fatalf("gen2 should not fit while gen1 runs: %v", res2.Undeployed)
	}
	for _, c := range appContainers(w, "gen1") {
		if err := s.Remove(c.ID); err != nil {
			t.Fatal(err)
		}
	}
	res3, err := s.Place(appContainers(w, "gen2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Undeployed) != 0 {
		t.Fatalf("gen2 should fit after departures: %v", res3.Undeployed)
	}
}

func TestSessionPreemptionAcrossBatches(t *testing.T) {
	// A low-priority hog from batch 1 is preempted by a high-priority
	// arrival in batch 2.
	w := workload.MustNew([]*workload.App{
		{ID: "hog", Demand: resource.Cores(12, 8192), Replicas: 1, Priority: workload.PriorityLow},
		{ID: "vip", Demand: resource.Cores(10, 8192), Replicas: 1, Priority: workload.PriorityHigh},
	})
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(16, 32*1024),
	})
	s := NewSession(DefaultOptions(), w, cl)
	if _, err := s.Place(appContainers(w, "hog")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Place(appContainers(w, "vip"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Assignment()["vip/0"]; !ok {
		t.Fatal("vip must preempt across batches")
	}
	if res.Preemptions == 0 {
		t.Error("preemption count missing")
	}
	if _, ok := s.Assignment()["hog/0"]; ok {
		t.Error("hog should be evicted")
	}
}

func TestSessionConsolidate(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(2, 2048), Replicas: 8},
	})
	cl := smallCluster(8)
	s := NewSession(DefaultOptions(), w, cl)
	cs := appContainers(w, "a")
	// Place one per batch so first-fit sees shifting state; then
	// remove alternating ones to fragment.
	for _, c := range cs {
		if _, err := s.Place([]*workload.Container{c}); err != nil {
			t.Fatal(err)
		}
	}
	// All land on machine 0 (first fit, 16 cores total vs 32): no
	// fragmentation possible.  Force spread via removal and manual
	// re-place on a fresh session instead: simpler — fragmented state
	// arises naturally in bigger runs; here just assert Consolidate
	// is a no-op on a packed cluster.
	moved, err := s.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("consolidate on packed cluster moved %d", moved)
	}
	if vs := s.Audit(); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestSessionMatchesBatchScheduler(t *testing.T) {
	// Feeding the whole trace as one session batch must match the
	// one-shot Scheduler on headline metrics.
	w := trace.MustGenerate(trace.Scaled(42, 300))
	cl1 := smallCluster(128)
	cl2 := smallCluster(128)

	res1, err := NewDefault().Schedule(w, cl1, w.Arrange(workload.OrderInterleaved))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(DefaultOptions(), w, cl2)
	res2, err := s.Place(w.Arrange(workload.OrderInterleaved))
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Undeployed) != len(res2.Undeployed) {
		// The batch scheduler runs a final consolidation+retry; allow
		// the session to be no better, at most slightly worse.
		if len(res2.Undeployed) < len(res1.Undeployed) {
			t.Errorf("session (%d undeployed) beat batch (%d)?", len(res2.Undeployed), len(res1.Undeployed))
		}
	}
	if vs := s.Audit(); len(vs) != 0 {
		t.Errorf("session violations: %v", vs)
	}
}
