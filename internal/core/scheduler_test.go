package core

import (
	"testing"

	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

func smallCluster(machines int) *topology.Cluster {
	return topology.New(topology.Config{
		Machines:        machines,
		MachinesPerRack: 4,
		RacksPerCluster: 4,
		Capacity:        resource.Cores(32, 64*1024),
	})
}

func mustSchedule(t *testing.T, s *Scheduler, w *workload.Workload, cl *topology.Cluster, order workload.ArrivalOrder) *sched.Result {
	t.Helper()
	res, err := s.Schedule(w, cl, w.Arrange(order))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := res.Verify(w, cl); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return res
}

func TestScheduleSimple(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 8192), Replicas: 3},
	})
	cl := smallCluster(2)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 0 {
		t.Errorf("undeployed: %v", res.Undeployed)
	}
	if res.Deployed() != 3 {
		t.Errorf("deployed = %d", res.Deployed())
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

func TestScheduleSelfAntiAffinitySpreads(t *testing.T) {
	// 4 replicas with self anti-affinity on 4 machines: one each.
	w := workload.MustNew([]*workload.App{
		{ID: "spread", Demand: resource.Cores(1, 1024), Replicas: 4, AntiAffinitySelf: true},
	})
	cl := smallCluster(4)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 0 {
		t.Fatalf("undeployed: %v", res.Undeployed)
	}
	seen := map[topology.MachineID]bool{}
	for _, m := range res.Assignment {
		if seen[m] {
			t.Fatal("two replicas share a machine despite self anti-affinity")
		}
		seen[m] = true
	}
}

func TestScheduleSelfAntiAffinityOversubscribed(t *testing.T) {
	// 5 spread replicas on 4 machines: exactly one must stay
	// undeployed, never violated.
	w := workload.MustNew([]*workload.App{
		{ID: "spread", Demand: resource.Cores(1, 1024), Replicas: 5, AntiAffinitySelf: true},
	})
	cl := smallCluster(4)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 1 {
		t.Errorf("undeployed = %v, want exactly 1", res.Undeployed)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

func TestScheduleAcrossAppAntiAffinity(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "red", Demand: resource.Cores(2, 2048), Replicas: 2, AntiAffinityApps: []string{"blue"}},
		{ID: "blue", Demand: resource.Cores(2, 2048), Replicas: 2},
	})
	cl := smallCluster(4)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 0 {
		t.Fatalf("undeployed: %v", res.Undeployed)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	// Check no machine hosts both colors.
	for id1, m1 := range res.Assignment {
		for id2, m2 := range res.Assignment {
			if m1 == m2 && id1[:3] == "red" && id2[:4] == "blue" {
				t.Fatalf("red %s and blue %s share machine %d", id1, id2, m1)
			}
		}
	}
}

func TestScheduleFigure1Scenario(t *testing.T) {
	// The paper's Fig. 1: one S0 (low priority) and two S1 (high
	// priority) arrive together; S1 and S0 are anti-affine.  Two
	// machines.  Firmament leaves S0 unscheduled; Medea violates the
	// constraint; Aladdin must deploy all three cleanly.
	w := workload.MustNew([]*workload.App{
		{ID: "s0", Demand: resource.Cores(8, 8192), Replicas: 1, Priority: workload.PriorityLow, AntiAffinityApps: []string{"s1"}},
		{ID: "s1", Demand: resource.Cores(12, 12288), Replicas: 2, Priority: workload.PriorityHigh, AntiAffinitySelf: false},
	})
	cl := smallCluster(2)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 0 {
		t.Fatalf("Aladdin must deploy all of Fig. 1: undeployed %v", res.Undeployed)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("Aladdin must not violate Fig. 1 constraints: %v", res.Violations)
	}
}

func TestScheduleMigrationScenario(t *testing.T) {
	// Fig. 3b: container A (high) runs on machine M; container B
	// (low) only fits on M because N is too small for it; A fits on
	// both.  Aladdin must migrate A to N and place B on M.
	cl := topology.New(topology.Config{
		Machines:        2,
		MachinesPerRack: 2,
		RacksPerCluster: 1,
		Capacity:        resource.Cores(16, 32*1024),
	})
	// Shrink machine 1 by pre-filling it so only A (4c) fits there,
	// not B (10c).
	filler := resource.Cores(10, 1024)
	if err := cl.Machine(1).Allocate("filler", filler); err != nil {
		t.Fatal(err)
	}
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 2048), Replicas: 1, Priority: workload.PriorityHigh, AntiAffinityApps: []string{"b"}},
		{ID: "b", Demand: resource.Cores(10, 4096), Replicas: 1, Priority: workload.PriorityLow},
	})
	// a arrives first and lands on machine 0 (first fit); b then only
	// fits machine 0 but is blocked by anti-affinity -> migration.
	res, err := NewDefault().Schedule(w, cl, w.Arrange(workload.OrderSubmission))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undeployed) != 0 {
		t.Fatalf("undeployed: %v (migration should have cleared the block)", res.Undeployed)
	}
	if res.Migrations == 0 {
		t.Error("expected at least one migration")
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	if res.Assignment["a/0"] != 1 || res.Assignment["b/0"] != 0 {
		t.Errorf("assignment = %v, want a on 1, b on 0", res.Assignment)
	}
}

func TestScheduleMigrationDisabled(t *testing.T) {
	cl := topology.New(topology.Config{
		Machines: 2, MachinesPerRack: 2, RacksPerCluster: 1,
		Capacity: resource.Cores(16, 32*1024),
	})
	if err := cl.Machine(1).Allocate("filler", resource.Cores(10, 1024)); err != nil {
		t.Fatal(err)
	}
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 2048), Replicas: 1, Priority: workload.PriorityHigh, AntiAffinityApps: []string{"b"}},
		{ID: "b", Demand: resource.Cores(10, 4096), Replicas: 1, Priority: workload.PriorityLow},
	})
	opts := DefaultOptions()
	opts.Migration = false
	res, err := New(opts).Schedule(w, cl, w.Arrange(workload.OrderSubmission))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undeployed) != 1 {
		t.Errorf("without migration b must stay undeployed, got %v", res.Undeployed)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

func TestSchedulePreemption(t *testing.T) {
	// One machine; a low-priority hog arrives first, then a
	// high-priority container that no longer fits.  The hog must be
	// preempted (and stays undeployed since there is nowhere else).
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(16, 32*1024),
	})
	w := workload.MustNew([]*workload.App{
		{ID: "hog", Demand: resource.Cores(12, 8192), Replicas: 1, Priority: workload.PriorityLow},
		{ID: "vip", Demand: resource.Cores(10, 8192), Replicas: 1, Priority: workload.PriorityHigh},
	})
	res, err := NewDefault().Schedule(w, cl, w.Arrange(workload.OrderSubmission))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Assignment["vip/0"]; !ok {
		t.Fatal("vip must be deployed via preemption")
	}
	if res.Preemptions == 0 {
		t.Error("expected a preemption")
	}
	if len(res.Undeployed) != 1 || res.Undeployed[0] != "hog/0" {
		t.Errorf("undeployed = %v, want [hog/0]", res.Undeployed)
	}
}

func TestScheduleNeverPreemptsHighForLow(t *testing.T) {
	// Reverse arrival: high first, then low that does not fit.  The
	// low one must NOT preempt (weighted flow guarantee, §III.B).
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(16, 32*1024),
	})
	w := workload.MustNew([]*workload.App{
		{ID: "vip", Demand: resource.Cores(10, 8192), Replicas: 1, Priority: workload.PriorityHigh},
		{ID: "bulk", Demand: resource.Cores(12, 8192), Replicas: 1, Priority: workload.PriorityLow},
	})
	res, err := NewDefault().Schedule(w, cl, w.Arrange(workload.OrderSubmission))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Assignment["vip/0"]; !ok {
		t.Fatal("vip must stay deployed")
	}
	if res.Preemptions != 0 {
		t.Errorf("preemptions = %d, want 0", res.Preemptions)
	}
	if len(res.Undeployed) != 1 || res.Undeployed[0] != "bulk/0" {
		t.Errorf("undeployed = %v, want [bulk/0]", res.Undeployed)
	}
}

func TestScheduleDisableWeightsAblation(t *testing.T) {
	// With weights disabled (Fig. 3a's broken behaviour), the bigger
	// raw flow evicts the smaller even against priority.
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(16, 32*1024),
	})
	w := workload.MustNew([]*workload.App{
		{ID: "vip", Demand: resource.Cores(10, 8192), Replicas: 1, Priority: workload.PriorityHigh},
		{ID: "bulk", Demand: resource.Cores(12, 8192), Replicas: 1, Priority: workload.PriorityLow},
	})
	opts := DefaultOptions()
	opts.DisableWeights = true
	res, err := New(opts).Schedule(w, cl, w.Arrange(workload.OrderSubmission))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Assignment["bulk/0"]; !ok {
		t.Fatal("ablation: bulk should have evicted vip")
	}
	s := res.ViolationSummary()
	if s.Inversions == 0 {
		t.Error("ablation must record a priority inversion")
	}
}

func TestScheduleCapacityExhaustion(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "big", Demand: resource.Cores(20, 4096), Replicas: 3},
	})
	cl := smallCluster(2) // only 2 machines can hold one 20-core each
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 1 {
		t.Errorf("undeployed = %v, want 1", res.Undeployed)
	}
}

func TestScheduleOversizedContainer(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "whale", Demand: resource.Cores(64, 4096), Replicas: 1},
	})
	cl := smallCluster(4)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 1 {
		t.Errorf("oversized container must be undeployed, got %v", res.Undeployed)
	}
}

func TestScheduleMemoryDimensionEnforced(t *testing.T) {
	// CPU fits but memory does not: multidimensional capacity.
	w := workload.MustNew([]*workload.App{
		{ID: "memhog", Demand: resource.Cores(1, 128*1024), Replicas: 1},
	})
	cl := smallCluster(2)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if len(res.Undeployed) != 1 {
		t.Error("memory over-demand must stay undeployed")
	}
}

func TestScheduleVariantsAllClean(t *testing.T) {
	// All four IL/DL combinations produce valid, violation-free
	// placements on a synthetic trace.
	// Cluster sized so mutually anti-affine spread apps (up to ~80
	// replicas each in the mid class) remain feasible.
	w := trace.MustGenerate(trace.Scaled(5, 200)) // ~65 apps, ~500 containers
	cl := smallCluster(192)
	for _, opt := range []struct {
		il, dl bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		opts := DefaultOptions()
		opts.IsomorphismLimiting = opt.il
		opts.DepthLimiting = opt.dl
		s := New(opts)
		cl.Reset()
		res := mustSchedule(t, s, w, cl, workload.OrderSubmission)
		if sum := res.ViolationSummary(); sum.Within+sum.Across != 0 {
			t.Errorf("%s: anti-affinity violations: %+v", s.Name(), sum)
		}
		if res.UndeployedFraction() > 0.05 {
			t.Errorf("%s: undeployed fraction %.3f too high", s.Name(), res.UndeployedFraction())
		}
	}
}

func TestScheduleTraceZeroViolations(t *testing.T) {
	// The headline claim: Aladdin incurs zero anti-affinity
	// violations on the Alibaba-shaped trace.
	w := trace.MustGenerate(trace.Scaled(42, 100)) // ~130 apps, ~1000 containers
	cl := smallCluster(256)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)
	if sum := res.ViolationSummary(); sum.Total() != 0 {
		t.Errorf("violations: %+v", sum)
	}
	if len(res.Undeployed) != 0 {
		t.Errorf("undeployed: %d containers", len(res.Undeployed))
	}
}

func TestScheduleAllArrivalOrdersConsistent(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(42, 100))
	cl := smallCluster(256)
	used := map[workload.ArrivalOrder]int{}
	for _, order := range workload.AllArrivalOrders() {
		cl.Reset()
		res := mustSchedule(t, NewDefault(), w, cl, order)
		if sum := res.ViolationSummary(); sum.Within+sum.Across != 0 {
			t.Errorf("order %v: violations %+v", order, sum)
		}
		used[order] = cl.UsedMachines()
	}
	// Machine counts must be nearly order-independent (Fig. 10 shows
	// identical counts for Aladdin across all four orders).
	min, max := 1<<30, 0
	for _, u := range used {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max-min > max/5+2 {
		t.Errorf("machine usage varies too much across orders: %v", used)
	}
}

func TestScheduleFlowConservation(t *testing.T) {
	// Drive the network through placements incl. migrations, then
	// verify Equation 2 holds and total flow equals deployed demand.
	w := trace.MustGenerate(trace.Scaled(9, 300))
	cl := smallCluster(48)
	s := NewDefault()
	r := newRun(s.opts, w, cl)
	var placedFlow int64
	for _, c := range w.Containers() {
		m := r.search.findMachine(c, noExclusion)
		if m == topology.Invalid {
			continue
		}
		if err := r.place(c, m); err != nil {
			t.Fatal(err)
		}
		placedFlow += flowUnits(c)
	}
	if err := r.net.checkConservation(); err != nil {
		t.Fatal(err)
	}
	if got := r.net.totalFlow(); got != placedFlow {
		t.Errorf("total flow %d != placed flow %d", got, placedFlow)
	}
	// Unplace a few and re-check.
	n := 0
	for _, c := range w.Containers() {
		if m := r.asg[c.Ord]; m != topology.Invalid {
			if err := r.unplace(c, m); err != nil {
				t.Fatal(err)
			}
			placedFlow -= flowUnits(c)
			n++
			if n == 10 {
				break
			}
		}
	}
	if err := r.net.checkConservation(); err != nil {
		t.Fatal(err)
	}
	if got := r.net.totalFlow(); got != placedFlow {
		t.Errorf("after unplace: total flow %d != %d", got, placedFlow)
	}
}

func TestOptionsName(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{WeightBase: 16}, "Aladdin(16)"},
		{Options{WeightBase: 32, IsomorphismLimiting: true}, "Aladdin(32)+IL"},
		{Options{WeightBase: 64, IsomorphismLimiting: true, DepthLimiting: true}, "Aladdin(64)+IL+DL"},
		{Options{WeightBase: 128, DepthLimiting: true}, "Aladdin(128)+DL"},
	}
	for _, c := range cases {
		if got := c.opts.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
	if NewDefault().Name() != "Aladdin(16)+IL+DL" {
		t.Errorf("default name = %q", NewDefault().Name())
	}
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.maxBlockers() != 2 || o.maxRequeues() != 2 {
		t.Error("zero options should default bounds to 2")
	}
	o.MaxBlockersPerMigration = 5
	o.MaxRequeues = 7
	if o.maxBlockers() != 5 || o.maxRequeues() != 7 {
		t.Error("explicit bounds should win")
	}
}

func TestILSkipsSiblingsOfUnplaceableApp(t *testing.T) {
	// Machines nearly full; an app with 50 isomorphic siblings that
	// no machine can take.  With IL the search runs once and the 49
	// siblings skip; the explored-vertex counter proves it.
	w := workload.MustNew([]*workload.App{
		{ID: "big", Demand: resource.Cores(2, 1024), Replicas: 50},
	})
	countExplored := func(il bool) (int64, int) {
		cl := topology.New(topology.Config{
			Machines: 4, MachinesPerRack: 2, RacksPerCluster: 2,
			Capacity: resource.Cores(2, 2048),
		})
		for _, m := range cl.Machines() {
			if err := m.Allocate("filler-"+m.Name, resource.Cores(1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		opts := DefaultOptions()
		opts.IsomorphismLimiting = il
		s := New(opts)
		res, err := s.Schedule(w, cl, w.Arrange(workload.OrderSubmission))
		if err != nil {
			t.Fatal(err)
		}
		return res.WorkUnits, len(res.Undeployed)
	}
	exploredIL, undeployedIL := countExplored(true)
	exploredNo, undeployedNo := countExplored(false)
	if undeployedIL != 50 || undeployedNo != 50 {
		t.Fatalf("both variants must strand all 50: IL=%d no=%d", undeployedIL, undeployedNo)
	}
	if exploredIL*10 > exploredNo {
		t.Errorf("IL explored %d vertices, want < 1/10 of %d", exploredIL, exploredNo)
	}
}

func TestILInvalidatedByRelease(t *testing.T) {
	// A sibling skipped by IL must become placeable again once
	// capacity is released mid-run: preemption by a later
	// high-priority arrival releases space, and subsequently
	// requeued work re-enters the search.  We verify indirectly: IL
	// must not change the final outcome on a preemption-heavy run.
	w := workload.MustNew([]*workload.App{
		{ID: "filler", Demand: resource.Cores(12, 8192), Replicas: 4, Priority: workload.PriorityLow},
		{ID: "late", Demand: resource.Cores(10, 8192), Replicas: 2, Priority: workload.PriorityHigh},
	})
	run := func(il bool) (deployed int) {
		cl := topology.New(topology.Config{
			Machines: 2, MachinesPerRack: 2, RacksPerCluster: 1,
			Capacity: resource.Cores(16, 32*1024),
		})
		opts := DefaultOptions()
		opts.IsomorphismLimiting = il
		res, err := New(opts).Schedule(w, cl, w.Arrange(workload.OrderSubmission))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(w, cl); err != nil {
			t.Fatal(err)
		}
		return res.Deployed()
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("IL changed deployment count: %d vs %d", a, b)
	}
}

// TestILReducesExploration checks that isomorphism limiting is a pure
// shortcut: with IL on and off, Schedule must produce the same
// placement digest, and IL may only cut explored vertices.  On the
// rescue-heavy f5/m1050 preset it must cut them: failed rescues roll
// back exactly and do not age IL proofs, so the siblings of a stranded
// container skip.
func TestILReducesExploration(t *testing.T) {
	cases := []struct {
		name    string
		w       *workload.Workload
		cluster func() *topology.Cluster
		mustCut bool
	}{
		{"s13/f150/small224", trace.MustGenerate(trace.Scaled(13, 150)), func() *topology.Cluster { return smallCluster(224) }, false},
		{"f5/m1050", trace.MustGenerate(trace.Scaled(42, 5)), func() *topology.Cluster { return topology.New(topology.AlibabaConfig(1050)) }, true},
		{"f20/m262", trace.MustGenerate(trace.Scaled(42, 20)), func() *topology.Cluster { return topology.New(topology.AlibabaConfig(262)) }, false},
		{"f50/m100", trace.MustGenerate(trace.Scaled(42, 50)), func() *topology.Cluster { return topology.New(topology.AlibabaConfig(100)) }, false},
	}
	for _, tc := range cases {
		arrivals := tc.w.Arrange(workload.OrderSubmission)
		var res [2]*sched.Result
		for i, il := range []bool{true, false} {
			opts := DefaultOptions()
			opts.IsomorphismLimiting = il
			r, err := New(opts).Schedule(tc.w, tc.cluster(), arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if v := r.ViolationSummary().Total(); v != 0 {
				t.Errorf("%s: IL %v: %d violations", tc.name, il, v)
			}
			res[i] = r
		}
		on, off := placementDigest(tc.w, res[0].Assignment), placementDigest(tc.w, res[1].Assignment)
		if on != off {
			t.Errorf("%s: IL changed placements: digest %s on, %s off", tc.name, on, off)
		}
		t.Logf("%s: digest %s, explored IL on %d, off %d", tc.name, on, res[0].WorkUnits, res[1].WorkUnits)
		if res[0].WorkUnits > res[1].WorkUnits || (tc.mustCut && res[0].WorkUnits == res[1].WorkUnits) {
			t.Errorf("%s: IL explored %d vertices, %d without it", tc.name, res[0].WorkUnits, res[1].WorkUnits)
		}
	}
}
