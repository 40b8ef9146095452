package topology

import (
	"testing"
	"testing/quick"

	"aladdin/internal/resource"
)

func TestMachineAllocateRelease(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(32, 65536))
	if err := m.Allocate("a", resource.Cores(16, 32768)); err != nil {
		t.Fatalf("first allocate: %v", err)
	}
	if !m.Hosts("a") {
		t.Error("machine should host container a")
	}
	if m.NumContainers() != 1 {
		t.Errorf("NumContainers = %d", m.NumContainers())
	}
	if got := m.Used(); got != resource.Cores(16, 32768) {
		t.Errorf("Used = %v", got)
	}
	if got := m.Free(); got != resource.Cores(16, 32768) {
		t.Errorf("Free = %v", got)
	}
	demand, err := m.Release("a")
	if err != nil {
		t.Fatalf("release: %v", err)
	}
	if demand != resource.Cores(16, 32768) {
		t.Errorf("released demand = %v", demand)
	}
	if !m.Used().Zero() {
		t.Errorf("Used after release = %v", m.Used())
	}
}

func TestMachineAllocateDuplicate(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(32, 65536))
	if err := m.Allocate("a", resource.Cores(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate("a", resource.Cores(1, 1)); err == nil {
		t.Error("duplicate allocate should fail")
	}
	if m.Used() != resource.Cores(1, 1) {
		t.Errorf("failed allocate must not change used: %v", m.Used())
	}
}

func TestMachineAllocateOverflow(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(4, 1024))
	if err := m.Allocate("big", resource.Cores(5, 0)); err == nil {
		t.Error("over-capacity allocate should fail")
	}
	if err := m.Allocate("a", resource.Cores(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate("b", resource.Cores(2, 0)); err == nil {
		t.Error("allocate exceeding free should fail")
	}
	// Exactly filling must succeed.
	if err := m.Allocate("c", resource.Cores(1, 1024)); err != nil {
		t.Errorf("exact fill should succeed: %v", err)
	}
	if !m.Free().Zero() {
		t.Errorf("Free after exact fill = %v", m.Free())
	}
}

func TestMachineReleaseUnknown(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(4, 1024))
	if _, err := m.Release("ghost"); err == nil {
		t.Error("releasing unknown container should fail")
	}
}

func TestMachineReset(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(4, 1024))
	if err := m.Allocate("a", resource.Cores(2, 512)); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.NumContainers() != 0 || !m.Used().Zero() {
		t.Error("Reset should clear allocation")
	}
	// Machine is reusable after reset.
	if err := m.Allocate("a", resource.Cores(4, 1024)); err != nil {
		t.Errorf("allocate after reset: %v", err)
	}
}

func TestMachineContainerIDsSorted(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(32, 65536))
	for _, id := range []string{"c", "a", "b"} {
		if err := m.Allocate(id, resource.Cores(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want ...string) {
		t.Helper()
		ids := m.ContainerIDs()
		if len(ids) != len(want) {
			t.Fatalf("ContainerIDs = %v, want %v", ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("ContainerIDs = %v, want %v", ids, want)
			}
		}
	}
	check("a", "b", "c")
	if _, err := m.Release("b"); err != nil {
		t.Fatal(err)
	}
	check("a", "c")
	if err := m.Allocate("ab", resource.Cores(1, 1)); err != nil {
		t.Fatal(err)
	}
	check("a", "ab", "c")
	m.Reset()
	check()
}

func TestMachineUtilization(t *testing.T) {
	m := NewMachine(0, "m0", "r0", "c0", resource.Cores(32, 1024))
	if err := m.Allocate("a", resource.Cores(16, 256)); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUUtilization(); got != 0.5 {
		t.Errorf("CPUUtilization = %v", got)
	}
	if got := m.Utilization(); got != (0.5+0.25)/2 {
		t.Errorf("Utilization = %v", got)
	}
}

func TestClusterLayout(t *testing.T) {
	c := New(Config{Machines: 100, MachinesPerRack: 10, RacksPerCluster: 5, Capacity: resource.Cores(32, 65536)})
	if c.Size() != 100 {
		t.Fatalf("Size = %d", c.Size())
	}
	if got := len(c.Racks()); got != 10 {
		t.Errorf("racks = %d, want 10", got)
	}
	if got := len(c.SubClusters()); got != 2 {
		t.Errorf("sub-clusters = %d, want 2", got)
	}
	// Every machine belongs to the rack it claims.
	for _, m := range c.Machines() {
		rack := c.Rack(m.Rack)
		if rack == nil {
			t.Fatalf("machine %s references unknown rack %s", m.Name, m.Rack)
		}
		found := false
		for _, id := range rack.Machines {
			if id == m.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("machine %s missing from rack %s membership", m.Name, m.Rack)
		}
		if rack.Cluster != m.Cluster {
			t.Errorf("machine %s cluster %s != rack cluster %s", m.Name, m.Cluster, rack.Cluster)
		}
	}
	// Racks partition machines.
	total := 0
	for _, name := range c.Racks() {
		total += len(c.Rack(name).Machines)
	}
	if total != 100 {
		t.Errorf("rack membership covers %d machines, want 100", total)
	}
	// Sub-clusters partition racks.
	totalRacks := 0
	for _, name := range c.SubClusters() {
		totalRacks += len(c.SubCluster(name).Racks)
	}
	if totalRacks != 10 {
		t.Errorf("sub-cluster membership covers %d racks, want 10", totalRacks)
	}
}

func TestClusterDefaults(t *testing.T) {
	c := New(Config{Machines: 85, Capacity: resource.Cores(32, 65536)})
	// default 40 per rack -> 3 racks
	if got := len(c.Racks()); got != 3 {
		t.Errorf("default racks = %d, want 3", got)
	}
}

func TestAlibabaConfig(t *testing.T) {
	cfg := AlibabaConfig(500)
	if cfg.Machines != 500 {
		t.Errorf("Machines = %d", cfg.Machines)
	}
	if cfg.Capacity != resource.Cores(32, 64*1024) {
		t.Errorf("Capacity = %v", cfg.Capacity)
	}
}

func TestClusterMachineLookup(t *testing.T) {
	c := New(AlibabaConfig(10))
	if c.Machine(3) == nil || c.Machine(3).ID != 3 {
		t.Error("Machine(3) lookup failed")
	}
	if c.Machine(-1) != nil {
		t.Error("Machine(-1) should be nil")
	}
	if c.Machine(10) != nil {
		t.Error("Machine(out of range) should be nil")
	}
}

func TestClusterUsedMachinesAndReset(t *testing.T) {
	c := New(AlibabaConfig(5))
	if c.UsedMachines() != 0 {
		t.Error("fresh cluster should have 0 used machines")
	}
	if err := c.Machine(0).Allocate("a", resource.Cores(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Machine(2).Allocate("b", resource.Cores(2, 2)); err != nil {
		t.Fatal(err)
	}
	if got := c.UsedMachines(); got != 2 {
		t.Errorf("UsedMachines = %d", got)
	}
	if got := c.TotalUsed(); got != resource.Cores(3, 3) {
		t.Errorf("TotalUsed = %v", got)
	}
	if got := c.TotalCapacity(); got != resource.Cores(32*5, 64*1024*5) {
		t.Errorf("TotalCapacity = %v", got)
	}
	c.Reset()
	if c.UsedMachines() != 0 || !c.TotalUsed().Zero() {
		t.Error("Reset should clear the cluster")
	}
}

func TestUtilizationRange(t *testing.T) {
	c := New(AlibabaConfig(4))
	lo, mean, hi := c.UtilizationRange()
	if lo != 0 || mean != 0 || hi != 0 {
		t.Errorf("empty cluster range = %v/%v/%v", lo, mean, hi)
	}
	// 8/32 = 0.25 on one machine, 16/32 = 0.5 on another.
	if err := c.Machine(0).Allocate("a", resource.Cores(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Machine(1).Allocate("b", resource.Cores(16, 1)); err != nil {
		t.Fatal(err)
	}
	lo, mean, hi = c.UtilizationRange()
	if lo != 0.25 || hi != 0.5 {
		t.Errorf("range = %v..%v", lo, hi)
	}
	if mean != 0.375 {
		t.Errorf("mean = %v", mean)
	}
}

// Property: a random sequence of allocations never leaves used >
// capacity, and releasing everything restores the empty machine.
func TestQuickAllocationInvariants(t *testing.T) {
	f := func(demandsRaw []uint16) bool {
		m := NewMachine(0, "m", "r", "c", resource.Cores(32, 65536))
		var placed []string
		for i, raw := range demandsRaw {
			d := resource.Milli(int64(raw)%40000, int64(raw)*2%70000)
			id := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
			if err := m.Allocate(id, d); err == nil {
				placed = append(placed, id)
			}
			if !m.Used().Fits(m.Capacity()) {
				return false
			}
		}
		for _, id := range placed {
			if _, err := m.Release(id); err != nil {
				return false
			}
		}
		return m.Used().Zero() && m.NumContainers() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromSpecsRoundTrip(t *testing.T) {
	// A homogeneous cluster rebuilds identically from its own specs.
	orig := New(Config{Machines: 90, MachinesPerRack: 8, RacksPerCluster: 4,
		Capacity: resource.Cores(32, 65536)})
	orig.Machine(7).MarkDown()
	back, err := FromSpecs(orig.Specs())
	if err != nil {
		t.Fatal(err)
	}
	assertSameTopology(t, orig, back)
	if back.Machine(7).Up() {
		t.Error("down state not restored")
	}
	if back.DownMachines() != 1 {
		t.Errorf("DownMachines = %d, want 1", back.DownMachines())
	}
}

func TestFromSpecsHeterogeneousRoundTrip(t *testing.T) {
	// NewHeterogeneous breaks racks at class boundaries; layout
	// arithmetic cannot reproduce that, specs must.
	orig, err := NewHeterogeneous(HeteroConfig{
		MachinesPerRack: 4,
		Classes: []MachineClass{
			{Name: "big", Count: 6, Capacity: resource.Cores(64, 128*1024)},
			{Name: "small", Count: 5, Capacity: resource.Cores(16, 32*1024)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSpecs(orig.Specs())
	if err != nil {
		t.Fatal(err)
	}
	assertSameTopology(t, orig, back)
}

func assertSameTopology(t *testing.T, a, b *Cluster) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("size %d != %d", b.Size(), a.Size())
	}
	for i := 0; i < a.Size(); i++ {
		ma, mb := a.Machine(MachineID(i)), b.Machine(MachineID(i))
		if ma.Name != mb.Name || ma.Rack != mb.Rack || ma.Cluster != mb.Cluster ||
			ma.Capacity() != mb.Capacity() {
			t.Fatalf("machine %d differs: %+v vs %+v", i, ma, mb)
		}
	}
	ta, tb := a.Traverse(), b.Traverse()
	if len(ta.Order) != len(tb.Order) {
		t.Fatalf("traversal length differs")
	}
	for i := range ta.Order {
		if ta.Order[i] != tb.Order[i] {
			t.Fatalf("traversal position %d: %d vs %d", i, ta.Order[i], tb.Order[i])
		}
	}
	if len(a.Racks()) != len(b.Racks()) || len(a.SubClusters()) != len(b.SubClusters()) {
		t.Fatalf("rack/sub-cluster counts differ")
	}
	for i, rn := range a.Racks() {
		if b.Racks()[i] != rn {
			t.Fatalf("rack order differs at %d: %s vs %s", i, rn, b.Racks()[i])
		}
	}
}

func TestFromSpecsValidation(t *testing.T) {
	good := MachineSpec{Name: "m0", Rack: "r0", Cluster: "c0", Capacity: resource.Cores(1, 1024)}
	cases := []struct {
		name  string
		specs []MachineSpec
	}{
		{"empty", nil},
		{"no name", []MachineSpec{{Rack: "r0", Cluster: "c0", Capacity: good.Capacity}}},
		{"no rack", []MachineSpec{{Name: "m0", Cluster: "c0", Capacity: good.Capacity}}},
		{"no cluster", []MachineSpec{{Name: "m0", Rack: "r0", Capacity: good.Capacity}}},
		{"duplicate name", []MachineSpec{good, good}},
		{"zero capacity", []MachineSpec{{Name: "m0", Rack: "r0", Cluster: "c0"}}},
		{"negative capacity", []MachineSpec{{Name: "m0", Rack: "r0", Cluster: "c0",
			Capacity: resource.Milli(-1, 10)}}},
		{"rack in two clusters", []MachineSpec{good,
			{Name: "m1", Rack: "r0", Cluster: "c1", Capacity: good.Capacity}}},
	}
	for _, tc := range cases {
		if _, err := FromSpecs(tc.specs); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}
