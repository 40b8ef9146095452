package checkpoint

import (
	"bytes"
	"reflect"
	"testing"

	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// scheduled runs a small trace through a session and returns it.
func scheduled(t *testing.T) (*workload.Workload, *topology.Cluster, *core.Session) {
	t.Helper()
	w := trace.MustGenerate(trace.Scaled(42, 400))
	cl := topology.New(topology.Config{
		Machines: 96, MachinesPerRack: 8, RacksPerCluster: 4,
		Capacity: resource.Cores(32, 64*1024),
	})
	s := core.NewSession(core.DefaultOptions(), w, cl)
	if _, err := s.Place(w.Arrange(workload.OrderSubmission)); err != nil {
		t.Fatal(err)
	}
	return w, cl, s
}

// TestCaptureRestoreRoundTrip: a captured session restores onto a
// cluster with the same layout — identical rack and sub-cluster
// boundaries, not defaults — and the same placements and resource
// state.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	w, cl, s := scheduled(t)
	snap, err := CaptureSession(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, cl2, err := back.Restore(core.DefaultOptions(), w)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl2.Racks(), cl.Racks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rack set diverged: %v != %v", got, want)
	}
	for _, r := range cl.Racks() {
		if got, want := cl2.Rack(r).Machines, cl.Rack(r).Machines; !reflect.DeepEqual(got, want) {
			t.Fatalf("rack %s machines diverged: %v != %v", r, got, want)
		}
	}
	if got, want := cl2.SubClusters(), cl.SubClusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sub-cluster set diverged: %v != %v", got, want)
	}
	asg, asg2 := s.Assignment(), restored.Assignment()
	if len(asg2) != len(asg) {
		t.Fatalf("assignment size %d != %d", len(asg2), len(asg))
	}
	for id, m := range asg {
		if asg2[id] != m {
			t.Fatalf("container %s: %d != %d", id, asg2[id], m)
		}
		if !cl2.Machine(m).Hosts(id) {
			t.Fatalf("restored machine %d does not host %s", m, id)
		}
	}
	if cl2.TotalUsed() != cl.TotalUsed() {
		t.Errorf("TotalUsed %v != %v", cl2.TotalUsed(), cl.TotalUsed())
	}
	if cl2.UsedMachines() != cl.UsedMachines() {
		t.Errorf("UsedMachines %d != %d", cl2.UsedMachines(), cl.UsedMachines())
	}
}

// TestRestoreValidation: a snapshot restored against a different
// workload universe, or naming a machine the snapshot lacks, fails.
func TestRestoreValidation(t *testing.T) {
	w, _, s := scheduled(t)
	snap, err := CaptureSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Placements) == 0 {
		t.Fatal("fixture placed nothing")
	}
	other := workload.MustNew([]*workload.App{
		{ID: "different", Demand: resource.Cores(1, 1), Replicas: 1},
	})
	if _, _, err := snap.Restore(core.DefaultOptions(), other); err == nil {
		t.Error("mismatched workload should fail restore")
	}
	snap2 := *snap
	snap2.Placements = append([]Placement{{Container: snap.Placements[0].Container, Machine: topology.MachineID(len(snap.Machines))}},
		snap.Placements[1:]...)
	if _, _, err := snap2.Restore(core.DefaultOptions(), w); err == nil {
		t.Error("machine out of range should fail restore")
	}
}
