package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// placementDigest hashes a final assignment as (ordinal, machine) in
// workload ordinal order, with topology.Invalid for containers left
// undeployed — the digest perfbench records as its placement_digest.
func placementDigest(w *workload.Workload, asg constraint.Assignment) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range w.Containers() {
		m, ok := asg[c.ID]
		if !ok {
			m = topology.Invalid
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(m)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestPipeline runs the batch pipeline through a session: Place the
// arrivals, Consolidate, then Place again whatever stayed undeployed.
// It returns the final assignment and the explored count of both
// Place calls.
func digestPipeline(s interface {
	Place([]*workload.Container) (*sched.Result, error)
	Consolidate() (int, error)
	Assignment() constraint.Assignment
}, w *workload.Workload, arrivals []*workload.Container) (constraint.Assignment, int64, error) {
	byID := make(map[string]*workload.Container, w.NumContainers())
	for _, c := range w.Containers() {
		byID[c.ID] = c
	}
	res, err := s.Place(arrivals)
	if err != nil {
		return nil, 0, err
	}
	work := res.WorkUnits
	retry := make([]*workload.Container, 0, len(res.Undeployed))
	for _, id := range res.Undeployed {
		retry = append(retry, byID[id])
	}
	if _, err := s.Consolidate(); err != nil {
		return nil, 0, err
	}
	if res, err = s.Place(retry); err != nil {
		return nil, 0, err
	}
	work += res.WorkUnits
	return s.Assignment(), work, nil
}

// TestPlacementDigests pins the placements of every entry point —
// Scheduler.Schedule, the NewSession pipeline and the 2-shard
// NewSharded pipeline — on the trace presets in submission order and
// the paper's four arrival orders.  A refactor of the placement
// pipeline must keep every digest and explored count unchanged.
func TestPlacementDigests(t *testing.T) {
	type preset struct {
		factor, machines int
	}
	presets := []preset{{50, 384}, {50, 150}, {5, 1050}}
	orders := append([]workload.ArrivalOrder{workload.OrderSubmission}, workload.AllArrivalOrders()...)
	entries := []string{"schedule", "session", "sharded2"}
	want := map[string]struct {
		digest string
		work   int64
	}{
		"schedule/f50/m384/submission": {"411b6de85b65097d", 9033},
		"session/f50/m384/submission":  {"411b6de85b65097d", 3538},
		"sharded2/f50/m384/submission": {"411b6de85b65097d", 3538},
		"schedule/f50/m384/CHP":        {"5790cdb269fca65f", 5600},
		"session/f50/m384/CHP":         {"5790cdb269fca65f", 3606},
		"sharded2/f50/m384/CHP":        {"5790cdb269fca65f", 3606},
		"schedule/f50/m384/CLP":        {"3bcfe27d4d1c7543", 4880},
		"session/f50/m384/CLP":         {"3bcfe27d4d1c7543", 3631},
		"sharded2/f50/m384/CLP":        {"3bcfe27d4d1c7543", 3631},
		"schedule/f50/m384/CLA":        {"ef54494ada7ba712", 4002},
		"session/f50/m384/CLA":         {"ef54494ada7ba712", 3833},
		"sharded2/f50/m384/CLA":        {"ef54494ada7ba712", 3833},
		"schedule/f50/m384/CSA":        {"448ead0dd3e695db", 10296},
		"session/f50/m384/CSA":         {"448ead0dd3e695db", 3866},
		"sharded2/f50/m384/CSA":        {"f4469e8ea6393ab1", 3866},
		"schedule/f50/m150/submission": {"9d6dbe93bc5344b7", 58281},
		"session/f50/m150/submission":  {"9d6dbe93bc5344b7", 53624},
		"sharded2/f50/m150/submission": {"9d6dbe93bc5344b7", 53624},
		"schedule/f50/m150/CHP":        {"c456147ab32c8016", 31157},
		"session/f50/m150/CHP":         {"c456147ab32c8016", 29523},
		"sharded2/f50/m150/CHP":        {"771817616ca6bbb0", 29523},
		"schedule/f50/m150/CLP":        {"3bcfe27d4d1c7543", 4880},
		"session/f50/m150/CLP":         {"3bcfe27d4d1c7543", 3631},
		"sharded2/f50/m150/CLP":        {"3bcfe27d4d1c7543", 3631},
		"schedule/f50/m150/CLA":        {"ef54494ada7ba712", 4002},
		"session/f50/m150/CLA":         {"ef54494ada7ba712", 3833},
		"sharded2/f50/m150/CLA":        {"ef54494ada7ba712", 3833},
		"schedule/f50/m150/CSA":        {"ad77a2b3cf168f7c", 143549},
		"session/f50/m150/CSA":         {"ad77a2b3cf168f7c", 140833},
		"sharded2/f50/m150/CSA":        {"ad77a2b3cf168f7c", 140833},
		"schedule/f5/m1050/submission": {"93d902d0182557da", 34629},
		"session/f5/m1050/submission":  {"93d902d0182557da", 34629},
		"sharded2/f5/m1050/submission": {"29ab5e6ee53b9b94", 82045},
		"schedule/f5/m1050/CHP":        {"ca5fe58a5df38efc", 200077},
		"session/f5/m1050/CHP":         {"ca5fe58a5df38efc", 200077},
		"sharded2/f5/m1050/CHP":        {"e375e4f799041499", 516644},
		"schedule/f5/m1050/CLP":        {"b54df51a42f62239", 37651},
		"session/f5/m1050/CLP":         {"b54df51a42f62239", 37651},
		"sharded2/f5/m1050/CLP":        {"440b4f84fa0d1dcb", 416579},
		"schedule/f5/m1050/CLA":        {"64dfca59092909ba", 35701},
		"session/f5/m1050/CLA":         {"64dfca59092909ba", 35701},
		"sharded2/f5/m1050/CLA":        {"2118fda999cf6f14", 101626},
		"schedule/f5/m1050/CSA":        {"d1af5a23b3e8ed11", 183278},
		"session/f5/m1050/CSA":         {"d1af5a23b3e8ed11", 183278},
		"sharded2/f5/m1050/CSA":        {"f06d3f294b713628", 124067},
	}
	for _, p := range presets {
		w, err := trace.Generate(trace.Scaled(42, p.factor))
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range orders {
			arrivals := w.Arrange(order)
			for _, entry := range entries {
				name := fmt.Sprintf("%s/f%d/m%d/%s", entry, p.factor, p.machines, order)
				cl := topology.New(topology.AlibabaConfig(p.machines))
				var (
					asg  constraint.Assignment
					work int64
				)
				switch entry {
				case "schedule":
					res, err := NewDefault().Schedule(w, cl, arrivals)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					asg, work = res.Assignment, res.WorkUnits
				case "session":
					asg, work, err = digestPipeline(NewSession(DefaultOptions(), w, cl), w, arrivals)
				case "sharded2":
					opts := DefaultOptions()
					opts.Shards = 2
					s, serr := NewSharded(opts, w, cl)
					if serr != nil {
						t.Fatalf("%s: %v", name, serr)
					}
					asg, work, err = digestPipeline(s, w, arrivals)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := placementDigest(w, asg)
				exp, ok := want[name]
				if !ok {
					t.Errorf("%s: no golden value; got {%q, %d}", name, got, work)
					continue
				}
				if got != exp.digest || work != exp.work {
					t.Errorf("%s: digest %s work %d, want digest %s work %d", name, got, work, exp.digest, exp.work)
				}
			}
		}
	}
}
