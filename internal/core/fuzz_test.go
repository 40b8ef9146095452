package core

import (
	"errors"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// The fuzz targets drive random operation sequences through a live
// Session and run the full invariant Auditor after every step: any
// sequence of place / remove / fail / recover operations must leave
// the flow network, the search index and the assignment tables
// mutually consistent, and must surface failures as errors — never as
// panics or silent state corruption.
//
// Byte encoding: each input byte is one operation.  The low two bits
// select the operation, the high six bits select its target (reduced
// modulo the container or machine universe), so any byte string is a
// valid schedule and the fuzzer's bit flips map to small schedule
// edits.

const fuzzOpBudget = 256 // cap schedule length so exhaustive audits stay fast

// mustCleanAudit fails the fuzz run if the auditor finds violations.
func mustCleanAudit(t *testing.T, s *Session, step int, op string) {
	t.Helper()
	if vs := s.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("step %d (%s): invariants broken: %v", step, op, vs)
	}
}

// mustNotCorrupt allows domain errors (duplicate placement, failing a
// down machine) but fails hard on state corruption.
func mustNotCorrupt(t *testing.T, err error, step int, op string) {
	t.Helper()
	if err != nil && errors.Is(err, ErrStateCorruption) {
		t.Fatalf("step %d (%s): state corruption: %v", step, op, err)
	}
}

// FuzzPlace drives arbitrary interleavings of single-container
// placements, departures, machine failures and repairs.
func FuzzPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 8, 12, 16, 20})                   // straight-line placements
	f.Add([]byte{0, 4, 1, 5, 0, 4})                      // place, remove, re-place
	f.Add([]byte{0, 4, 8, 2, 6, 3, 7, 0})                // placements around a failure and repair
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 254, 255, 253}) // duplicate ops and high ordinals
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzOpBudget {
			data = data[:fuzzOpBudget]
		}
		w := sessionWorkload()
		cl := smallCluster(8)
		s := NewSession(DefaultOptions(), w, cl)
		containers := w.Containers()
		machines := cl.Machines()
		for i, b := range data {
			op, arg := int(b&3), int(b>>2)
			switch op {
			case 0:
				c := containers[arg%len(containers)]
				_, err := s.Place([]*workload.Container{c})
				mustNotCorrupt(t, err, i, "place")
				mustCleanAudit(t, s, i, "place")
			case 1:
				c := containers[arg%len(containers)]
				if s.Placed(c.ID) {
					mustNotCorrupt(t, s.Remove(c.ID), i, "remove")
					mustCleanAudit(t, s, i, "remove")
				}
			case 2:
				m := machines[arg%len(machines)]
				if m.Up() {
					_, err := s.FailMachine(m.ID)
					mustNotCorrupt(t, err, i, "fail")
					mustCleanAudit(t, s, i, "fail")
				}
			case 3:
				m := machines[arg%len(machines)]
				if !m.Up() {
					_, rerr := s.RecoverMachine(m.ID)
					mustNotCorrupt(t, rerr, i, "recover")
					mustCleanAudit(t, s, i, "recover")
				}
			}
		}
	})
}

// FuzzFailRecover starts from a fully-placed session and fuzzes only
// the failure/repair schedule — the paths where eviction, re-placement
// and index maintenance interact hardest.
func FuzzFailRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})                   // fail then repair one machine
	f.Add([]byte{0, 2, 4, 1, 3, 5})       // overlapping failures, ordered repairs
	f.Add([]byte{0, 0, 0, 1, 1, 1})       // repeated ops on one machine
	f.Add([]byte{254, 255, 252, 253, 16}) // high machine ordinals
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzOpBudget {
			data = data[:fuzzOpBudget]
		}
		w := sessionWorkload()
		cl := smallCluster(8)
		s := NewSession(DefaultOptions(), w, cl)
		if _, err := s.Place(w.Containers()); err != nil {
			t.Fatal(err)
		}
		machines := cl.Machines()
		for i, b := range data {
			m := machines[int(b>>1)%len(machines)]
			if b&1 == 0 {
				if !m.Up() {
					continue
				}
				_, err := s.FailMachine(m.ID)
				mustNotCorrupt(t, err, i, "fail")
				mustCleanAudit(t, s, i, "fail")
			} else {
				if m.Up() {
					continue
				}
				_, rerr := s.RecoverMachine(m.ID)
				mustNotCorrupt(t, rerr, i, "recover")
				mustCleanAudit(t, s, i, "recover")
			}
		}
		// Repair everything: the session must end audit-clean with all
		// capacity back in service.
		for _, m := range machines {
			if !m.Up() {
				if _, err := s.RecoverMachine(m.ID); err != nil {
					t.Fatalf("final recovery of machine %d: %v", m.ID, err)
				}
			}
		}
		mustCleanAudit(t, s, len(data), "drain")
	})
}

// checkOrdinalViews asserts that the dense ordinal tables and the
// string-keyed boundary views of a session never disagree: every
// container's cached app ref matches a fresh workload lookup, the
// ordinal-keyed assignment matches the exported ID-keyed map and the
// topology layer's hosting state, each machine's resident-ordinal
// list mirrors its container set, and the network's per-machine arc
// and sub-cluster tables match their name-keyed construction maps.
func checkOrdinalViews(t *testing.T, s *Session, step int) {
	t.Helper()
	r := s.r
	all := s.w.Containers()
	asgMap := s.Assignment()
	placed := 0
	for _, c := range all {
		if got, want := r.search.refs[c.Ord], constraint.AppRef(s.w.AppIndex(c.App)); got != want {
			t.Fatalf("step %d: container %s: cached app ref %d, workload lookup %d", step, c.ID, got, want)
		}
		m := r.asg[c.Ord]
		em, ok := asgMap[c.ID]
		if (m != topology.Invalid) != ok || (ok && em != m) {
			t.Fatalf("step %d: container %s: ordinal assignment %d, exported (%v, %d)", step, c.ID, m, ok, em)
		}
		if m != topology.Invalid {
			placed++
			if !r.cluster.Machine(m).Hosts(c.ID) {
				t.Fatalf("step %d: container %s assigned to machine %d but not hosted there", step, c.ID, m)
			}
		}
	}
	if placed != len(asgMap) {
		t.Fatalf("step %d: %d placed ordinals, %d exported assignments", step, placed, len(asgMap))
	}
	for mid := 0; mid < r.cluster.Size(); mid++ {
		m := topology.MachineID(mid)
		res := r.residents[m]
		if got, want := len(res), r.cluster.Machine(m).NumContainers(); got != want {
			t.Fatalf("step %d: machine %d: %d residents, topology hosts %d", step, mid, got, want)
		}
		for j, ord := range res {
			if j > 0 && res[j-1] >= ord {
				t.Fatalf("step %d: machine %d: residents not in ascending ordinal order: %v", step, mid, res)
			}
			if r.asg[ord] != m {
				t.Fatalf("step %d: machine %d: resident %s assigned to %d", step, mid, all[ord].ID, r.asg[ord])
			}
		}
	}
	n := r.net
	for _, c := range all {
		if got, want := int(n.appOf[c.Ord]), n.appOrd[c.App]; got != want {
			t.Fatalf("step %d: container %s: appOf %d, appOrd map %d", step, c.ID, got, want)
		}
	}
	for _, rname := range r.cluster.Racks() {
		rack := r.cluster.Rack(rname)
		for _, mid := range rack.Machines {
			if got, want := int(n.grArcOf[mid]), n.grArc[rname]; got != want {
				t.Fatalf("step %d: machine %d: grArcOf %d, grArc map %d", step, mid, got, want)
			}
			if got, want := int(n.subOf[mid]), n.subOrd[rack.Cluster]; got != want {
				t.Fatalf("step %d: machine %d: subOf %d, subOrd map %d", step, mid, got, want)
			}
		}
	}
}

// FuzzIndexNaiveEquivalence runs the same fuzzed schedule against an
// indexed session and a naive-scan session: under depth limiting the
// two searches promise byte-identical placements, so after every
// operation both the success/failure of the call and the full
// assignment table must agree, and the indexed session must stay
// audit-clean (which includes the index-vs-live cross-check).  Both
// sessions' dense ordinal tables must additionally keep agreeing with
// their string-keyed export views after every step (checkOrdinalViews).
//
// The same schedule additionally drives a concurrent and a sequential
// ShardedSession pair over a multi-sub-cluster topology, with the
// shard count fuzzed from the input's last byte: the two sharded
// modes promise byte-identical merged assignments and identical error
// outcomes, and the concurrent one must stay audit-clean (per-shard
// auditors plus the wrapper ownership coherence check) with global
// anti-affinity holding across shard boundaries.
func FuzzIndexNaiveEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44}) // place everything
	f.Add([]byte{0, 4, 1, 2, 6, 3, 7, 0, 4})                   // churn with a failure window
	f.Add([]byte{255, 254, 253, 252, 0, 1, 2, 3})              // high ordinals
	f.Add([]byte{0, 4, 8, 2, 66, 1, 3, 67, 0, 3})              // churn, 4 shards (last byte 67 % 4 + 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzOpBudget {
			data = data[:fuzzOpBudget]
		}
		naiveOpts := DefaultOptions()
		naiveOpts.NaiveSearch = true
		indexed := NewSession(DefaultOptions(), sessionWorkload(), smallCluster(8))
		naive := NewSession(naiveOpts, sessionWorkload(), smallCluster(8))
		sessions := []*Session{indexed, naive}
		machineCount := indexed.r.cluster.Size()

		// Sharded pair: shard count 1–4 from the last input byte, over
		// a 4-sub-cluster topology so every count is distinct.
		shards := 1
		if len(data) > 0 {
			shards = int(data[len(data)-1])%4 + 1
		}
		shardOpts := DefaultOptions()
		shardOpts.Shards = shards
		shardedPar, err := NewSharded(shardOpts, sessionWorkload(), shardCluster(32))
		if err != nil {
			t.Fatal(err)
		}
		shardedSeq, err := NewSharded(shardOpts, sessionWorkload(), shardCluster(32))
		if err != nil {
			t.Fatal(err)
		}
		shardedSeq.sequential = true
		shardedMachines := 32

		for i, b := range data {
			op, arg := int(b&3), int(b>>2)
			var errs [2]error
			for si, s := range sessions {
				containers := s.w.Containers()
				switch op {
				case 0:
					_, errs[si] = s.Place([]*workload.Container{containers[arg%len(containers)]})
				case 1:
					id := containers[arg%len(containers)].ID
					if s.Placed(id) {
						errs[si] = s.Remove(id)
					}
				case 2:
					mid := topology.MachineID(arg % machineCount)
					if s.r.cluster.Machine(mid).Up() {
						_, errs[si] = s.FailMachine(mid)
					}
				case 3:
					mid := topology.MachineID(arg % machineCount)
					if !s.r.cluster.Machine(mid).Up() {
						_, errs[si] = s.RecoverMachine(mid)
					}
				}
				mustNotCorrupt(t, errs[si], i, "op")
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("step %d: indexed err %v, naive err %v", i, errs[0], errs[1])
			}
			ia, na := indexed.Assignment(), naive.Assignment()
			if len(ia) != len(na) {
				t.Fatalf("step %d: indexed placed %d containers, naive %d", i, len(ia), len(na))
			}
			for id, m := range ia {
				if nm, ok := na[id]; !ok || nm != m {
					t.Fatalf("step %d: container %s on machine %d indexed, %d naive", i, id, m, nm)
				}
			}
			mustCleanAudit(t, indexed, i, "op")
			checkOrdinalViews(t, indexed, i)
			checkOrdinalViews(t, naive, i)

			// Sharded concurrent vs sequential: same op, compared the
			// same way.
			var serrs [2]error
			for si, ss := range []*ShardedSession{shardedPar, shardedSeq} {
				containers := ss.w.Containers()
				switch op {
				case 0:
					c := containers[arg%len(containers)]
					if !ss.Placed(c.ID) {
						_, serrs[si] = ss.Place([]*workload.Container{c})
					}
				case 1:
					c := containers[arg%len(containers)]
					if ss.Placed(c.ID) {
						serrs[si] = ss.Remove(c.ID)
					}
				case 2:
					_, serrs[si] = ss.FailMachine(topology.MachineID(arg % shardedMachines))
				case 3:
					_, serrs[si] = ss.RecoverMachine(topology.MachineID(arg % shardedMachines))
				}
				mustNotCorrupt(t, serrs[si], i, "sharded op")
			}
			if (serrs[0] == nil) != (serrs[1] == nil) {
				t.Fatalf("step %d: sharded concurrent err %v, sequential err %v", i, serrs[0], serrs[1])
			}
			pa, sa := shardedPar.Assignment(), shardedSeq.Assignment()
			if len(pa) != len(sa) {
				t.Fatalf("step %d: sharded concurrent placed %d, sequential %d", i, len(pa), len(sa))
			}
			for id, m := range pa {
				if sm, ok := sa[id]; !ok || sm != m {
					t.Fatalf("step %d: container %s on machine %d concurrent, %d sequential", i, id, m, sm)
				}
			}
			if vs := shardedPar.AuditInvariants(); len(vs) != 0 {
				t.Fatalf("step %d: sharded invariants broken: %v", i, vs)
			}
			if vs := constraint.AuditAntiAffinity(shardedPar.w, pa); len(vs) != 0 {
				t.Fatalf("step %d: cross-shard anti-affinity violated: %v", i, vs)
			}
		}
	})
}
