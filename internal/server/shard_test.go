package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// shardServer builds a server whose default tenant runs a plain
// session and registers one 2-shard tenant per name, all over
// identical 4-machine clusters of two sub-clusters (two machines
// each), so every sharded tenant really runs two shards.
func shardServer(t *testing.T, names ...string) *Server {
	t.Helper()
	w := workload.MustNew([]*workload.App{
		{ID: "fill", Demand: resource.Cores(32, 64*1024), Replicas: 2},
		{ID: "probe", Demand: resource.Cores(32, 64*1024), Replicas: 1},
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 3, AntiAffinitySelf: true},
	})
	cfg := topology.Config{
		Machines: 4, MachinesPerRack: 2, RacksPerCluster: 1,
		Capacity: resource.Cores(32, 64*1024),
	}
	cl := topology.New(cfg)
	s := New(core.NewSession(core.DefaultOptions(), w, cl), w, cl)
	opts := core.DefaultOptions()
	opts.Shards = 2
	for _, name := range names {
		sess, err := core.NewSharded(opts, w, topology.New(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if sess.NumShards() != 2 {
			t.Fatalf("tenant %s runs %d shards, want 2", name, sess.NumShards())
		}
		s.mu.Lock()
		s.tenants[name] = newTenant(name, sess, "", 2, nil)
		s.mu.Unlock()
	}
	return s
}

// TestShardedTenantReadsLiveCluster: a sharded tenant's metrics,
// /tenants row and /explain verdict come from the machines its shards
// schedule, matching a plain twin that made the same moves.  Reading
// the cluster handed to NewSharded instead — the routing map, which
// never holds an allocation — reports no used machines, no down
// machines, and a full shard as free.
func TestShardedTenantReadsLiveCluster(t *testing.T) {
	s := shardServer(t, "sh")
	for _, prefix := range []string{"", "/t/sh"} {
		// Both whole-machine replicas land on sub-cluster 0, filling it.
		if rec := do(t, s, http.MethodPost, prefix+"/place", `{"containers":["fill/0","fill/1"]}`); rec.Code != http.StatusOK {
			t.Fatalf("%s place = %d: %s", prefix, rec.Code, rec.Body)
		}
		if rec := do(t, s, http.MethodPost, prefix+"/fail", `{"machine":3}`); rec.Code != http.StatusOK {
			t.Fatalf("%s fail = %d: %s", prefix, rec.Code, rec.Body)
		}
	}

	metrics := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, line := range []string{
		"aladdin_machines_used 2", `aladdin_machines_used{tenant="sh"} 2`,
		"aladdin_machines_down 1", `aladdin_machines_down{tenant="sh"} 1`,
		"aladdin_containers_placed 2", `aladdin_containers_placed{tenant="sh"} 2`,
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Errorf("metrics lack %q:\n%s", line, metrics)
		}
	}

	var rows []tenantInfo
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/tenants", "").Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.MachinesDown != 1 || row.Placed != 2 {
			t.Errorf("tenant %s: machines_down %d placed %d, want 1 and 2", row.Name, row.MachinesDown, row.Placed)
		}
	}

	plain := do(t, s, http.MethodGet, "/explain?container=probe/0", "")
	sharded := do(t, s, http.MethodGet, "/t/sh/explain?container=probe/0", "")
	if plain.Code != http.StatusOK || sharded.Code != http.StatusOK {
		t.Fatalf("explain = %d / %d", plain.Code, sharded.Code)
	}
	var e core.Explanation
	if err := json.Unmarshal(sharded.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Chosen != 2 {
		t.Errorf("sharded explain chose machine %d, want 2 (machines 0-1 are full, 3 is down): %s", e.Chosen, sharded.Body)
	}
	if plain.Body.String() != sharded.Body.String() {
		t.Errorf("explain verdicts differ:\n plain:   %s\n sharded: %s", plain.Body, sharded.Body)
	}
}

// TestShardedTenantCheckpointRestore: a 2-shard tenant checkpoints and
// restores over HTTP; afterwards its assignments equal those of a twin
// that never restarted, and the next placement, recovery and stranded
// retry land exactly as on the twin.
func TestShardedTenantCheckpointRestore(t *testing.T) {
	s := shardServer(t, "sh", "twin")
	both := func(method, path, body string) [2]string {
		t.Helper()
		var out [2]string
		for i, name := range []string{"sh", "twin"} {
			rec := do(t, s, method, "/t/"+name+path, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s on %s = %d: %s", method, path, name, rec.Code, rec.Body)
			}
			out[i] = rec.Body.String()
		}
		return out
	}
	sameAssignments := func(when string) {
		t.Helper()
		if got := both(http.MethodGet, "/assignments", ""); got[0] != got[1] {
			t.Fatalf("%s: assignments differ:\n restored: %s\n twin:     %s", when, got[0], got[1])
		}
	}
	both(http.MethodPost, "/place", `{"containers":["fill/0","web/0","web/1"]}`)
	both(http.MethodPost, "/fail", `{"machine":0}`)

	rec := do(t, s, http.MethodPost, "/t/sh/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded checkpoint = %d: %s", rec.Code, rec.Body)
	}
	body, err := json.Marshal(restoreRequest{Snapshot: rec.Body.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/t/sh/restore", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("sharded restore = %d: %s", rec.Code, rec.Body)
	}
	if got := s.lookupTenant("sh").sess.NumShards(); got != 2 {
		t.Fatalf("restored tenant runs %d shards, want 2", got)
	}
	sameAssignments("after restore")

	var placed [2]placeResponse
	for i, out := range both(http.MethodPost, "/place", `{"containers":["fill/1","probe/0","web/2"]}`) {
		if err := json.Unmarshal([]byte(out), &placed[i]); err != nil {
			t.Fatal(err)
		}
		placed[i].ElapsedUS = 0
	}
	if !equalJSON(t, placed[0], placed[1]) {
		t.Fatalf("next place differs: restored %+v, twin %+v", placed[0], placed[1])
	}
	sameAssignments("after the next place")

	var recovered [2]recoverResponse
	for i, out := range both(http.MethodPost, "/recover", `{"machine":0}`) {
		if err := json.Unmarshal([]byte(out), &recovered[i]); err != nil {
			t.Fatal(err)
		}
		recovered[i].ElapsedUS = 0
	}
	if !equalJSON(t, recovered[0], recovered[1]) {
		t.Fatalf("recovery differs: restored %+v, twin %+v", recovered[0], recovered[1])
	}
	sameAssignments("after recovery")
	both(http.MethodGet, "/healthz", "")
}

// equalJSON compares two values by their JSON encoding.
func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}
