package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"aladdin/internal/checkpoint"
	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// TestExplainStatusCodes: pre-PR the handler mapped every Explain
// error to 404, so an internal failure read as "no such container".
func TestExplainStatusCodes(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, http.MethodGet, "/explain?container=web/0", ""); rec.Code != http.StatusOK {
		t.Fatalf("explain known = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/explain?container=ghost/9", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("explain unknown = %d, want 404: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/explain", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("explain missing param = %d, want 400", rec.Code)
	}
	// An internal failure must NOT masquerade as not-found.
	s.explain = func(*workload.Workload, *topology.Cluster, constraint.Assignment, string) (*core.Explanation, error) {
		return nil, errors.New("aggregates diverged")
	}
	if rec := do(t, s, http.MethodGet, "/explain?container=web/0", ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("explain internal error = %d, want 500: %s", rec.Code, rec.Body)
	}
}

// TestCheckpointRestoreHandlers drives the full warm-restart loop
// over HTTP: place, fail a machine, checkpoint to disk, keep
// scheduling on one server while a second restores the snapshot and
// replays the same batch — both must land identical assignments.
func TestCheckpointRestoreHandlers(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, http.MethodPost, "/place", `{"containers":["web/0","web/1","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/fail", `{"machine": 3}`); rec.Code != http.StatusOK {
		t.Fatalf("fail = %d: %s", rec.Code, rec.Body)
	}

	path := filepath.Join(t.TempDir(), "snap.json")
	rec := do(t, s, http.MethodPost, "/checkpoint", `{"path": "`+path+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint = %d: %s", rec.Code, rec.Body)
	}
	var cr checkpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Machines != 4 || cr.Placements != 3 {
		t.Fatalf("checkpoint summary = %+v", cr)
	}
	if _, err := checkpoint.ReadFile(path); err != nil {
		t.Fatalf("written snapshot unreadable: %v", err)
	}

	// Second server, same workload universe, fresh state.
	s2, _ := testServer(t)
	rec = do(t, s2, http.MethodPost, "/restore", `{"path": "`+path+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("restore = %d: %s", rec.Code, rec.Body)
	}
	var rr restoreResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Machines != 4 || rr.Placed != 3 {
		t.Fatalf("restore summary = %+v", rr)
	}
	if s2.def.sess.Machine(3).Up() {
		t.Fatal("machine 3 should restore down")
	}

	// Same subsequent batch on both; must land identically.
	for _, srv := range []*Server{s, s2} {
		if rec := do(t, srv, http.MethodPost, "/place", `{"containers":["web/2"]}`); rec.Code != http.StatusOK {
			t.Fatalf("post-restore place = %d: %s", rec.Code, rec.Body)
		}
	}
	if !reflect.DeepEqual(s.def.sess.Assignment(), s2.def.sess.Assignment()) {
		t.Fatalf("assignments diverged:\n original: %v\n restored: %v",
			s.def.sess.Assignment(), s2.def.sess.Assignment())
	}
	if rec := do(t, s2, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("restored server unhealthy: %s", rec.Body)
	}
}

// TestCheckpointInline: no path configured or given returns the
// snapshot itself, which restores through the inline /restore form.
func TestCheckpointInline(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, http.MethodPost, "/place", `{"containers":["web/0","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, s, http.MethodPost, "/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("inline checkpoint = %d: %s", rec.Code, rec.Body)
	}
	s2, _ := testServer(t)
	body, err := json.Marshal(restoreRequest{Snapshot: rec.Body.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s2, http.MethodPost, "/restore", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("inline restore = %d: %s", rec.Code, rec.Body)
	}
	if !reflect.DeepEqual(s.def.sess.Assignment(), s2.def.sess.Assignment()) {
		t.Fatal("inline round-trip diverged")
	}
}

func TestCheckpointDefaultPath(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 8192), Replicas: 1},
	})
	cl := topology.New(topology.Config{
		Machines: 2, MachinesPerRack: 1, RacksPerCluster: 2,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	path := filepath.Join(t.TempDir(), "default.json")
	s := New(sess, w, cl, WithCheckpointPath(path))
	if rec := do(t, s, http.MethodPost, "/checkpoint", "{}"); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint = %d: %s", rec.Code, rec.Body)
	}
	if _, err := checkpoint.ReadFile(path); err != nil {
		t.Fatalf("default-path snapshot unreadable: %v", err)
	}
}

func TestRestoreValidationErrors(t *testing.T) {
	s, _ := testServer(t)
	cases := map[string]struct {
		body string
		want int
	}{
		"empty body":       {``, http.StatusBadRequest},
		"neither":          {`{}`, http.StatusBadRequest},
		"both":             {`{"path": "x", "snapshot": {"version": 2}}`, http.StatusBadRequest},
		"missing file":     {`{"path": "/nonexistent/snap.json"}`, http.StatusBadRequest},
		"invalid snapshot": {`{"snapshot": {"version": 99}}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		if rec := do(t, s, http.MethodPost, "/restore", tc.body); rec.Code != tc.want {
			t.Errorf("%s: code = %d, want %d (%s)", name, rec.Code, tc.want, rec.Body)
		}
	}
	// A structurally valid snapshot whose placements reference
	// containers outside the server's workload is a conflict.
	alien := `{"snapshot": {"version": 2,
		"layout": {"machines_per_rack": 1, "racks_per_cluster": 1},
		"machines": [{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 64000, "capacity_mem_mb": 65536}],
		"placements": [{"container": "alien/0", "machine": 0}]}}`
	if rec := do(t, s, http.MethodPost, "/restore", alien); rec.Code != http.StatusConflict {
		t.Errorf("alien snapshot: code = %d, want 409 (%s)", rec.Code, rec.Body)
	}
}
