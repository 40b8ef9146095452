package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

func testServer(t *testing.T) (*Server, *workload.Workload) {
	t.Helper()
	w := workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 3, AntiAffinitySelf: true},
		{ID: "db", Demand: resource.Cores(8, 16384), Replicas: 1, AntiAffinityApps: []string{"web"}},
	})
	cl := topology.New(topology.Config{
		Machines: 4, MachinesPerRack: 2, RacksPerCluster: 2,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	return New(sess, w, cl), w
}

func do(t *testing.T, s *Server, method, path string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	rec := do(t, s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", rec.Code, rec.Body)
	}
}

func TestPlaceAndAssignments(t *testing.T) {
	s, _ := testServer(t)
	rec := do(t, s, http.MethodPost, "/place",
		`{"containers":["web/0","web/1","web/2","db/0"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", rec.Code, rec.Body)
	}
	var pr placeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Placed != 4 || len(pr.Undeployed) != 0 {
		t.Fatalf("placeResponse = %+v", pr)
	}

	rec = do(t, s, http.MethodGet, "/assignments", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("assignments = %d", rec.Code)
	}
	var entries []assignmentEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Sorted by container and machine names resolved.
	if entries[0].Container != "db/0" || entries[0].MachineID == "" {
		t.Errorf("entry[0] = %+v", entries[0])
	}
}

func TestPlaceErrors(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, http.MethodPost, "/place", `{"containers":["ghost/9"]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown container = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/place", `not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad json = %d", rec.Code)
	}
	// Double placement conflicts.
	do(t, s, http.MethodPost, "/place", `{"containers":["web/0"]}`)
	if rec := do(t, s, http.MethodPost, "/place", `{"containers":["web/0"]}`); rec.Code != http.StatusConflict {
		t.Errorf("double place = %d", rec.Code)
	}
}

func TestRemove(t *testing.T) {
	s, _ := testServer(t)
	do(t, s, http.MethodPost, "/place", `{"containers":["web/0"]}`)
	if rec := do(t, s, http.MethodPost, "/remove", `{"container":"web/0"}`); rec.Code != http.StatusOK {
		t.Errorf("remove = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/remove", `{"container":"web/0"}`); rec.Code != http.StatusConflict {
		t.Errorf("double remove = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/remove", `bad`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad json = %d", rec.Code)
	}
}

func TestMetrics(t *testing.T) {
	s, _ := testServer(t)
	do(t, s, http.MethodPost, "/place", `{"containers":["web/0","db/0"]}`)
	rec := do(t, s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"aladdin_machines_total 4",
		"aladdin_containers_placed 2",
		"aladdin_cpu_milli_allocated 12000",
		"aladdin_cpu_utilization_mean",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, _ := testServer(t)
	do(t, s, http.MethodPost, "/place", `{"containers":["web/0","web/1","web/2"]}`)
	rec := do(t, s, http.MethodGet, "/explain?container=db/0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d: %s", rec.Code, rec.Body)
	}
	var e core.Explanation
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	// db conflicts with web on 3 of 4 machines; one stays free.
	if !e.Placeable() {
		t.Errorf("db should still be placeable: %+v", e)
	}
	if e.BlacklistRejected != 3 {
		t.Errorf("BlacklistRejected = %d, want 3", e.BlacklistRejected)
	}
	if rec := do(t, s, http.MethodGet, "/explain", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("missing param = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/explain?container=ghost/0", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown container = %d", rec.Code)
	}
}

func TestFailAndRecoverEndpoints(t *testing.T) {
	s, _ := testServer(t)
	do(t, s, http.MethodPost, "/place", `{"containers":["web/0","web/1","web/2","db/0"]}`)

	rec := do(t, s, http.MethodPost, "/fail", `{"machine":0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("fail = %d: %s", rec.Code, rec.Body)
	}
	var fr failResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Machine != 0 {
		t.Errorf("failResponse.Machine = %d", fr.Machine)
	}
	if fr.Evicted != fr.Replaced+len(fr.Stranded) {
		t.Errorf("fail ledger unbalanced: %+v", fr)
	}

	// The metrics and health surfaces reflect the failure.
	body := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	if !strings.Contains(body, "aladdin_machines_down 1") {
		t.Errorf("metrics missing down gauge:\n%s", body)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz after failure = %d: %s", rec.Code, rec.Body)
	}

	// Error cases: double fail, unknown machine, bad body.
	if rec := do(t, s, http.MethodPost, "/fail", `{"machine":0}`); rec.Code != http.StatusConflict {
		t.Errorf("double fail = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/fail", `{"machine":99}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown machine = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/fail", `nope`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad json = %d", rec.Code)
	}

	// Recover and verify the gauge resets.
	if rec := do(t, s, http.MethodPost, "/recover", `{"machine":0}`); rec.Code != http.StatusOK {
		t.Errorf("recover = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/recover", `{"machine":0}`); rec.Code != http.StatusConflict {
		t.Errorf("double recover = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/recover", `{"machine":99}`); rec.Code != http.StatusNotFound {
		t.Errorf("recover unknown machine = %d", rec.Code)
	}
	body = do(t, s, http.MethodGet, "/metrics", "").Body.String()
	if !strings.Contains(body, "aladdin_machines_down 0") {
		t.Errorf("metrics down gauge should reset:\n%s", body)
	}
}

func TestPlacePartialResultSurfaced(t *testing.T) {
	// Regression: a mid-batch placement error used to answer a bare 409
	// with no body, hiding which containers were already live.  Force
	// the collision by allocating web/1's slot behind the session's
	// back on every machine.
	w := workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 2},
	})
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	s := New(sess, w, cl)
	if err := cl.Machine(0).Allocate("web/1", resource.Cores(4, 8192)); err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodPost, "/place", `{"containers":["web/0","web/1"]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("partial place = %d, want 409", rec.Code)
	}
	var pr placeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatalf("partial place response must be JSON, got %q: %v", rec.Body, err)
	}
	if pr.Error == "" {
		t.Error("partial place response missing error")
	}
	if pr.Placed != 1 || len(pr.Undeployed) != 1 {
		t.Errorf("partial place response = %+v, want 1 placed / 1 undeployed", pr)
	}
}

func TestWriteJSONEncodeErrorIsClean500(t *testing.T) {
	// Regression: writeJSON used to stream the encoder straight into
	// the ResponseWriter, so an encode error fired http.Error after the
	// 200 header was already committed — a superfluous WriteHeader and
	// a body mixing partial JSON with the error text.  Buffered
	// encoding must produce a clean 500 instead.
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("encode error status = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "{") {
		t.Errorf("encode error body contains partial JSON: %q", rec.Body)
	}
}

func TestHealthzDetectsCorruption(t *testing.T) {
	// Restore replays placements without re-checking anti-affinity, so
	// a state with both self-anti-affine replicas on one machine comes
	// back live: healthz must notice via the audit.
	w := workload.MustNew([]*workload.App{
		{ID: "spread", Demand: resource.Cores(2, 2048), Replicas: 2, AntiAffinitySelf: true},
	})
	cl := topology.New(topology.Config{
		Machines: 2, MachinesPerRack: 2, RacksPerCluster: 1,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess, err := core.RestoreSession(core.DefaultOptions(), w, cl, &core.SessionState{
		Assignment: constraint.Assignment{"spread/0": 0, "spread/1": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sess, w, cl)
	rec := do(t, s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("healthz should fail on violation, got %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("violation")) {
		t.Errorf("body = %s", rec.Body)
	}
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestOversizeBodyRejected streams a /place body one byte past the
// cap: the handler must answer 413 without placing anything, and the
// tenant must keep serving normal requests.
func TestOversizeBodyRejected(t *testing.T) {
	s, _ := testServer(t)
	body := io.MultiReader(
		strings.NewReader(`{"containers":["`),
		io.LimitReader(fillReader('a'), maxBodyBytes),
		strings.NewReader(`"]}`),
	)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/place", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /place status = %d, want 413 (body %q)", rec.Code, rec.Body)
	}
	if n := s.def.sess.NumPlaced(); n != 0 {
		t.Fatalf("oversize /place placed %d containers", n)
	}
	if rec := do(t, s, http.MethodPost, "/place", `{"containers":["web/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("follow-up /place status = %d: %s", rec.Code, rec.Body)
	}
}
