package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestTenantLifecycle walks the registry CRUD surface: the default
// tenant pre-exists, created tenants appear on their /t/{name}/
// routes with isolated state, and deletion tears them down.
func TestTenantLifecycle(t *testing.T) {
	s, _ := testServer(t)

	rec := do(t, s, http.MethodGet, "/tenants", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d: %s", rec.Code, rec.Body)
	}
	var infos []tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != DefaultTenant {
		t.Fatalf("initial tenants = %+v, want just the default", infos)
	}

	rec = do(t, s, http.MethodPost, "/tenants", `{"name":"blue","machines":4}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	var info tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "blue" || info.Machines != 4 {
		t.Fatalf("created tenant = %+v", info)
	}
	// The spec shared the default workload universe, so the container
	// population matches the default tenant's.
	if info.Containers != infos[0].Containers {
		t.Fatalf("blue universe = %d containers, want %d (shared)", info.Containers, infos[0].Containers)
	}

	if rec := do(t, s, http.MethodPost, "/tenants", `{"name":"blue"}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/tenants", `{"name":"bad/name"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid name = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/t/nope/healthz", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant route = %d, want 404", rec.Code)
	}

	// Isolation: a placement on blue never shows up on the default
	// tenant even though the container IDs coincide.
	if rec := do(t, s, http.MethodPost, "/t/blue/place", `{"containers":["web/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("blue place = %d: %s", rec.Code, rec.Body)
	}
	var blueAsg, defAsg []assignmentEntry
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/t/blue/assignments", "").Body.Bytes(), &blueAsg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/assignments", "").Body.Bytes(), &defAsg); err != nil {
		t.Fatal(err)
	}
	if len(blueAsg) != 1 || len(defAsg) != 0 {
		t.Fatalf("assignments: blue=%d default=%d, want 1 and 0", len(blueAsg), len(defAsg))
	}
	if rec := do(t, s, http.MethodGet, "/t/blue/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("blue healthz = %d: %s", rec.Code, rec.Body)
	}

	// /debug/vars carries both tenants' cluster blocks.
	var vars varsResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/debug/vars", "").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Tenants["blue"].ContainersPlaced != 1 || vars.Tenants[DefaultTenant].ContainersPlaced != 0 {
		t.Fatalf("vars tenants = %+v", vars.Tenants)
	}

	if rec := do(t, s, http.MethodDelete, "/tenants/blue", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/t/blue/healthz", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted tenant route = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/tenants/blue", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/tenants/"+DefaultTenant, ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("delete default = %d, want 400", rec.Code)
	}
}

// TestTenantPrivateWorkload: Factor > 0 generates a private synthetic
// universe instead of sharing the default tenant's.
func TestTenantPrivateWorkload(t *testing.T) {
	s, w := testServer(t)
	rec := do(t, s, http.MethodPost, "/tenants", `{"name":"gen","machines":8,"factor":2000,"seed":7}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	var info tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Containers == 0 || info.Containers == w.NumContainers() {
		t.Fatalf("generated universe = %d containers, want a non-empty private one (default has %d)",
			info.Containers, w.NumContainers())
	}
	// The default tenant's container IDs don't exist there.
	if rec := do(t, s, http.MethodPost, "/t/gen/place", `{"containers":["web/0"]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("foreign id place = %d, want 400: %s", rec.Code, rec.Body)
	}
}

// TestTenantSharded: Shards > 1 backs the tenant with the sharded
// core; placement and checkpoint work, a restore from a missing file
// fails.
func TestTenantSharded(t *testing.T) {
	s, _ := testServer(t)
	rec := do(t, s, http.MethodPost, "/tenants", `{"name":"wide","machines":4,"shards":2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/place", `{"containers":["web/0","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded place = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/checkpoint", ""); rec.Code != http.StatusOK {
		t.Fatalf("sharded checkpoint = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/restore", `{"path":"nope.json"}`); rec.Code == http.StatusOK {
		t.Fatalf("sharded restore = %d, want failure", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/t/wide/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("sharded healthz = %d: %s", rec.Code, rec.Body)
	}
}
