package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// TestMultiTenantStorm hammers two tenants concurrently with the full
// mutating surface — place (coalesced), remove, fail, recover,
// checkpoint — interleaved with metrics scrapes and assignment dumps,
// under the race detector in CI.  Assertions: every request receives
// a response with an expected status, every 429 carries Retry-After,
// and after the dust settles each tenant's session passes the full
// invariant audit.
func TestMultiTenantStorm(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 6, AntiAffinitySelf: true},
		{ID: "db", Demand: resource.Cores(8, 16384), Replicas: 2},
	})
	cl := topology.New(topology.Config{
		Machines: 8, MachinesPerRack: 4, RacksPerCluster: 2,
		Capacity: resource.Cores(32, 64*1024),
	})
	reg := obs.NewRegistry()
	opts := core.DefaultOptions()
	opts.Metrics = reg
	sess := core.NewSession(opts, w, cl)
	// A tiny queue makes admission-control rejections an expected part
	// of the storm rather than a theoretical path.
	s := New(sess, w, cl, WithRegistry(reg),
		WithCoalescing(CoalesceConfig{Window: 2 * time.Millisecond, MaxBatch: 4, MaxQueue: 2}))
	t.Cleanup(s.Drain)
	if rec := do(t, s, http.MethodPost, "/tenants", `{"name":"blue","machines":8}`); rec.Code != http.StatusCreated {
		t.Fatalf("create tenant = %d: %s", rec.Code, rec.Body)
	}

	prefixes := []string{"", "/t/blue"}
	const workers = 8
	const opsPerWorker = 60

	type tally struct {
		responses int
		badCodes  []string
		bare429   int
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wk) + 1))
			ta := &tallies[wk]
			for op := 0; op < opsPerWorker; op++ {
				prefix := prefixes[rng.Intn(len(prefixes))]
				var method, path, body string
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					method, path = http.MethodPost, prefix+"/place"
					body = fmt.Sprintf(`{"containers":["web/%d"]}`, rng.Intn(6))
				case 4:
					method, path = http.MethodPost, prefix+"/remove"
					body = fmt.Sprintf(`{"container":"web/%d"}`, rng.Intn(6))
				case 5:
					method, path = http.MethodPost, prefix+"/fail"
					body = fmt.Sprintf(`{"machine":%d}`, rng.Intn(8))
				case 6:
					method, path = http.MethodPost, prefix+"/recover"
					body = fmt.Sprintf(`{"machine":%d}`, rng.Intn(8))
				case 7:
					method, path = http.MethodPost, prefix+"/checkpoint"
				case 8:
					method, path = http.MethodGet, "/metrics"
				default:
					method, path = http.MethodGet, prefix+"/assignments"
				}
				var rdr *strings.Reader
				if body != "" {
					rdr = strings.NewReader(body)
				} else {
					rdr = strings.NewReader("")
				}
				req := httptest.NewRequest(method, path, rdr)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				ta.responses++
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
				case http.StatusTooManyRequests:
					if rec.Result().Header.Get("Retry-After") == "" {
						ta.bare429++
					}
				default:
					ta.badCodes = append(ta.badCodes, fmt.Sprintf("%s %s -> %d: %s", method, path, rec.Code, rec.Body))
				}
			}
		}(wk)
	}
	wg.Wait()

	total := 0
	for wk := range tallies {
		total += tallies[wk].responses
		if tallies[wk].bare429 > 0 {
			t.Errorf("worker %d: %d 429 responses without Retry-After", wk, tallies[wk].bare429)
		}
		for _, bad := range tallies[wk].badCodes {
			t.Errorf("worker %d: unexpected response %s", wk, bad)
		}
	}
	if total != workers*opsPerWorker {
		t.Fatalf("responses = %d, want %d (lost results)", total, workers*opsPerWorker)
	}

	// Flush whatever the batchers still hold, then audit every tenant.
	s.Drain()
	for _, tn := range s.tenantsSorted() {
		tn.mu.Lock()
		if err := tn.sess.FlowConservation(); err != nil {
			t.Errorf("tenant %s: flow conservation broken after storm: %v", tn.name, err)
		}
		if vs := tn.sess.AuditInvariants(); len(vs) != 0 {
			t.Errorf("tenant %s: %d invariant violations after storm: %v", tn.name, len(vs), vs[0])
		}
		tn.mu.Unlock()
	}
}
