package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// TestConcurrentHandlers hammers every mutating and reading endpoint
// from parallel goroutines.  The Session is single-threaded by design;
// the server's mutex is the only thing standing between concurrent
// HTTP clients and state corruption, so this test exists to fail under
// `go test -race` if any handler forgets to take it.
func TestConcurrentHandlers(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(2, 2048), Replicas: 16},
		{ID: "b", Demand: resource.Cores(4, 4096), Replicas: 8, AntiAffinitySelf: true},
	})
	cl := topology.New(topology.Config{
		Machines: 16, MachinesPerRack: 4, RacksPerCluster: 4,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	s := New(sess, w, cl)

	send := func(method, path, body string) {
		var rdr *strings.Reader
		if body != "" {
			rdr = strings.NewReader(body)
		} else {
			rdr = strings.NewReader("")
		}
		req := httptest.NewRequest(method, path, rdr)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		// Contention outcomes (409 on double place/remove, overlapping
		// fails) are expected; data races and 500s are not.
		if rec.Code == http.StatusInternalServerError {
			t.Errorf("%s %s -> 500: %s", method, path, rec.Body)
		}
	}

	var wg sync.WaitGroup
	const rounds = 8
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("a/%d", g*4+i%4)
				send(http.MethodPost, "/place", fmt.Sprintf(`{"containers":[%q]}`, id))
				send(http.MethodGet, "/metrics", "")
				send(http.MethodPost, "/remove", fmt.Sprintf(`{"container":%q}`, id))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := fmt.Sprintf("b/%d", i)
			send(http.MethodPost, "/place", fmt.Sprintf(`{"containers":[%q]}`, id))
			send(http.MethodGet, "/assignments", "")
			send(http.MethodGet, "/debug/vars", "")
			send(http.MethodGet, "/explain?container=b/0", "")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m := i % 16
			send(http.MethodPost, "/fail", fmt.Sprintf(`{"machine":%d}`, m))
			send(http.MethodGet, "/healthz", "")
			send(http.MethodPost, "/recover", fmt.Sprintf(`{"machine":%d}`, m))
		}
	}()
	wg.Wait()

	// After the dust settles the session must be internally coherent.
	if err := sess.FlowConservation(); err != nil {
		t.Errorf("flow conservation after concurrent load: %v", err)
	}
	if vs := sess.Audit(); len(vs) != 0 {
		t.Errorf("violations after concurrent load: %v", vs)
	}
}

// TestSlowExplainDoesNotSerializePlace is the regression for the
// single-mutex server: /explain used to hold the one lock for its
// whole diagnosis, so one slow explain stalled every placement queued
// behind it.  The handler now snapshots cluster and assignment under
// the shared read lock and diagnoses the snapshot unlocked, so this
// test parks an /explain inside the injected explain seam and proves
// a /place completes while it is still parked.
func TestSlowExplainDoesNotSerializePlace(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(2, 2048), Replicas: 8},
	})
	cl := topology.New(topology.Config{
		Machines: 8, MachinesPerRack: 4, RacksPerCluster: 2,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	s := New(sess, w, cl)

	entered := make(chan struct{})
	release := make(chan struct{})
	realExplain := s.explain
	s.explain = func(wl *workload.Workload, cluster *topology.Cluster, asg constraint.Assignment, id string) (*core.Explanation, error) {
		close(entered)
		<-release
		return realExplain(wl, cluster, asg, id)
	}

	explained := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/explain?container=a/0", strings.NewReader(""))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		explained <- rec.Code
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("/explain never reached the explain seam")
	}

	// The explain handler is now parked holding no lock at all; a
	// placement must go through.
	placed := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/place", strings.NewReader(`{"containers":["a/0"]}`))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		placed <- rec.Code
	}()
	select {
	case code := <-placed:
		if code != http.StatusOK {
			t.Fatalf("/place during slow /explain -> %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/place blocked behind a slow /explain")
	}

	close(release)
	if code := <-explained; code != http.StatusOK {
		t.Fatalf("slow /explain -> %d", code)
	}
}

// TestConcurrentHealthReads runs GET /healthz beside the other read
// handlers and the rebalancer's audit adapter, all under the tenant's
// shared read lock.  Every machine's sorted ID cache starts unbuilt,
// so the readers race to build it; it is published atomically, so
// under `go test -race` this must show no data race.  The detector
// sees such a race only when the builds overlap, so the scenario
// repeats on fresh sessions.  And a /healthz must complete while
// another reader holds the read lock, which it could not if it took
// the write lock.
func TestConcurrentHealthReads(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(2, 2048), Replicas: 16},
		{ID: "b", Demand: resource.Cores(4, 4096), Replicas: 8, AntiAffinitySelf: true},
	})
	var (
		s      *Server
		tenant *Tenant
	)
	for rep := 0; rep < 8; rep++ {
		cl := topology.New(topology.Config{
			Machines: 8, MachinesPerRack: 4, RacksPerCluster: 2,
			Capacity: resource.Cores(32, 64*1024),
		})
		sess := core.NewSession(core.DefaultOptions(), w, cl)
		if _, err := sess.Place(w.Containers()); err != nil {
			t.Fatal(err)
		}
		s = New(sess, w, cl)
		tenant = s.lookupTenant(DefaultTenant)
		concurrentReads(t, s, tenant, cl.Size())
	}

	tenant.mu.RLock()
	done := make(chan int, 1)
	go func() { done <- getCode(s, "/healthz") }()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("/healthz beside a reader -> %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/healthz blocked behind a reader: it takes the write lock")
	}
	tenant.mu.RUnlock()
}

// concurrentReads runs the read handlers, the rebalancer's audits and
// a direct walk of every machine's residents side by side.
func concurrentReads(t *testing.T, s *Server, tenant *Tenant, machines int) {
	t.Helper()
	var wg sync.WaitGroup
	const rounds = 4
	paths := []string{"/healthz", "/healthz", "/assignments", "/explain?container=b/0", "/metrics"}
	for _, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if code := getCode(s, path); code != http.StatusOK {
					t.Errorf("GET %s -> %d", path, code)
					return
				}
			}
		}()
	}
	// A reader walking the topology directly, as the scrape-time
	// cluster sample does, with no shard lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tenant.mu.RLock()
			for m := 0; m < machines; m++ {
				_ = tenant.sess.Machine(topology.MachineID(m)).ContainerIDs()
			}
			tenant.mu.RUnlock()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if vs := tenant.resched.AuditInvariants(); len(vs) != 0 {
				t.Errorf("audit found violations: %v", vs)
				return
			}
			if err := tenant.resched.FlowConservation(); err != nil {
				t.Errorf("flow conservation: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func getCode(s *Server, path string) int {
	req := httptest.NewRequest(http.MethodGet, path, strings.NewReader(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code
}
