package loadtest

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/resource"
	"aladdin/internal/server"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// buildServer assembles a server over a flat single-app universe: n
// one-core containers on enough 32-core machines to hold them all,
// with or without request coalescing, plus any extra server options.
func buildServer(tb testing.TB, n int, coalesced bool, extra ...server.Option) (*server.Server, []string) {
	tb.Helper()
	w := workload.MustNew([]*workload.App{
		{ID: "svc", Demand: resource.Cores(1, 2048), Replicas: n},
	})
	cl := topology.New(topology.Config{
		Machines: n / 16, MachinesPerRack: 8, RacksPerCluster: 4,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	var opts []server.Option
	if coalesced {
		opts = append(opts, server.WithCoalescing(server.CoalesceConfig{
			Window: time.Millisecond, MaxBatch: 32, MaxQueue: 4096,
		}))
	}
	s := server.New(sess, w, cl, append(opts, extra...)...)
	tb.Cleanup(s.Drain)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("svc/%d", i)
	}
	return s, ids
}

// TestHarnessBasics sanity-checks the harness itself on a small
// uncoalesced server: every request lands, statuses are 200, and the
// latency histogram carries every observation.
func TestHarnessBasics(t *testing.T) {
	s, ids := buildServer(t, 64, false)
	res := Run(Config{Clients: 128, IDs: ids}, HandlerTarget{Handler: s})
	if res.Requests != 64 || res.StatusCounts[200] != 64 {
		t.Fatalf("result = %+v", res)
	}
	if !res.OK(200) {
		t.Fatalf("unexpected statuses: %v (errors %d)", res.StatusCounts, res.Errors)
	}
	if res.Latency.Count != 64 {
		t.Fatalf("latency count = %d, want 64", res.Latency.Count)
	}
	if res.Throughput <= 0 || res.P99US < res.P50US {
		t.Fatalf("throughput %v p50 %v p99 %v", res.Throughput, res.P50US, res.P99US)
	}
}

// TestHTTPTarget exercises the network-backed target against a real
// listener.
func TestHTTPTarget(t *testing.T) {
	s, ids := buildServer(t, 32, true)
	srv := httptest.NewServer(s)
	defer srv.Close()
	res := Run(Config{Clients: 8, IDs: ids}, HTTPTarget{Base: srv.URL})
	if !res.OK(200) {
		t.Fatalf("statuses = %v, errors = %d", res.StatusCounts, res.Errors)
	}
}

// TestLoadSmoke is the CI load-smoke gate: a small fixed load against
// a coalesced server.  Any response outside {200, 429}, any transport
// error, or a p99 above a deliberately generous tripwire fails the
// job; it exists to catch gross regressions (deadlocks, lost replies,
// hundred-millisecond stalls), not to benchmark.
func TestLoadSmoke(t *testing.T) {
	s, ids := buildServer(t, 512, true)
	res := Run(Config{Clients: 16, IDs: ids}, HandlerTarget{Handler: s})
	if !res.OK(200, 429) {
		t.Fatalf("statuses = %v, errors = %d; want only 200/429", res.StatusCounts, res.Errors)
	}
	const tripwireUS = 500_000 // 0.5s — orders of magnitude above normal
	if res.P99US > tripwireUS {
		t.Fatalf("p99 = %.0fus, tripwire %dus", res.P99US, tripwireUS)
	}
	t.Logf("load-smoke: %d req, %.0f req/s, p50 %.0fus, p99 %.0fus, statuses %v",
		res.Requests, res.Throughput, res.P50US, res.P99US, res.StatusCounts)
}

// TestCoalescingMergesRequests drives 32 concurrent clients, each
// placing single containers, through the direct per-request path and
// through the coalescing batcher.  Every request must succeed on both,
// and the batcher must merge them: at most one solver batch per four
// requests.  Throughput and latency of both paths are logged, not
// gated — the direct path pays no per-request work the batcher
// amortizes, so coalescing trades latency, not throughput.
func TestCoalescingMergesRequests(t *testing.T) {
	const n = 2048
	const clients = 32

	direct, ids := buildServer(t, n, false)
	resDirect := Run(Config{Clients: clients, IDs: ids}, HandlerTarget{Handler: direct})
	if !resDirect.OK(200) {
		t.Fatalf("direct statuses = %v, errors = %d", resDirect.StatusCounts, resDirect.Errors)
	}

	reg := obs.NewRegistry()
	coalesced, ids := buildServer(t, n, true, server.WithRegistry(reg))
	resCo := Run(Config{Clients: clients, IDs: ids}, HandlerTarget{Handler: coalesced})
	if !resCo.OK(200) {
		t.Fatalf("coalesced statuses = %v, errors = %d", resCo.StatusCounts, resCo.Errors)
	}

	lbl := obs.Labels{"tenant": server.DefaultTenant}
	requests := reg.LabeledCounter("aladdin_tenant_place_requests_total", "", lbl).Value()
	batches := reg.LabeledCounter("aladdin_tenant_place_batches_total", "", lbl).Value()
	t.Logf("direct:    %.0f req/s  p50 %.0fus  p99 %.0fus", resDirect.Throughput, resDirect.P50US, resDirect.P99US)
	t.Logf("coalesced: %.0f req/s  p50 %.0fus  p99 %.0fus  (%d requests in %d solver batches)",
		resCo.Throughput, resCo.P50US, resCo.P99US, requests, batches)
	if requests != n {
		t.Fatalf("requests counter = %d, want %d", requests, n)
	}
	if batches <= 0 || batches*4 > requests {
		t.Errorf("%d requests went into %d solver batches, want at most %d", requests, batches, requests/4)
	}
}
