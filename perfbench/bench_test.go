package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// tiny shrinks a workload to test size while keeping its kind, its
// shard count and roughly its containers-per-machine ratio.
func tiny(sp spec) spec {
	switch sp.Name {
	case "pack-10k":
		sp.Factor, sp.Machines = 100, 100
	case "pack-tight":
		sp.Factor, sp.Machines = 100, 55
	case "pack-10k-s2":
		// Two shards need two sub-clusters of 1,000 machines.
		sp.Factor, sp.Machines = 50, 2000
	case "serve-churn":
		sp.Factor, sp.Machines, sp.LiveApps, sp.Rounds = 50, 100, 20, 2
	}
	return sp
}

func tinyRun(t *testing.T, sp spec, traced bool, d time.Duration) *report {
	t.Helper()
	rep, err := execute(tiny(sp), runConfig{Seed: 3, TraceSeed: defaultTraceSeed, Duration: d, Traced: traced})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct {
		t.Fatalf("%s: gate failed: %s", sp.Name, rep.GateError)
	}
	return rep
}

// Every named metric is printed with its unit, in the report and in the
// JSON line, for every workload and both trace modes; no end-to-end
// metric reads 0.
func TestEveryMetricPrinted(t *testing.T) {
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", sp.Name, traced), func(t *testing.T) {
				rep := tinyRun(t, sp, traced, 300*time.Millisecond)
				var out bytes.Buffer
				rep.print(&out)
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Result.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Result.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Result.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !strings.Contains(out.String(), "metric "+d.Name+": ") {
						t.Errorf("report does not print %s", d.Name)
					}
					if !traced && (m.Value <= 0 || math.IsNaN(m.Value)) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
					// Every route of the request mix is exercised.
					if sp.Kind == kindServe && strings.HasPrefix(d.Name, "server.") && m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", d.Name, m.Value)
					}
				}
				if rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
					t.Errorf("attempted %d failed %d", rep.Result.Attempted, rep.Result.Failed)
				}
			})
		}
	}
}

// BENCHMARK.json names the same workloads and metrics, with the same
// units, as the code.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the code", i, w.Name, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the code", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].Name || m.Unit != c.code[i].Unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the code", i, m.Name, m.Unit, c.code[i].Name, c.code[i].Unit)
			}
		}
	}
}

// tinyPack schedules the tiny pack-10k input once and returns what the
// gates look at.
func tinyPack(t *testing.T) (packInput, *core.Session, *topology.Cluster, *passOut) {
	t.Helper()
	sp := tiny(workloads[0])
	w, err := loadTrace(sp, defaultTraceSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := packInput{sp: sp, w: w, arrivals: w.Arrange(workload.OrderSubmission), byID: map[string]*workload.Container{}}
	for _, c := range in.arrivals {
		in.byID[c.ID] = c
	}
	cl := topology.New(topology.AlibabaConfig(sp.Machines))
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	return in, sess, cl, &passOut{}
}

// The pack gates pass an honest result and reject doctored ones.
func TestPackGateRejectsDoctoredResult(t *testing.T) {
	in, sess, cl, p := tinyPack(t)
	res, err := scheduleWindow(in, sess, nil, 0, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(in, res, cl); err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	if err := checkSession(sess); err != nil {
		t.Fatalf("honest session rejected: %v", err)
	}
	var id string
	var m topology.MachineID
	for id, m = range res.Assignment {
		break
	}

	// A container assigned to a machine that does not host it.
	res.Assignment[id] = (m + 1) % topology.MachineID(cl.Size())
	if err := checkResult(in, res, cl); err == nil || !strings.Contains(err.Error(), "not hosted") {
		t.Errorf("misplaced container: got %v", err)
	}
	res.Assignment[id] = m

	// A container both deployed and listed undeployed.
	res.Undeployed = append(res.Undeployed, id)
	if err := checkResult(in, res, cl); err == nil {
		t.Error("container both deployed and undeployed passed")
	}
	res.Undeployed = res.Undeployed[:len(res.Undeployed)-1]

	// A container dropped from both lists.
	delete(res.Assignment, id)
	if err := checkResult(in, res, cl); err == nil {
		t.Error("dropped container passed")
	}
}

// A placement digest differs when one container moves, and ignores
// container names.
func TestDigest(t *testing.T) {
	in, sess, _, p := tinyPack(t)
	res, err := scheduleWindow(in, sess, nil, 0, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	d := digest(in.w, res.Assignment)
	id := in.arrivals[0].ID
	res.Assignment[id]++
	if digest(in.w, res.Assignment) == d {
		t.Error("digest ignored a moved container")
	}
}

// Renaming applications keeps every container's shape and position.
func TestRelabelKeepsShape(t *testing.T) {
	sp := tiny(workloads[0])
	a, err := loadTrace(sp, defaultTraceSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadTrace(sp, defaultTraceSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumContainers() != b.NumContainers() {
		t.Fatalf("%d vs %d containers", a.NumContainers(), b.NumContainers())
	}
	renamed := 0
	for i, ca := range a.Containers() {
		cb := b.Containers()[i]
		if ca.Demand != cb.Demand || ca.Priority != cb.Priority || ca.Index != cb.Index {
			t.Fatalf("container %d differs: %+v vs %+v", i, ca, cb)
		}
		if ca.ID != cb.ID {
			renamed++
		}
	}
	if renamed == 0 {
		t.Error("seeds 1 and 2 gave the same names")
	}
	for i, aa := range a.Apps() {
		ab := b.Apps()[i]
		if aa.AntiAffinitySelf != ab.AntiAffinitySelf || len(aa.AntiAffinityApps) != len(ab.AntiAffinityApps) ||
			a.ConflictDegree(aa.ID) != b.ConflictDegree(ab.ID) {
			t.Fatalf("app %d constraints differ", i)
		}
	}
}

// newTinyServe builds a tiny serve-churn server with warmed-up clients.
func newTinyServe(t *testing.T) []*client {
	t.Helper()
	sp := tiny(workloads[3])
	w, err := loadTrace(sp, defaultTraceSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := buildServer(sp, w, false)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*client{newClient(f.srv, "", w, sp, 1, 0), newClient(f.srv, "/t/"+secondTenant, w, sp, 1, 1)}
	for _, c := range cs {
		c.clockScale = 1
		c.warmUp()
		for i := 0; i < 3*mtbfArrivals; i++ {
			c.step()
		}
	}
	return cs
}

// The serve gate passes the honest ledger and rejects one that lost or
// invented a placed container.
func TestServeGateRejectsLedgerMismatch(t *testing.T) {
	cs := newTinyServe(t)
	if err := cs[0].finalCheck(); err != nil {
		t.Fatalf("honest ledger rejected: %v", err)
	}
	var ord int
	for ord = range cs[1].state {
		if cs[1].state[ord] == placed {
			break
		}
	}
	cs[1].set(ord, absent)
	if err := cs[1].finalCheck(); err == nil {
		t.Error("ledger missing a placed container passed")
	}

	cs = newTinyServe(t)
	for ord = range cs[0].state {
		if cs[0].state[ord] == absent {
			break
		}
	}
	cs[0].set(ord, placed)
	if err := cs[0].finalCheck(); err == nil {
		t.Error("ledger with an extra container passed")
	}
}

// The read after a rebalance or a preempting recovery follows the
// server within what the response allows, and rejects anything more.
func TestServeResync(t *testing.T) {
	pick := func(c *client, st uint8) int {
		for ord := range c.state {
			if c.state[ord] == st {
				return ord
			}
		}
		t.Fatal("no container in the wanted state")
		return 0
	}
	fresh := func() *client {
		c := newTinyServe(t)[0]
		if c.err != nil {
			t.Fatal(c.err)
		}
		return c
	}

	c := fresh()
	c.resync("honest", 0, 0)
	if c.err != nil {
		t.Fatalf("honest ledger rejected: %v", c.err)
	}

	// A placed container the ledger holds stranded came back: allowed
	// only when the response counts it.
	c = fresh()
	ord := pick(c, placed)
	c.set(ord, stranded)
	c.resync("uncounted", 0, 0)
	if c.err == nil {
		t.Error("an uncounted re-placement passed")
	}
	c = fresh()
	ord = pick(c, placed)
	c.set(ord, stranded)
	c.resync("counted", 1, 0)
	if c.err != nil || c.state[ord] != placed {
		t.Errorf("a counted re-placement: err %v, state %d", c.err, c.state[ord])
	}

	// A container the ledger holds placed is gone: allowed only within
	// the response's preemptions, and it is then stranded.
	c = fresh()
	ord = pick(c, absent)
	c.set(ord, placed)
	c.resync("unpreempted", 0, 0)
	if c.err == nil {
		t.Error("a loss with no preemptions passed")
	}
	c = fresh()
	ord = pick(c, absent)
	c.set(ord, placed)
	c.resync("preempted", 0, 1)
	if c.err != nil || c.state[ord] != stranded {
		t.Errorf("a loss within the preemptions: err %v, state %d", c.err, c.state[ord])
	}

	// The server holds a container the client removed or never placed.
	c = fresh()
	ord = pick(c, placed)
	c.set(ord, absent)
	c.resync("extra", 1, 1)
	if c.err == nil {
		t.Error("a container the client never placed passed")
	}
}

// A status outside a route's success set fails the run.
func TestServeGateRejectsBadStatus(t *testing.T) {
	cs := newTinyServe(t)
	c := cs[0]
	c.removeQ = []string{"no-such-container"}
	c.remove()
	if c.failed != 1 || c.finalCheck() == nil {
		t.Errorf("a 409 from /remove passed: failed=%d", c.failed)
	}
}

// Self time subtracts exactly the children's time.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "window", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.place", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "core.retry", Start: 60, End: 90},
		{ID: 4, Parent: 3, Name: "core.place", Start: 70, End: 80},
		{ID: 1, Track: 1, Name: "window", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"window": 20 + 7, "core.place": 60, "core.retry": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
	if n := len(subtree(spans, 0, 3)); n != 2 {
		t.Errorf("subtree of span 3 has %d spans, want 2", n)
	}
}

// On pack-10k the traced per-layer self times inside the schedule
// window add up to the untraced window within the bound BENCHMARK.json
// gives schedule_ns_per_container.
func TestTracedSelfTimesCloseWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("timing comparison: the race detector slows traced passes more than untraced ones")
	}
	bound := benchmarkBound(t, "schedule_ns_per_container")
	// Larger than tiny, so the window is long enough to time steadily.
	sp := workloads[0]
	sp.Factor, sp.Machines = 20, 1000
	rep, err := execute(sp, runConfig{Seed: 3, TraceSeed: defaultTraceSeed, Duration: 3 * time.Second, Traced: true})
	if err != nil || !rep.Result.Correct {
		t.Fatalf("run failed: %v %+v", err, rep)
	}
	closure := rep.Result.Metrics["trace.closure_frac"].Value
	t.Logf("closure %.3f, tracing overhead %.3g s per pass", closure, rep.Result.Metrics["trace.overhead_s"].Value)
	if math.Abs(closure-1) > bound {
		t.Errorf("traced self times sum to %.3f of the untraced window, want within %.2f of 1", closure, bound)
	}
}

func benchmarkBound(t *testing.T, name string) float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("no bound for %s", name)
	return 0
}
