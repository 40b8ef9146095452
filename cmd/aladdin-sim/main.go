// Command aladdin-sim runs one scheduler over one workload on one
// cluster and reports the paper's metrics: undeployed containers,
// constraint violations, machines used, utilisation range, latency,
// migrations and preemptions.
//
// Usage:
//
//	aladdin-sim -scheduler aladdin -machines 1024 -factor 10
//	aladdin-sim -scheduler firmament-quincy -reschd 8 -trace trace.jsonl -machines 1024
//	aladdin-sim -scheduler medea -weights 1,1,0 -machines 1024 -order CLA
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/firmament"
	"aladdin/internal/gokube"
	"aladdin/internal/medea"
	"aladdin/internal/obs"
	"aladdin/internal/sched"
	"aladdin/internal/sim"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

func main() {
	var (
		schedName = flag.String("scheduler", "aladdin", "aladdin | gokube | medea | firmament-trivial | firmament-quincy | firmament-octopus")
		machines  = flag.Int("machines", 1024, "cluster size (homogeneous 32c/64GB machines)")
		factor    = flag.Int("factor", 10, "synthetic trace scale divisor (ignored with -trace)")
		seed      = flag.Int64("seed", 42, "synthetic trace seed")
		traceFile = flag.String("trace", "", "JSON-lines trace file (overrides -factor)")
		orderName = flag.String("order", "submission", "arrival order: submission | CHP | CLP | CLA | CSA")
		reschd    = flag.Int("reschd", 8, "Firmament reschd(i) parameter")
		weightsCS = flag.String("weights", "1,1,0", "Medea weights a,b,c")
		wbase     = flag.Int64("wbase", 16, "Aladdin priority weight base (16/32/64/128)")
		noIL      = flag.Bool("no-il", false, "disable Aladdin isomorphism limiting")
		noDL      = flag.Bool("no-dl", false, "disable Aladdin depth limiting")
		naive     = flag.Bool("naive-search", false, "use Aladdin's retained naive machine scan instead of the capacity index")
		shards    = flag.Int("shards", 0, "run the sharded Aladdin core with N sub-cluster shards (0 = unsharded; clamped to the sub-cluster count)")
		explain   = flag.Int("explain", 0, "diagnose up to N undeployed containers after the run")
		reps      = flag.Int("reps", 1, "repeat the run N times and report the fastest (placements are deterministic; the minimum strips first-touch page-fault and cold-cache noise from the latency figures)")
		benchOut  = flag.String("bench-out", "", "append a JSON benchmark record to this file")
		benchTag  = flag.String("bench-label", "", "label for the -bench-out record (default scheduler/machines)")
		metOut    = flag.String("metrics-out", "", "write a JSON metrics-registry snapshot to this file after the run")
		ckptOut   = flag.String("checkpoint", "", "session mode: write a v2 session snapshot to this file after placing")
		restoreIn = flag.String("restore", "", "session mode: warm-restart from this v2 snapshot instead of a fresh cluster")
		appsN     = flag.Int("apps", 0, "session mode: place only the first N applications (0 = all)")
		assignOut = flag.String("assign-out", "", "session mode: write the final assignment as JSON to this file")
	)
	flag.Parse()

	// Any checkpoint/restore flag switches to session mode: an
	// incremental per-application-batch run over the Session API, the
	// CLI surface for warm-restart experiments.
	if *ckptOut != "" || *restoreIn != "" || *appsN > 0 || *assignOut != "" {
		if strings.ToLower(*schedName) != "aladdin" {
			fatal(fmt.Errorf("session mode (-checkpoint/-restore/-apps/-assign-out) supports only -scheduler aladdin"))
		}
		if err := runSession(sessionConfig{
			traceFile: *traceFile, seed: *seed, factor: *factor,
			machines: *machines, wbase: *wbase,
			noIL: *noIL, noDL: *noDL, naive: *naive,
			restoreIn: *restoreIn, ckptOut: *ckptOut,
			assignOut: *assignOut, appsN: *appsN, metOut: *metOut,
		}); err != nil {
			fatal(err)
		}
		return
	}

	w, err := loadWorkload(*traceFile, *seed, *factor)
	if err != nil {
		fatal(err)
	}
	order, err := parseOrder(*orderName)
	if err != nil {
		fatal(err)
	}
	// With -metrics-out the run carries a metrics registry: Aladdin's
	// core records its per-phase histograms into it directly; every
	// scheduler additionally gets the scheduler-agnostic batch wrapper.
	var reg *obs.Registry
	if *metOut != "" {
		if *reps > 1 {
			fatal(fmt.Errorf("-metrics-out with -reps %d would accumulate counters across repetitions", *reps))
		}
		reg = obs.NewRegistry()
	}
	s, err := buildScheduler(*schedName, *reschd, *weightsCS, *wbase, *noIL, *noDL, *naive, reg)
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		s = sched.Instrumented(s, reg)
	}

	var m sim.Metrics
	if *shards > 0 {
		// Sharded core: the session API drives placement directly, so
		// only the Aladdin scheduler supports it.
		if strings.ToLower(*schedName) != "aladdin" {
			fatal(fmt.Errorf("-shards supports only -scheduler aladdin"))
		}
		opts := core.DefaultOptions()
		opts.WeightBase = *wbase
		opts.IsomorphismLimiting = !*noIL
		opts.DepthLimiting = !*noDL
		opts.NaiveSearch = *naive
		opts.Shards = *shards
		opts.Metrics = reg
		scfg := sim.ShardedConfig{Opts: opts, Workload: w, Machines: *machines, Order: order}
		if m, err = sim.RunSharded(scfg); err != nil {
			fatal(err)
		}
		for i := 1; i < *reps; i++ {
			mi, err := sim.RunSharded(scfg)
			if err != nil {
				fatal(err)
			}
			if mi.Elapsed < m.Elapsed {
				m = mi
			}
		}
	} else {
		cfg := sim.Config{
			Scheduler: s,
			Workload:  w,
			Machines:  *machines,
			Order:     order,
		}
		if m, err = sim.Run(cfg); err != nil {
			fatal(err)
		}
		// Every repetition runs the identical deterministic schedule on
		// a fresh cluster, so only the timing differs; keep the fastest.
		for i := 1; i < *reps; i++ {
			mi, err := sim.Run(cfg)
			if err != nil {
				fatal(err)
			}
			if mi.Elapsed < m.Elapsed {
				m = mi
			}
		}
	}

	fmt.Printf("scheduler:       %s\n", m.Scheduler)
	fmt.Printf("order:           %s\n", m.Order)
	fmt.Printf("cluster:         %d machines\n", m.Machines)
	fmt.Printf("containers:      %d (deployed %d, undeployed %d = %.1f%%)\n",
		m.Total, m.Deployed, m.Total-m.Deployed, m.UndeployedFraction*100)
	fmt.Printf("violations:      %d within, %d across, %d inversions\n",
		m.ViolationsWithin, m.ViolationsAcross, m.Inversions)
	fmt.Printf("machines used:   %d\n", m.UsedMachines)
	fmt.Printf("utilisation:     %s\n", m.Utilization)
	fmt.Printf("latency:         %v/container (total %v)\n",
		m.Latency.Round(time.Microsecond), m.Elapsed.Round(time.Millisecond))
	if m.WallElapsed > m.Elapsed {
		// Sharded runs report critical-path time as the headline
		// latency; surface the host wall-clock whenever the fan-out
		// had to time-slice (fewer cores than shards).
		fmt.Printf("wall clock:      %v (host ran %s on %d core(s))\n",
			m.WallElapsed.Round(time.Millisecond), m.Scheduler, runtime.GOMAXPROCS(0))
	}
	fmt.Printf("migrations:      %d\n", m.Migrations)
	fmt.Printf("preemptions:     %d\n", m.Preemptions)
	fmt.Printf("summary:         %s\n", summarize(m))

	if *benchOut != "" {
		if err := writeBenchRecord(*benchOut, *benchTag, m); err != nil {
			fatal(err)
		}
	}
	if *metOut != "" {
		if err := writeMetricsSnapshot(*metOut, reg); err != nil {
			fatal(err)
		}
	}

	if *explain > 0 && *shards > 0 {
		// The diagnosis below re-runs the unsharded scheduler, which
		// would explain a different placement than the one reported.
		fatal(fmt.Errorf("-explain is not supported with -shards"))
	}
	if *explain > 0 && m.Deployed < m.Total {
		// Re-run deterministically to obtain the live cluster state,
		// then diagnose stranded containers.
		cluster := topology.New(topology.AlibabaConfig(*machines))
		res, err := s.Schedule(w, cluster, w.Arrange(order))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ndiagnosis of undeployed containers (first %d):\n", *explain)
		for i, id := range res.Undeployed {
			if i >= *explain {
				break
			}
			e, err := core.Explain(w, cluster, res.Assignment, id)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %s\n", e)
		}
	}
}

// summarize condenses a run into the one-line placement-latency
// summary: scheduling throughput and search effort per container.
func summarize(m sim.Metrics) string {
	perSec := 0.0
	if m.Latency > 0 {
		perSec = float64(time.Second) / float64(m.Latency)
	}
	explored := 0.0
	if m.Total > 0 {
		explored = float64(m.WorkUnits) / float64(m.Total)
	}
	return fmt.Sprintf("%.0f containers/sec, %.1f explored/container", perSec, explored)
}

// benchRecord is one JSON line of -bench-out: the per-container
// placement cost plus enough context to interpret it.
type benchRecord struct {
	Label                string  `json:"label"`
	Scheduler            string  `json:"scheduler"`
	Machines             int     `json:"machines"`
	Containers           int     `json:"containers"`
	NsPerContainer       int64   `json:"ns_per_container"`
	ContainersPerSec     float64 `json:"containers_per_sec"`
	ExploredPerContainer float64 `json:"explored_per_container"`
	// WallNs is the host wall-clock for the whole run when it differs
	// from the critical-path total (sharded runs on hosts with fewer
	// cores than shards); omitted otherwise.
	WallNs int64 `json:"wall_ns,omitempty"`
}

func writeBenchRecord(path, label string, m sim.Metrics) error {
	if label == "" {
		label = fmt.Sprintf("%s/%d", m.Scheduler, m.Machines)
	}
	perSec := 0.0
	if m.Latency > 0 {
		perSec = float64(time.Second) / float64(m.Latency)
	}
	explored := 0.0
	if m.Total > 0 {
		explored = float64(m.WorkUnits) / float64(m.Total)
	}
	rec := benchRecord{
		Label:                label,
		Scheduler:            m.Scheduler,
		Machines:             m.Machines,
		Containers:           m.Total,
		NsPerContainer:       m.Latency.Nanoseconds(),
		ContainersPerSec:     perSec,
		ExploredPerContainer: explored,
	}
	if m.WallElapsed > m.Elapsed {
		rec.WallNs = m.WallElapsed.Nanoseconds()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// writeMetricsSnapshot dumps the registry as indented JSON — the same
// shape /debug/vars serves on the live server.
func writeMetricsSnapshot(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WriteJSON(f)
}

func loadWorkload(path string, seed int64, factor int) (*workload.Workload, error) {
	if path == "" {
		return trace.Generate(trace.Scaled(seed, factor))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func parseOrder(name string) (workload.ArrivalOrder, error) {
	switch strings.ToUpper(name) {
	case "SUBMISSION":
		return workload.OrderSubmission, nil
	case "CHP":
		return workload.OrderCHP, nil
	case "CLP":
		return workload.OrderCLP, nil
	case "CLA":
		return workload.OrderCLA, nil
	case "CSA":
		return workload.OrderCSA, nil
	default:
		return 0, fmt.Errorf("unknown order %q", name)
	}
}

func buildScheduler(name string, reschd int, weightsCSV string, wbase int64, noIL, noDL, naive bool, reg *obs.Registry) (sched.Scheduler, error) {
	switch strings.ToLower(name) {
	case "aladdin":
		opts := core.DefaultOptions()
		opts.WeightBase = wbase
		opts.IsomorphismLimiting = !noIL
		opts.DepthLimiting = !noDL
		opts.NaiveSearch = naive
		opts.Metrics = reg // nil when -metrics-out is unset
		return core.New(opts), nil
	case "gokube":
		return gokube.NewDefault(), nil
	case "medea":
		ws, err := parseWeights(weightsCSV)
		if err != nil {
			return nil, err
		}
		return medea.New(medea.Options{Weights: ws}), nil
	case "firmament-trivial":
		return firmament.New(firmament.Options{Model: firmament.Trivial, Reschd: reschd}), nil
	case "firmament-quincy":
		return firmament.New(firmament.Options{Model: firmament.Quincy, Reschd: reschd}), nil
	case "firmament-octopus":
		return firmament.New(firmament.Options{Model: firmament.Octopus, Reschd: reschd}), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

func parseWeights(csv string) (medea.Weights, error) {
	parts := strings.Split(csv, ",")
	if len(parts) != 3 {
		return medea.Weights{}, fmt.Errorf("weights must be a,b,c, got %q", csv)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return medea.Weights{}, fmt.Errorf("weights: %w", err)
		}
		vals[i] = v
	}
	w := medea.Weights{A: vals[0], B: vals[1], C: vals[2]}
	if err := w.Validate(); err != nil {
		return medea.Weights{}, err
	}
	return w, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aladdin-sim:", err)
	os.Exit(1)
}
