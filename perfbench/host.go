package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// hostInfo records what the numbers were measured on.
func hostInfo() map[string]string {
	return map[string]string{
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuTicks reads the host's CPU time counters from the first line of
// /proc/stat: the ticks the hypervisor stole from this machine's CPUs,
// and the ticks of all states (user through steal; the guest columns
// are already counted in user and nice).
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// provenance records which code and which inputs produced the numbers.
// The commit comes from the version-control stamp Go embeds when the
// binary is built inside a git checkout; source_sha256 digests the Go
// sources themselves, so it identifies the code in a plain export too.
func provenance(cfg runConfig, sp spec) map[string]string {
	p := map[string]string{
		"workload":      sp.Name,
		"seed":          strconv.FormatInt(cfg.Seed, 10),
		"trace_seed":    strconv.FormatInt(cfg.TraceSeed, 10),
		"held_out_seed": strconv.Itoa(heldOutSeed),
		"seconds":       strconv.FormatFloat(cfg.Duration.Seconds(), 'g', -1, 64),
		"traced":        strconv.FormatBool(cfg.Traced),
		"commit":        "unknown",
		"source_sha256": sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

// sourceDigest hashes every go.mod and .go file under root, in path
// order, skipping dot directories (build and output caches).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
