package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// shareLayers are the simulator packages that get a cpu_share of their own;
// every other non-runtime function (standard library, this benchmark) lands
// in other.cpu_share.
var shareLayers = []string{
	"sim", "fabric", "buffer", "transport", "host", "flowtab", "cuckoo", "packet",
	"arena", "metrics", "obs", "telemetry", "workload", "topo", "xrand",
}

// pprofTop returns `go tool pprof -top` for a CPU profile with no node
// hidden: the fold needs every leaf, however small.
func pprofTop(profile string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("go tool pprof: %w: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// foldProfile sums the flat column of a pprof -top listing by the leaf
// function's package and returns each bucket's share of the total; the
// shares sum to 1.
func foldProfile(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseProfDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		// Five numeric columns, the function, and "(inline)" on some.
		flat[profBucket(f[5])] += v
		total += v
	}
	shares := map[string]float64{
		"runtime.gc_cpu_share": 0, "runtime.malloc_cpu_share": 0, "runtime.other_cpu_share": 0, "other.cpu_share": 0,
	}
	for _, l := range shareLayers {
		shares[l+".cpu_share"] = 0
	}
	if total > 0 { // a run shorter than the 10 ms sampling period has no samples to share out
		for bucket, v := range flat {
			shares[bucket] = v / total
		}
	}
	return shares, nil
}

// parseProfDuration reads pprof's flat column ("0", "10ms", "1.23s",
// "2.5mins") as seconds.
func parseProfDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// Runtime leaves are split three ways by the start of their name after
// "runtime.". The lists are a heuristic kept short on purpose: they cover the
// collector's and the allocator's hot leaves as go1.22 to go1.24 name them,
// and anything they miss lands in runtime.other (scheduler, memmove, write
// barriers, maps, timers).
var (
	gcLeaves = []string{"gc", "(*gc", "scan", "mark", "sweep", "(*sweep", "bgsweep", "bgscavenge", "grey",
		"findObject", "spanOf", "wbBuf", "typePointers", "(*mspan).typePointers", "getGCMask", "(*lfstack)"}
	mallocLeaves = []string{"malloc", "newobject", "newarray", "growslice", "makeslice", "nextFree",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "(*mspan).init", "(*pageAlloc)", "(*sysMemStat)",
		"heapSetType", "memclrNoHeapPointers"}
)

// profBucket names the metric a leaf function's flat time is counted under.
func profBucket(fn string) string {
	const internal = "vertigo/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return l + ".cpu_share"
			}
		}
		return "other.cpu_share"
	}
	if strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime.other_cpu_share"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, p := range gcLeaves {
			if strings.HasPrefix(rest, p) {
				return "runtime.gc_cpu_share"
			}
		}
		for _, p := range mallocLeaves {
			if strings.HasPrefix(rest, p) {
				return "runtime.malloc_cpu_share"
			}
		}
		return "runtime.other_cpu_share"
	}
	return "other.cpu_share"
}
