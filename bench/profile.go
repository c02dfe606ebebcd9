package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

const (
	modulePath = "github.com/minatoloader/minato"

	ownerSched = "goruntime_sched"
	ownerGC    = "goruntime_gc"
	ownerOther = "other"
)

// profileShares is a CPU profile reduced to owners: the share of samples
// (in percent) charged to each layer, to the Go runtime, or to "other".
type profileShares struct {
	Samples int64
	Share   map[string]float64
}

// cpuProfile runs fn under the CPU profiler, writing the profile to path,
// and returns the owner shares.
func cpuProfile(path string, fn func()) (profileShares, error) {
	f, err := os.Create(path)
	if err != nil {
		return profileShares{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return profileShares{}, fmt.Errorf("start CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return profileShares{}, err
	}
	// Go CPU profiles carry their own symbols, so pprof needs no binary.
	// sample_index=samples prints plain counts instead of formatted times.
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return profileShares{}, err
	}
	if err := cmd.Start(); err != nil {
		return profileShares{}, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, perr := attributeTraces(out)
	if err := cmd.Wait(); err != nil {
		return profileShares{}, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return shares, perr
}

// attributeTraces reads `go tool pprof -traces` text. Each sample is a
// block between dashed rulers: a first line "<count>   <leaf function>"
// followed by one caller per line up to the goroutine's root. A sample is
// charged to the owner of the first repo frame walking leaf to root, so
// stdlib callees (container/heap, sync, memmove, mallocgc) count for the
// layer that called them; a sample with no repo frame is the Go runtime's.
func attributeTraces(r io.Reader) (profileShares, error) {
	counts := map[string]int64{}
	var total int64
	var (
		inSample bool
		weight   int64
		owner    string
		gc       bool
	)
	flush := func() {
		if !inSample {
			return
		}
		if owner == "" {
			owner = ownerSched
			if gc {
				owner = ownerGC
			}
		}
		counts[owner] += weight
		total += weight
		inSample = false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started {
			continue // header: File/Type/Time/Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if !inSample {
			if strings.HasSuffix(fields[0], ":") {
				continue // a label line ("key:  value") ahead of the stack
			}
			if len(fields) < 2 {
				return profileShares{}, fmt.Errorf("pprof -traces: malformed sample line %q", line)
			}
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return profileShares{}, fmt.Errorf("pprof -traces: sample count in %q: %w", line, err)
			}
			inSample, weight, owner, gc = true, n, "", false
			fn = fields[1]
		}
		if owner == "" {
			owner = frameOwner(fn)
			gc = gc || gcFrame(fn)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return profileShares{}, err
	}
	shares := profileShares{Samples: total, Share: map[string]float64{}}
	for o, n := range counts {
		shares.Share[o] = 100 * float64(n) / float64(total)
	}
	return shares, nil
}

// frameOwner maps one function name to the layer that owns it, or "" for a
// frame outside the repository. internal/loader/{pytorch,dali,pecan} are
// the baseline loaders and belong to "loaders"; the rest of internal/loader
// (spec, governor) is "loader". The benchmark's own frames and repo
// packages without a per-layer row are "other".
func frameOwner(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return ownerOther
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return ""
	}
	if strings.HasPrefix(rest, ".") {
		return "minato"
	}
	rest, ok = strings.CutPrefix(rest, "/internal/")
	if !ok {
		return ownerOther // cmd/, examples/, bench/ as an imported path
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	if pkg == "loader" && strings.HasPrefix(rest, "loader/") {
		pkg = "loaders"
	}
	for _, l := range cpuShareLayers {
		if l == pkg {
			return pkg
		}
	}
	return ownerOther
}

// gcFrame reports whether a runtime frame belongs to the garbage collector
// (background mark and sweep workers, the scavenger, mark assists).
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject",
		"runtime.markroot", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.greyobject", "runtime.(*gcWork)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
