package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// provenance says where a result came from. The checkout a benchmark
// runs in need not be a git repository, so besides the commit (when
// there is one) it carries a digest of the program's sources.
type provenance struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	// HostLimited names the metrics that need more cores than the host
	// has to mean anything: worker-team and multi-worker engine times
	// on a host with few CPUs measure contention, not scaling.
	HostLimited []string `json:"host_limited,omitempty"`
}

// hostLimitedMetrics need at least this many CPUs to be read as scaling
// results.
const scalingCPUs = 4

var hostLimitedMetrics = []string{"par.team_round_us", "core.run_ms.chunked", "core.run_ms.sharded"}

func collectProvenance() provenance {
	p := provenance{
		Commit:     gitCommit(),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
	}
	if p.NumCPU < scalingCPUs {
		p.HostLimited = hostLimitedMetrics
	}
	return p
}

// gitCommit reports HEAD when the working directory is the top of a git
// checkout, else "none".
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the program's Go sources and module file under
// root, leaving out the benchmark's own directory and build outputs, in
// path order.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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

// cacheSize reads CPU 0's unified or data cache size at level from
// sysfs, as the kernel prints it (e.g. "2048K").
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// procStatusKB reads one "Key:   value kB" field of /proc/<pid>/status in
// kilobytes.
func procStatusKB(pid, key string) (float64, bool) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			return 0, false
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		return kb, err == nil
	}
	return 0, false
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB(pid string) float64 {
	kb, _ := procStatusKB(pid, "VmHWM")
	return kb / 1024
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux platform Go supports without cgo to ask.
const clockTicks = 100

// procCPUSeconds is a process's user plus system CPU time in seconds.
func procCPUSeconds(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}
