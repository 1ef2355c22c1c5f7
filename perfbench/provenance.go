package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// provenance is what makes a result reproducible and comparable.
type provenance struct {
	Nproc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	BootesWorkers string   `json:"bootes_workers"`
	GoVersion     string   `json:"go_version"`
	Commit        string   `json:"commit"`
	SourceSHA256  string   `json:"source_sha256"`
	CPUModel      string   `json:"cpu_model"`
	Command       []string `json:"command"`
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Seconds       float64  `json:"seconds"`
	Trace         bool     `json:"trace"`
	Scale         float64  `json:"scale"`
}

func collectProvenance(cfg config, args []string) provenance {
	workers, ok := os.LookupEnv("BOOTES_WORKERS")
	if !ok {
		workers = "unset"
	}
	return provenance{
		Nproc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		BootesWorkers: workers,
		GoVersion:     runtime.Version(),
		Commit:        vcsCommit(),
		SourceSHA256:  sourceDigest("."),
		CPUModel:      cpuModel(),
		Command:       append([]string{os.Args[0]}, args...),
		Workload:      cfg.workload,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Trace:         cfg.trace,
		Scale:         cfg.scale,
	}
}

// vcsCommit is the revision the toolchain stamped into the binary, when it
// was built inside a git checkout; sourceDigest identifies the code either way.
func vcsCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (skipping
// hidden directories such as build outputs), so two results can be matched
// to the same code even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the processor name the kernel reports.
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

// peakRSSMB is the process's high-water resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// binaryID identifies the running executable, so stored plan digests are
// only ever compared between runs of the same build.
func binaryID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestStore checks exact-tier plan digests across runs of one build: the
// first run of a (workload, seed, scale) records them, later runs (timed or
// traced) must reproduce them.
type digestStore struct {
	path  string
	known map[string]string
	seen  map[string]string
}

func openDigestStore(cfg config) *digestStore {
	path := filepath.Join(cfg.out, "digests", binaryID(),
		fmt.Sprintf("%s-seed%d-scale%g.json", cfg.workload, cfg.seed, cfg.scale))
	s := &digestStore{path: path, known: map[string]string{}, seen: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(b, &s.known) // an unreadable record is rewritten below
	}
	return s
}

// check records digest d for input name and reports whether it agrees with
// every earlier digest of that input, in this run and in stored runs.
func (s *digestStore) check(name, d string) bool {
	if prev, ok := s.seen[name]; ok && prev != d {
		return false
	}
	s.seen[name] = d
	if prev, ok := s.known[name]; ok && prev != d {
		return false
	}
	return true
}

// save merges this run's digests into the stored record.
func (s *digestStore) save() error {
	for k, v := range s.seen {
		if _, ok := s.known[k]; !ok {
			s.known[k] = v
		}
	}
	b, err := json.Marshal(s.known)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}
