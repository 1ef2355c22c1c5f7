// Package faultinject is a deterministic, build-tag-free fault-injection
// registry used by the robustness tests to drive the planning pipeline's
// degradation ladder without pathological inputs.
//
// Production code marks its interesting failure sites with Fire(point); a
// disarmed registry answers false through a single atomic load, so the
// trigger points cost nothing in normal operation. Tests Arm a point —
// optionally after a number of hits, for a bounded number of firings, or
// with a callback (e.g. cancelling a context mid-sweep) — run the scenario,
// and Reset. Hit counting is per-point and strictly ordered under a mutex,
// so a single-threaded trigger sequence fires deterministically.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The trigger points compiled into the pipeline. Using constants keeps
// production sites and tests from drifting apart on the spelling.
const (
	// EigenNoConverge makes eigen.LargestContext fail with ErrNoConverge.
	EigenNoConverge = "eigen/no-converge"
	// AllocCapBreach makes the planner's pre-allocation footprint check
	// report a memory-budget breach.
	AllocCapBreach = "core/alloc-cap-breach"
	// WorkerStall makes a parallel worker block on its context instead of
	// executing a claimed chunk (only in context-aware calls).
	WorkerStall = "parallel/worker-stall"
	// SweepCancel fires at the start of each per-k sweep step; arm it with
	// OnFire(cancel) to cancel a spectral sweep mid-flight.
	SweepCancel = "core/sweep-cancel"
	// AutoKNoConverge makes the eigengap auto-k spectrum solve fail with
	// ErrNoConverge, driving the degradation path from the auto-k rung down
	// to the fixed-k ladder.
	AutoKNoConverge = "eigen/autok-no-converge"

	// CacheWriteTemp simulates a crash after the cache entry's temp file has
	// been created but before (or during) the payload write: atomicio aborts
	// mid-write, leaving a partial temp file on disk.
	CacheWriteTemp = "plancache/crash-temp-write"
	// CacheWriteFsync simulates a crash after the payload is fully written
	// but before the temp file is fsynced: the write returns an error with
	// the (unsynced) temp file left behind.
	CacheWriteFsync = "plancache/crash-fsync"
	// CacheWriteRename simulates a crash after fsync but before the atomic
	// rename publishes the entry: the durable temp file is left unrenamed.
	CacheWriteRename = "plancache/crash-rename"
	// BreakerProbeFail makes a planserve circuit-breaker half-open probe be
	// recorded as a failure regardless of the pipeline's actual outcome,
	// driving the deterministic half-open → re-open transition.
	BreakerProbeFail = "planserve/probe-fail"

	// PlanCorrupt makes the plan verifier (internal/planverify) check a
	// deliberately corrupted copy of the permutation instead of the real one:
	// the verification sites — PlanContext, plancache.Put, planserve — must
	// all catch the corruption and refuse to return, cache, or serve it.
	PlanCorrupt = "planverify/corrupt-plan"

	// LSHSparsifyFail makes the approximate similarity sparsifier
	// (lsh.SparsifiedSimilarity) fail, driving the degradation ladder past
	// the approximate rung: to the implicit-similarity rung on an approx
	// request, to the retry rung on an exact one.
	LSHSparsifyFail = "lsh/sparsify-fail"

	// JournalAppendWrite simulates a crash mid-append in the planqueue
	// journal: a torn partial record is written to the file and the append
	// fails. Recovery must truncate the torn tail, never replay it.
	JournalAppendWrite = "planqueue/crash-append-write"
	// JournalAppendFsync simulates a crash after a journal record's bytes are
	// written but before fsync: the append fails, the record may or may not
	// survive, and either outcome must be safe to replay.
	JournalAppendFsync = "planqueue/crash-append-fsync"
)

// points enumerates every trigger point declared above, in declaration
// order. TestPointsCoversEveryConstant parses this file and fails if a new
// constant is added without extending this list, so Points() is a reliable
// discovery surface for the chaos scheduler.
var points = []string{
	EigenNoConverge,
	AllocCapBreach,
	WorkerStall,
	SweepCancel,
	AutoKNoConverge,
	CacheWriteTemp,
	CacheWriteFsync,
	CacheWriteRename,
	BreakerProbeFail,
	PlanCorrupt,
	LSHSparsifyFail,
	JournalAppendWrite,
	JournalAppendFsync,
}

// Points returns every declared injection point. The slice is a copy; the
// chaos scheduler uses it to exercise all fault paths without a
// hand-maintained list of its own.
func Points() []string { return append([]string(nil), points...) }

type fault struct {
	fireAt    int // 1-based hit ordinal at which firing starts
	remaining int // firings left; < 0 means unlimited
	hits      int
	fired     int
	onFire    func()
}

var (
	armedCount atomic.Int64 // fast-path gate: 0 means nothing armed
	mu         sync.Mutex
	table      map[string]*fault
)

// Option configures an armed fault.
type Option func(*fault)

// After delays firing until n hits have passed (fire starts on hit n+1).
func After(n int) Option { return func(f *fault) { f.fireAt = n + 1 } }

// Times bounds how many hits fire (default 1).
func Times(n int) Option { return func(f *fault) { f.remaining = n } }

// Always fires on every hit once reached.
func Always() Option { return func(f *fault) { f.remaining = -1 } }

// OnFire runs fn (outside the registry lock) each time the fault fires.
func OnFire(fn func()) Option { return func(f *fault) { f.onFire = fn } }

// Arm registers point so subsequent Fire(point) calls trigger. Arming a
// point that is already armed is an error and leaves the existing
// configuration (and its counters) untouched: a scheduler that composes
// fault scenarios must Disarm or Reset first, never silently clobber a
// scenario half set up.
func Arm(point string, opts ...Option) error {
	f := &fault{fireAt: 1, remaining: 1}
	for _, o := range opts {
		o(f)
	}
	mu.Lock()
	defer mu.Unlock()
	if table == nil {
		table = make(map[string]*fault)
	}
	if _, exists := table[point]; exists {
		return fmt.Errorf("faultinject: point %q already armed (Disarm or Reset first)", point)
	}
	armedCount.Add(1)
	table[point] = f
	return nil
}

// Disarm removes one point; counters for other points are untouched.
func Disarm(point string) {
	mu.Lock()
	if _, exists := table[point]; exists {
		delete(table, point)
		armedCount.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point. Tests must call it (usually via t.Cleanup).
func Reset() {
	mu.Lock()
	table = nil
	armedCount.Store(0)
	mu.Unlock()
}

// Fire reports whether the named fault triggers on this hit. Disarmed
// registries answer in one atomic load.
func Fire(point string) bool {
	if armedCount.Load() == 0 {
		return false
	}
	mu.Lock()
	f := table[point]
	if f == nil {
		mu.Unlock()
		return false
	}
	f.hits++
	fire := f.hits >= f.fireAt && (f.remaining < 0 || f.fired < f.remaining)
	var cb func()
	if fire {
		f.fired++
		cb = f.onFire
	}
	mu.Unlock()
	if cb != nil {
		cb()
	}
	return fire
}

// Hits returns how many times point has been evaluated since it was armed.
func Hits(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if f := table[point]; f != nil {
		return f.hits
	}
	return 0
}

// Fired returns how many times point has actually fired.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if f := table[point]; f != nil {
		return f.fired
	}
	return 0
}
