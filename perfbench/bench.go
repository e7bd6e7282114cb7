package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/skysim"
	"repro/internal/votable"
	"repro/internal/wcs"
	"repro/internal/webservice"
	"repro/internal/workpool"
)

// Workload names.
const (
	campaignCold    = "campaign-cold"
	campaignRerun   = "campaign-rerun"
	surveyJournaled = "survey-journaled"
)

var workloads = []string{campaignCold, campaignRerun, surveyJournaled}

// setupReps is how many times a run builds its set-up; setup_s is the median.
const setupReps = 3

// defaultSeed reproduces skysim.StandardClusters() exactly.
const defaultSeed = 1

// campaignSpecs is the paper's §5 campaign: eight clusters of 37–561
// galaxies. The workload seed shifts every cluster's generator seed, so the
// default seed is skysim.StandardClusters() and other seeds draw other skies
// of the same sizes.
func campaignSpecs(seed int64) []skysim.Spec {
	specs := skysim.StandardClusters()
	for i := range specs {
		specs[i].Seed += 1000 * (seed - defaultSeed)
	}
	return specs
}

// surveySpecs is one 1,000-galaxy survey field, the size ROADMAP's wave
// makespan target is stated at; ten waves of 100 galaxies each.
func surveySpecs(seed int64) []skysim.Spec {
	return []skysim.Spec{{
		Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04,
		NumGalaxies: 1000, Seed: 77 + 1000*(seed-defaultSeed),
	}}
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	workers  int
	tmp      string // scratch directory for journals
	specs    []skysim.Spec
	pins     map[string]string // pinned output digests (default seed only)

	fix      *fixtureStore
	clusters []*skysim.Cluster
	rec      *recorder // nil: untraced
	ref      map[string]string
	nextReq  int

	attempted, failed int
}

func newBench(workload string, seed int64, workers int, tmp string, pins map[string]string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, workers: workers, tmp: tmp, ref: map[string]string{}}
	switch workload {
	case campaignCold, campaignRerun:
		b.specs = campaignSpecs(seed)
	case surveyJournaled:
		b.specs = surveySpecs(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seed == defaultSeed {
		b.pins = pins
	}
	return b, nil
}

// env is one testbed with the benchmark's transport installed.
type env struct {
	tb         *core.Testbed
	tr         *transport
	journalDir string
}

// newEnv builds a fresh testbed: cold RLS, GridFTP cache and vdcache.
func (b *bench) newEnv() (*env, error) {
	cfg := core.Config{ClusterSpecs: b.specs, Seed: b.seed, Workers: b.workers}
	e := &env{}
	if b.workload == surveyJournaled {
		dir, err := os.MkdirTemp(b.tmp, "journal-")
		if err != nil {
			return nil, err
		}
		cfg.WaveSize, cfg.PageSize, cfg.JournalDir = 100, 200, dir
		e.journalDir = dir
	}
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.tb = tb
	e.tr = &transport{next: tb.Client.Transport, fix: b.fix, rec: b.rec}
	tb.Client.Transport = e.tr
	return e, nil
}

func (e *env) close() {
	if e.journalDir != "" {
		_ = os.RemoveAll(e.journalDir) // scratch space; a leftover is harmless
	}
}

// passStats is what one pass over the workload's clusters measured.
type passStats struct {
	wall      time.Duration
	galaxies  int
	latencies []float64 // seconds per Analyze call
	runs      []webservice.RunStats
	peakLive  uint64
	cpu       time.Duration
	alloc     uint64
	gcs       uint32
	gcPause   time.Duration
	rlsTrips  int64
	repHits   int64
	repMisses int64
	spans     []span
	exchanges []exchange
	journal   journalStats
}

// pass analyzes every cluster once through the portal, one request after
// the other, and checks each result.
func (b *bench) pass(e *env) (passStats, error) {
	var ps passStats
	names := make([]string, len(e.tb.Clusters))
	for i, c := range e.tb.Clusters {
		names[i] = c.Name
	}
	e.tr.take()
	runtime.GC()
	// Flush what earlier passes wrote and deleted (journals, and the block
	// discards their removal queues) so this pass's fsyncs do not pay for it.
	syscall.Sync()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	s0 := e.tb.Compute.Stats()
	mark := 0
	if b.rec != nil {
		mark = b.rec.mark()
	}

	ok := make([]bool, len(names))
	start := now()
	ps.peakLive = sampleLiveHeap(func() {
		for i, name := range names {
			b.nextReq++
			var rs time.Duration
			if b.rec != nil {
				b.rec.begin(b.nextReq)
				rs = b.rec.at()
			}
			t0 := now()
			res, err := e.tb.Portal.Analyze(name)
			ps.latencies = append(ps.latencies, since(t0).Seconds())
			if b.rec != nil {
				b.rec.finish(rs, b.rec.at(), err != nil)
			}
			if err == nil && oneRowPerGalaxy(res.Table, len(e.tb.Clusters[i].Galaxies)) {
				ok[i] = true
				ps.galaxies += res.Table.NumRows()
			}
		}
	})
	ps.wall = since(start)
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.gcs = m1.NumGC - m0.NumGC
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	s1 := e.tb.Compute.Stats()
	ps.rlsTrips = s1.RLSRoundTrips - s0.RLSRoundTrips
	ps.repHits = s1.ReplicaCacheHits - s0.ReplicaCacheHits
	ps.repMisses = s1.ReplicaCacheMisses - s0.ReplicaCacheMisses

	ids, exchanges := e.tr.take()
	ps.exchanges = exchanges
	for _, id := range ids {
		st, err := e.tb.Compute.Status(id)
		if err != nil {
			return ps, fmt.Errorf("status %s: %w", id, err)
		}
		ps.runs = append(ps.runs, st.Stats)
	}
	for i, name := range names {
		if ok[i] && !b.checkDigest(e, name) {
			ok[i] = false
		}
		b.attempted++
		if !ok[i] {
			b.failed++
		}
	}
	if b.rec != nil {
		ps.spans = b.rec.from(mark)
		js, err := replayJournals(e.journalDir)
		if err != nil {
			return ps, err
		}
		ps.journal = js
	}
	return ps, nil
}

// oneRowPerGalaxy reports whether the merged table holds exactly n rows
// with distinct galaxy ids.
func oneRowPerGalaxy(t *votable.Table, n int) bool {
	if t == nil || t.NumRows() != n {
		return false
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := t.Cell(i, "id")
		if id == "" || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// outputDigest is the SHA-256 of a cluster's result VOTable in the compute
// service's cache store.
func outputDigest(tb *core.Testbed, cluster string) (string, error) {
	data, err := tb.FTP.Store("isi").Get(cluster + ".vot")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest compares a cluster's output with the pinned digest (default
// seed) or with the first output this run produced for it (other seeds).
func (b *bench) checkDigest(e *env, cluster string) bool {
	got, err := outputDigest(e.tb, cluster)
	if err != nil {
		return false
	}
	want, pinned := b.pins[cluster]
	if !pinned {
		if first, seen := b.ref[cluster]; seen {
			want = first
		} else {
			b.ref[cluster], want = got, got
		}
	}
	return got == want
}

// digests lists the reference digest of every cluster of the workload.
func (b *bench) digests() map[string]string {
	out := map[string]string{}
	for _, spec := range b.specs {
		if d, ok := b.pins[spec.Name]; ok {
			out[spec.Name] = d
		} else if d, ok := b.ref[spec.Name]; ok {
			out[spec.Name] = d
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleLiveHeap runs fn while a second goroutine polls the Go live heap
// (updated at the end of every GC cycle) and returns the highest value seen.
func sampleLiveHeap(fn func()) uint64 {
	var done atomic.Bool
	var peak uint64
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	workpool.Run(2, 2, func(i int) {
		if i == 0 {
			fn()
			done.Store(true)
			return
		}
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			if done.Load() {
				return
			}
			//nvolint:ignore noclock heap sampling period of the benchmark's own probe; it paces no system code
			time.Sleep(2 * time.Millisecond)
		}
	})
	return peak
}

// purge readies a warmed testbed for a rerun: it unregisters every result
// product (<id>.txt and <cluster>.vot) from the RLS and deletes the output
// tables from the cache store, keeping the staged .fit cutouts. The next
// pass then replans every galMorph job and finds its result in the vdcache.
func purge(tb *core.Testbed) error {
	for _, lfn := range tb.RLS.LFNs() {
		if !strings.HasSuffix(lfn, ".txt") && !strings.HasSuffix(lfn, ".vot") {
			continue
		}
		for _, pfn := range tb.RLS.Lookup(lfn) {
			if err := tb.RLS.Unregister(lfn, pfn); err != nil {
				return fmt.Errorf("purge %s: %w", lfn, err)
			}
		}
		if strings.HasSuffix(lfn, ".vot") {
			_ = tb.FTP.Store("isi").Delete(lfn) // absent is as good as deleted
		}
	}
	return nil
}
