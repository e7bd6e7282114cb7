// Command perfbench is the repository's benchmark. It answers a portal
// user's question end to end — cluster name in, merged morphology table out —
// through the public entry points (core.NewTestbed, portal.Portal.Analyze,
// webservice.Service.Status and Stats), with one closed-loop client whose
// next Analyze waits for the previous one and the compute service's Workers
// set to the number of CPUs.
//
// Workloads:
//
//	campaign-cold     the paper's eight-cluster §5 campaign, each pass on a
//	                  fresh testbed: every write path (staging, RLS
//	                  registration, vdcache fill, galMorph measurement)
//	campaign-rerun    the same campaign on one warmed testbed whose result
//	                  products are unregistered before each pass: RLS,
//	                  GridFTP and vdcache are read, not written
//	survey-journaled  one 1,000-galaxy survey in wave mode (WaveSize 100,
//	                  PageSize 200) with a crash-safe journal per pass
//
// The skysim fixture — every galaxy cutout — is rendered once in set-up and
// served to the system from memory, so galaxies/s never includes it. Every
// pass checks that each Analyze succeeded, that each merged table holds one
// row per galaxy, and that the SHA-256 of each <cluster>.vot matches the
// digests pinned in digests.json (default seed) or agrees across the run's
// passes (other seeds).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with --trace 1 the run is repeated with spans on
// and the object holds every per-layer metric, and the spans are written to
// <out>/trace-<workload>-seed<seed>.json. The lines before it print every
// figure by name and unit, with sample counts, the host record and the
// output digests.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed digests.json
var pinnedJSON []byte

// host records where and how a result was measured.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workers    int    `json:"workers"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", campaignCold, "workload to run")
	seed := fl.Int64("seed", defaultSeed, "workload seed; the default reproduces skysim.StandardClusters()")
	seconds := fl.Float64("seconds", 10, "seconds of timed passes, spread over the set-ups")
	trace := fl.Int("trace", 0, "1: a traced run reporting per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for scratch journals and traces")
	commit := fl.String("commit", "unknown", "commit recorded in the host record")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var pinned struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fmt.Fprintf(stderr, "perfbench: digests.json: %v\n", err)
		return 1
	}
	if pinned.Seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: digests.json pins seed %d, want the default seed %d\n", pinned.Seed, defaultSeed)
		return 1
	}
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Workers: runtime.NumCPU(),
		Workload: *workload, Seed: *seed, Commit: *commit,
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b, err := newBench(*workload, *seed, h.Workers, tmp, pinned.Digests)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := b.run(*seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.rec != nil {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := b.rec.write(path, h); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	e2e, layers := res.endToEnd(b), res.perLayer(b)
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "workload %s seed %d: %d passes timed, %d requests attempted, %d failed\n",
		*workload, *seed, len(res.untraced)+len(res.traced), b.attempted, b.failed)
	digests := b.digests()
	names := make([]string, 0, len(digests))
	for n := range digests {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "digest %-8s %s\n", n, digests[n])
	}
	printMetrics(stdout, "end-to-end", e2e)
	reported := e2e
	if b.rec != nil {
		printMetrics(stdout, "per-layer", layers)
		reported = layers
	}

	correct := b.failed == 0
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, b.attempted, b.failed, map[string]map[string]any{}}
	for _, m := range reported {
		if b.rec == nil && printedOnly[m.Name] {
			continue
		}
		line.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	lj, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", lj)
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d requests failed or produced wrong output\n", b.failed, b.attempted)
		return 1
	}
	return 0
}

// printedOnly are end-to-end figures the table prints but the result line
// leaves to the per-layer metrics: the failure ratio reads 0 on every
// healthy run (failures are the result's own attempted/failed), and a
// survey run's p90 rests on too few requests to hold a bound on a shared
// host — its spread across seeds was 0.27–0.39 against 0.09–0.16 for p50.
var printedOnly = map[string]bool{"requests_failed_ratio": true, "request_s_p90": true}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

// result is everything one run measured.
type result struct {
	setupS   []float64
	renderS  []float64
	untraced []passStats
	traced   []passStats
	replay   replays
}

// run builds the set-up setupReps times and measures a third of the timed
// seconds after each, so the timed passes are spread over the whole run and
// a slow spell on a shared host touches only some of them. With trace, each
// third is split into an untraced and a traced phase.
func (b *bench) run(seconds float64, trace bool) (*result, error) {
	r := &result{}
	// A survey pass is one request against a campaign pass's eight, so it
	// runs more passes: 24 samples put its p90 below the two slowest.
	segment, minPasses := seconds/setupReps, 2
	if b.workload == surveyJournaled {
		minPasses = 8
	}
	var rec *recorder
	if trace {
		segment, minPasses, rec = segment/2, 1, newRecorder()
	}
	for k := 0; k < setupReps; k++ {
		warm, err := b.setup(r)
		if err != nil {
			return nil, err
		}
		passes, err := b.phase(warm, segment, minPasses)
		r.untraced = append(r.untraced, passes...)
		if err == nil && trace {
			b.rec = rec
			if warm != nil {
				warm.tr.rec = rec
			}
			passes, err = b.phase(warm, segment, minPasses)
			r.traced = append(r.traced, passes...)
			b.rec = nil
		}
		if warm != nil {
			warm.close()
		}
		if err != nil {
			return nil, err
		}
	}
	if !trace {
		return r, nil
	}
	b.rec = rec
	var err error
	r.replay, err = b.replay(r.traced[len(r.traced)-1])
	return r, err
}

// setup builds a testbed, renders the fixture and runs the warm-up: one cold
// pass, which also fixes the reference digests later passes must reproduce,
// and for campaign-rerun one rerun pass, whose warmed testbed it returns.
func (b *bench) setup(r *result) (*env, error) {
	t0 := now()
	b.fix = nil
	e, err := b.newEnv()
	if err != nil {
		return nil, err
	}
	rt := now()
	fix, err := renderFixture(e.tb.MAST, e.tb.Clusters, b.workers)
	if err == nil {
		r.renderS = append(r.renderS, since(rt).Seconds())
		b.fix, e.tr.fix, b.clusters = fix, fix, e.tb.Clusters
		_, err = b.pass(e)
	}
	if err == nil && b.workload == campaignRerun {
		if err = purge(e.tb); err == nil {
			_, err = b.pass(e)
		}
	}
	if err != nil || b.workload != campaignRerun {
		e.close()
		e = nil
	}
	r.setupS = append(r.setupS, since(t0).Seconds())
	return e, err
}

// phase runs whole passes until budget seconds have passed and at least
// minPasses are done. Only the passes themselves are timed: building a fresh
// testbed or purging the warmed one happens between them.
func (b *bench) phase(warm *env, budget float64, minPasses int) ([]passStats, error) {
	var out []passStats
	start := now()
	for len(out) < minPasses || since(start).Seconds() < budget {
		e := warm
		if e == nil {
			var err error
			if e, err = b.newEnv(); err != nil {
				return out, err
			}
		} else if err := purge(e.tb); err != nil {
			return out, err
		}
		ps, err := b.pass(e)
		if warm == nil {
			e.close()
		}
		if err != nil {
			return out, err
		}
		out = append(out, ps)
	}
	return out, nil
}

// endToEnd computes the end-to-end metrics from the untraced passes. Rates
// and peaks are medians over passes, so one pass slowed by a neighbour on a
// shared host does not move them.
func (r *result) endToEnd(b *bench) []metric {
	var lat, rates, cpus, makespans, peaks []float64
	for _, ps := range r.untraced {
		lat = append(lat, ps.latencies...)
		rates = append(rates, ratio(float64(ps.galaxies), ps.wall.Seconds()))
		cpus = append(cpus, ratio(ps.cpu.Seconds(), float64(ps.galaxies)/1000))
		var m time.Duration
		for _, st := range ps.runs {
			m += st.Makespan
		}
		makespans = append(makespans, m.Seconds())
		peaks = append(peaks, float64(ps.peakLive)-float64(b.fix.bytes))
	}
	p50, n50 := percentile(lat, 0.5)
	p90, n90 := percentile(lat, 0.9)
	passes := fmt.Sprintf("median of %d passes", len(r.untraced))
	return []metric{
		{Name: "setup_s", Value: median(r.setupS), Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(r.setupS))},
		{Name: "galaxies_per_s", Value: median(rates), Unit: "galaxies/s", Note: passes},
		{Name: "request_s_p50", Value: p50, Unit: "s", Note: fmt.Sprintf("n=%d", n50)},
		{Name: "request_s_p90", Value: p90, Unit: "s", Note: fmt.Sprintf("n=%d", n90)},
		{Name: "model_makespan_s", Value: median(makespans), Unit: "s", Note: "simulated Grid time of one pass"},
		{Name: "peak_heap_mb", Value: median(peaks) / 1e6, Unit: "MB", Note: "fixture excluded, " + passes},
		{Name: "cpu_s_per_kgalaxy", Value: median(cpus), Unit: "s/kgalaxy", Note: passes},
		{Name: "requests_failed_ratio", Value: ratio(float64(b.failed), float64(b.attempted)), Unit: "ratio",
			Note: fmt.Sprintf("%d of %d", b.failed, b.attempted)},
	}
}

// perLayer computes the per-layer metrics from the traced passes.
func (r *result) perLayer(b *bench) []metric {
	if len(r.traced) == 0 {
		return nil
	}
	gps := func(passes []passStats) float64 {
		var wall time.Duration
		n := 0
		for _, ps := range passes {
			wall += ps.wall
			n += ps.galaxies
		}
		return ratio(float64(n), wall.Seconds())
	}
	traced, untraced := gps(r.traced), gps(r.untraced)
	var lat []float64
	for _, ps := range r.traced {
		lat = append(lat, ps.latencies...)
	}
	p90, n := percentile(lat, 0.9)
	out := spanLayers(r.traced)
	out = append(out, statsLayers(r.traced, r.replay, b.fix, median(r.renderS))...)
	return append(out,
		metric{Name: "trace.galaxies_per_s", Value: traced, Unit: "galaxies/s", Note: "spans on"},
		metric{Name: "trace.untraced_galaxies_per_s", Value: untraced, Unit: "galaxies/s", Note: "same run, spans off"},
		metric{Name: "trace.overhead_galaxies_per_s", Value: untraced - traced, Unit: "galaxies/s"},
		metric{Name: "request_s_p90", Value: p90, Unit: "s", Note: fmt.Sprintf("n=%d, spans on", n)},
		metric{Name: "requests_failed_ratio", Value: ratio(float64(b.failed), float64(b.attempted)), Unit: "ratio",
			Note: fmt.Sprintf("%d of %d", b.failed, b.attempted)},
	)
}
