package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/skysim"
	"repro/internal/wcs"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"disjoint", []interval{{ms(10), ms(20)}, {ms(50), ms(70)}}, ms(70)},
		// Fan-out: three concurrent archive calls over [10,40) cover 30ms,
		// not the 60ms their durations sum to.
		{"overlapping fan-out", []interval{{ms(10), ms(30)}, {ms(20), ms(40)}, {ms(15), ms(25)}}, ms(70)},
		{"nested", []interval{{ms(10), ms(60)}, {ms(20), ms(30)}}, ms(50)},
		{"touching", []interval{{ms(10), ms(20)}, {ms(20), ms(30)}}, ms(80)},
		{"clipped to the parent", []interval{{-ms(5), ms(5)}, {ms(90), ms(120)}}, ms(85)},
		{"outside the parent", []interval{{ms(100), ms(130)}, {-ms(20), 0}}, ms(100)},
		{"unsorted", []interval{{ms(60), ms(80)}, {ms(0), ms(10)}, {ms(70), ms(90)}}, ms(60)},
	}
	for _, c := range cases {
		if got := selfTime(0, ms(100), c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0.5, 5.5}, {0.9, 9.1}, {0, 1}, {1, 10}} {
		got, n := percentile(xs, c.q)
		if math.Abs(got-c.want) > 1e-12 || n != len(xs) {
			t.Errorf("percentile(%g) = %g (n=%d), want %g (n=%d)", c.q, got, n, c.want, len(xs))
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got, n := percentile(nil, 0.5); !math.IsNaN(got) || n != 0 {
		t.Errorf("percentile(empty) = %g (n=%d), want NaN (n=0)", got, n)
	}
	if got, n := percentile([]float64{3}, 0.9); got != 3 || n != 1 {
		t.Errorf("percentile(one) = %g (n=%d), want 3 (n=1)", got, n)
	}
}

// smallBench is a two-cluster campaign small enough for a unit test.
func smallBench(t *testing.T) *bench {
	t.Helper()
	b, err := newBench(campaignCold, 3, 2, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b.specs = []skysim.Spec{
		{Name: "T1", Center: wcs.New(30, 10), NumGalaxies: 14, Seed: 5},
		{Name: "T2", Center: wcs.New(80, -20), NumGalaxies: 9, Seed: 6},
	}
	return b
}

// countingTransport counts the /cutout requests that reach the router.
type countingTransport struct {
	next    http.RoundTripper
	cutouts atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/cutout" {
		c.cutouts.Add(1)
	}
	return c.next.RoundTrip(req)
}

func TestFixtureStoreIsTransparent(t *testing.T) {
	b := smallBench(t)

	// Through the real archive: the reference digests.
	real, err := b.newEnv()
	if err != nil {
		t.Fatal(err)
	}
	router := &countingTransport{next: real.tr.next}
	real.tr.next = router
	if _, err := b.pass(real); err != nil {
		t.Fatal(err)
	}
	if router.cutouts.Load() != 23 {
		t.Fatalf("archive served %d cutouts, want 23", router.cutouts.Load())
	}

	// Through the fixture store: the router never renders a cutout and
	// every output digest matches.
	e, err := b.newEnv()
	if err != nil {
		t.Fatal(err)
	}
	fix, err := renderFixture(e.tb.MAST, e.tb.Clusters, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fix.cutouts) != 23 || fix.bytes == 0 {
		t.Fatalf("fixture holds %d cutouts (%d bytes), want 23", len(fix.cutouts), fix.bytes)
	}
	e.tr.fix = fix
	router = &countingTransport{next: e.tr.next}
	e.tr.next = router
	if _, err := b.pass(e); err != nil {
		t.Fatal(err)
	}
	if router.cutouts.Load() != 0 {
		t.Errorf("%d cutouts bypassed the fixture store", router.cutouts.Load())
	}
	if b.attempted != 4 || b.failed != 0 {
		t.Errorf("attempted %d, failed %d; want 4, 0 (digests differ through the fixture store)", b.attempted, b.failed)
	}
}

func TestRerunPurgeKeepsCutouts(t *testing.T) {
	b := smallBench(t)
	e, err := b.newEnv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.pass(e); err != nil {
		t.Fatal(err)
	}
	lfns := func(suffix string) []string {
		var out []string
		for _, lfn := range e.tb.RLS.LFNs() {
			if strings.HasSuffix(lfn, suffix) {
				out = append(out, lfn)
			}
		}
		sort.Strings(out)
		return out
	}
	fits := lfns(".fit")
	if len(fits) != 23 || len(lfns(".txt")) != 23 || len(lfns(".vot")) != 2 {
		t.Fatalf("cold pass registered %d .fit, %d .txt, %d .vot; want 23, 23, 2",
			len(fits), len(lfns(".txt")), len(lfns(".vot")))
	}

	if err := purge(e.tb); err != nil {
		t.Fatal(err)
	}
	if got := lfns(".txt"); len(got) != 0 {
		t.Errorf("purge left %d .txt products registered", len(got))
	}
	if got := lfns(".vot"); len(got) != 0 {
		t.Errorf("purge left %d .vot products registered", len(got))
	}
	if got := lfns(".fit"); strings.Join(got, ",") != strings.Join(fits, ",") {
		t.Errorf("purge touched the staged cutouts: %d .fit left of %d", len(got), len(fits))
	}
	for _, lfn := range fits {
		if !e.tb.FTP.Store("isi").Exists(lfn) {
			t.Errorf("purge deleted staged cutout %s", lfn)
		}
	}

	// The rerun reads what the cold pass wrote: every image cached, every
	// measurement a vdcache hit, and the same output bytes (the digests the
	// cold pass fixed for this non-default seed).
	ps, err := b.pass(e)
	if err != nil {
		t.Fatal(err)
	}
	var cached, hits, misses int
	for _, st := range ps.runs {
		cached += st.ImagesCached
		hits += st.MemoHits
		misses += st.MemoMisses
	}
	if cached != 23 || hits != 23 || misses != 0 {
		t.Errorf("rerun: %d images cached, %d vdcache hits, %d misses; want 23, 23, 0", cached, hits, misses)
	}
	if b.attempted != 4 || b.failed != 0 {
		t.Errorf("attempted %d, failed %d; want 4, 0 (rerun output differs from cold)", b.attempted, b.failed)
	}
}

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	b := smallBench(t)
	b.pins = map[string]string{"T1": strings.Repeat("0", 64)}
	e, err := b.newEnv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.pass(e); err != nil {
		t.Fatal(err)
	}
	if b.attempted != 2 || b.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2, 1", b.attempted, b.failed)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}

	b := &bench{fix: &fixtureStore{}}
	r := &result{untraced: []passStats{{}}, traced: []passStats{{}}}
	var e2e []metric
	for _, m := range r.endToEnd(b) {
		if !printedOnly[m.Name] {
			e2e = append(e2e, m)
		}
	}
	check := func(kind string, declared []decl, got []metric) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m.Name] {
				t.Errorf("%s metric %s reported twice", kind, m.Name)
			}
			seen[m.Name] = true
			unit, ok := want[m.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is not declared in BENCHMARK.json", kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, m.Name, m.Unit, unit)
			}
			if len(m.Unit) > 16 || strings.Trim(m.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
				t.Errorf("%s metric %s: unit %q is not a legal unit", kind, m.Name, m.Unit)
			}
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %s is declared but never reported", kind, name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, e2e)
	check("per-layer", spec.PerLayer, r.perLayer(b))
}
