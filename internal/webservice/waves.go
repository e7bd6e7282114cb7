package webservice

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/pegasus"
)

// waveSourceFor mirrors buildVDL's derivation structure — one galMorph job
// per galaxy plus the concatVOT collector — as a lazy pegasus.WaveSource, so
// the survey-scale path never materializes a per-galaxy job list beyond the
// (id, acref) staging refs it already holds.
func waveSourceFor(refs []imageRef, cluster string) pegasus.WaveSource {
	inputs := make([]string, len(refs))
	for i, r := range refs {
		inputs[i] = r.id + ".txt"
	}
	return pegasus.WaveSource{
		Jobs: len(refs),
		Job: func(i int) pegasus.WaveJob {
			id := refs[i].id
			return pegasus.WaveJob{
				ID:             "m-" + id,
				Transformation: "galMorph",
				Inputs:         []string{id + ".fit"},
				Outputs:        []string{id + ".txt"},
			}
		},
		Collector: pegasus.WaveJob{
			ID:             "collect-" + cluster,
			Transformation: "concatVOT",
			Inputs:         inputs,
			Outputs:        []string{outputLFN(cluster)},
		},
	}
}

// writeWaveManifest persists the wave decomposition of one request: the wave
// size and the ordered (id, acref) galaxy list — everything a resume needs to
// rebuild the exact wave sequence (and restage missing images) without the
// original input table. The manifest replaces the classic .dag artifact,
// which would be unbounded at survey scale.
func writeWaveManifest(path string, waveSize int, refs []imageRef) error {
	var b strings.Builder
	fmt.Fprintf(&b, "wave_size %d\n", waveSize)
	for _, r := range refs {
		if strings.ContainsAny(r.id, "\t\n") || strings.ContainsAny(r.acref, "\t\n") {
			return fmt.Errorf("webservice: galaxy %q/%q not manifest-safe", r.id, r.acref)
		}
		fmt.Fprintf(&b, "%s\t%s\n", r.id, r.acref)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readWaveManifest reloads a wave manifest.
func readWaveManifest(path string) (int, []imageRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close() //nvolint:ignore errclose read-only manifest; decode errors surface via the scanner
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	if !sc.Scan() {
		return 0, nil, fmt.Errorf("webservice: wave manifest %s: empty", path)
	}
	sizeStr, ok := strings.CutPrefix(sc.Text(), "wave_size ")
	if !ok {
		return 0, nil, fmt.Errorf("webservice: wave manifest %s: bad header %q", path, sc.Text())
	}
	waveSize, err := strconv.Atoi(sizeStr)
	if err != nil || waveSize <= 0 {
		return 0, nil, fmt.Errorf("webservice: wave manifest %s: bad wave size %q", path, sizeStr)
	}
	var refs []imageRef
	for sc.Scan() {
		id, acref, found := strings.Cut(sc.Text(), "\t")
		if !found || id == "" {
			return 0, nil, fmt.Errorf("webservice: wave manifest %s: bad line %q", path, sc.Text())
		}
		refs = append(refs, imageRef{id: id, acref: acref})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return waveSize, refs, nil
}

// waveNext is the graph source of a survey-scale leg: instead of staging
// every image and planning one monolithic concrete DAG, the request is cut
// into waves. Each wave stages only its own images, plans through the
// ordinary Pegasus pipeline (on a resumed leg, RLS reduction shrinks it to
// its unfinished remainder), and is discarded once executed, before the next
// wave is planned — peak image-staging and planner/scheduler memory are
// bounded by the wave. The final wave runs the concatenating job at the
// deterministic collector site the leaf waves delivered their results to,
// producing output bytes identical to the classic path.
func (s *Service) waveNext(planner *pegasus.WavePlanner, refs []imageRef, labels *runLabels,
	stats *RunStats) func(int) (*dag.Graph, error) {
	// evict reclaims a completed leaf wave's staged cutouts: once a wave's
	// derived outputs are registered in the RLS its input images are dead
	// weight, so the store's peak footprint stays bounded by one wave
	// instead of accumulating the whole survey. Inputs whose output is not
	// registered (a rescue re-run may need them) are kept.
	evict := func(w int) {
		if w < 0 || w >= planner.LeafWaves() {
			return
		}
		lo, hi := planner.WaveBounds(w)
		for _, r := range refs[lo:hi] {
			if !s.cfg.RLS.Exists(r.id + ".txt") {
				continue
			}
			if s.evictImage(r.id + ".fit") {
				stats.ImagesEvicted++
			}
		}
	}
	return func(w int) (*dag.Graph, error) {
		// Waves release sequentially: wave w-1 has completed (and
		// registered its outputs) by the time wave w is staged — no Run
		// bodies execute while the wave label is rebuilt here.
		labels.setWave(strconv.Itoa(w))
		evict(w - 1)
		if w >= planner.Waves() {
			return nil, nil
		}
		if w < planner.LeafWaves() {
			lo, hi := planner.WaveBounds(w)
			if err := s.cacheImageRefs(refs[lo:hi], stats); err != nil {
				return nil, err
			}
			if n := s.countStagedImages(); n > stats.PeakStagedImages {
				stats.PeakStagedImages = n
			}
		}
		plan, err := planner.Plan(w)
		if err != nil {
			return nil, err
		}
		s.primePlan(plan, stats)
		return plan.Concrete, nil
	}
}
