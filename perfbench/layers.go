package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arena"
	"repro/internal/journal"
	"repro/internal/morphology"
	"repro/internal/votable"
)

// metric is one reported figure. Note is printed on the human-readable line
// only (a sample count, a base).
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// journalStats is what journal.Replay reads back from one pass's journals.
type journalStats struct {
	records []journal.Record
	bytes   int64
}

// replayJournals replays every workflow journal under dir.
func replayJournals(dir string) (journalStats, error) {
	var js journalStats
	if dir == "" {
		return js, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return js, err
	}
	for _, p := range paths {
		recs, _, err := journal.Replay(p)
		if err != nil {
			return js, err
		}
		js.records = append(js.records, recs...)
		if fi, err := os.Stat(p); err == nil {
			js.bytes += fi.Size()
		}
	}
	return js, nil
}

// replays are the layer timings measured by calling a layer's public
// function again on one pass's own inputs.
type replays struct {
	measurePerGalaxy float64 // s, morphology.MeasureRaw
	decode, encode   float64 // s, votable.ReadTable / WriteTable over the pass
	votBytes         int64
	appendPerRecord  float64 // s, fsynced journal.Writer.Append
}

// replay times the layers whose work happens inside the compute service on
// the inputs of pass ps.
func (b *bench) replay(ps passStats) (replays, error) {
	var r replays

	// galMorph: MeasureRaw over every cutout the pass staged.
	n := 0
	t0 := now()
	for _, c := range b.clusters {
		for _, g := range c.Galaxies {
			a := arena.Get()
			_, _ = morphology.MeasureRaw(a, b.fix.cutouts[g.ID], morphology.DefaultConfig(g.Redshift)) // invalid galaxies are results too
			arena.Put(a)
			n++
		}
	}
	if n > 0 {
		r.measurePerGalaxy = since(t0).Seconds() / float64(n)
	}

	// VOTable codec: decode and re-encode each request's catalog and result.
	for _, x := range ps.exchanges {
		for _, doc := range [][]byte{x.catalog, x.result} {
			r.votBytes += int64(len(doc))
			t := now()
			tab, err := votable.ReadTable(bytes.NewReader(doc))
			r.decode += since(t).Seconds()
			if err != nil {
				return r, err
			}
			var buf bytes.Buffer
			t = now()
			err = votable.WriteTable(&buf, tab)
			r.encode += since(t).Seconds()
			if err != nil {
				return r, err
			}
		}
	}

	// Journal: as many fsynced appends as the pass journaled.
	if recs := ps.journal.records; len(recs) > 0 {
		dir, err := os.MkdirTemp(b.tmp, "append-")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		w, err := journal.Create(filepath.Join(dir, "replay.journal"))
		if err != nil {
			return r, err
		}
		t := now()
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				_ = w.Close() // the append error is the one to report
				return r, err
			}
		}
		r.appendPerRecord = since(t).Seconds() / float64(len(recs))
		if err := w.Close(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// spanLayers folds the traced passes' spans into per-pass layer figures.
func spanLayers(passes []passStats) []metric {
	type agg struct {
		calls, failed int
		busy          time.Duration
		bytes         int64
	}
	layers := map[string]*agg{}
	for _, name := range []string{"services.cone", "services.sia", "services.siacut", "services.cutout",
		"webservice.submit", "webservice.status", "webservice.result"} {
		layers[name] = &agg{}
	}
	var wait, self time.Duration
	done := 0
	for _, ps := range passes {
		children := map[int][]interval{}
		submitted := map[int]time.Duration{}
		completed := map[int]time.Duration{}
		for _, s := range ps.spans {
			if a, ok := layers[s.Name]; ok {
				a.calls++
				a.busy += s.dur()
				a.bytes += s.Bytes
				if s.Failed {
					a.failed++
				}
				children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			}
			switch {
			case s.Name == "webservice.submit" && !s.Failed:
				submitted[s.Req] = s.End
			case s.Done:
				done++
				completed[s.Req] = s.End
			}
		}
		for _, s := range ps.spans {
			if s.Name != "portal.analyze" {
				continue
			}
			cs := children[s.ID]
			lo, okS := submitted[s.Req]
			hi, okC := completed[s.Req]
			if okS && okC {
				wait += hi - lo
				cs = append(cs, interval{lo, hi})
			}
			self += selfTime(s.Start, s.End, cs)
		}
	}
	per := float64(len(passes))
	polls := float64(layers["webservice.status"].calls)
	var out []metric
	for _, svc := range []string{"cone", "sia", "siacut", "cutout"} {
		a := layers["services."+svc]
		out = append(out,
			metric{Name: "services." + svc + ".calls", Value: float64(a.calls) / per, Unit: "count"},
			metric{Name: "services." + svc + ".busy_s", Value: a.busy.Seconds() / per, Unit: "s"},
			metric{Name: "services." + svc + ".bytes", Value: float64(a.bytes) / per, Unit: "B"},
			metric{Name: "services." + svc + ".failed", Value: float64(a.failed) / per, Unit: "count"},
		)
	}
	out = append(out,
		metric{Name: "webservice.submit.busy_s", Value: layers["webservice.submit"].busy.Seconds() / per, Unit: "s"},
		metric{Name: "webservice.result.busy_s", Value: layers["webservice.result"].busy.Seconds() / per, Unit: "s"},
		metric{Name: "webservice.result.bytes", Value: float64(layers["webservice.result"].bytes) / per, Unit: "B"},
		metric{Name: "webservice.status.calls", Value: polls / per, Unit: "count"},
		metric{Name: "webservice.poll_useful_ratio", Value: ratio(float64(done), polls), Unit: "ratio",
			Note: "completed requests per poll"},
		metric{Name: "portal.compute_wait_s", Value: wait.Seconds() / per, Unit: "s"},
		metric{Name: "portal.analyze.self_s", Value: self.Seconds() / per, Unit: "s"},
	)
	return out
}

// statsLayers folds the compute service's RunStats and counters, the
// replays and the runtime counters of the traced passes into per-pass
// layer figures.
func statsLayers(passes []passStats, rp replays, fix *fixtureStore, renderS float64) []metric {
	var (
		fetched, cached, waves, evicted, maxWave, peakStaged  int
		jobs, pruned, transfers, registers, events, clustered int
		retries, staged, hits, misses, journalRecs            int
		siaModel                                              time.Duration
		planned, bytesStaged, trips, repHits, repMisses       int64
		journalBytes                                          int64
		alloc                                                 uint64
		gcs                                                   uint32
		pause                                                 time.Duration
		galaxies                                              int
	)
	for _, ps := range passes {
		for _, st := range ps.runs {
			fetched += st.ImagesFetched
			cached += st.ImagesCached
			siaModel += st.SIAModelTime
			waves += st.Waves
			maxWave = max(maxWave, st.MaxWaveNodes)
			peakStaged = max(peakStaged, st.PeakStagedImages)
			evicted += st.ImagesEvicted
			jobs += st.ComputeJobs
			pruned += st.PrunedJobs
			transfers += st.TransferNodes
			registers += st.RegisterNodes
			planned += st.PlannedBytesMoved
			events += st.ScheduleEvents
			clustered += st.ClusteredTasks
			retries += st.Retries
			staged += st.FilesStaged
			bytesStaged += st.BytesStaged
			hits += st.MemoHits
			misses += st.MemoMisses
		}
		trips += ps.rlsTrips
		repHits += ps.repHits
		repMisses += ps.repMisses
		journalRecs += len(ps.journal.records)
		journalBytes += ps.journal.bytes
		alloc += ps.alloc
		gcs += ps.gcs
		pause += ps.gcPause
		galaxies += ps.galaxies
	}
	per := float64(len(passes))
	c := func(name string, v int) metric { return metric{Name: name, Value: float64(v) / per, Unit: "count"} }
	return []metric{
		c("webservice.images_fetched", fetched),
		c("webservice.images_cached", cached),
		{Name: "webservice.sia_model_s", Value: siaModel.Seconds() / per, Unit: "s"},
		c("webservice.waves", waves),
		{Name: "webservice.max_wave_nodes", Value: float64(maxWave), Unit: "count"},
		{Name: "webservice.peak_staged_images", Value: float64(peakStaged), Unit: "count"},
		c("webservice.images_evicted", evicted),
		c("pegasus.compute_jobs", jobs),
		c("pegasus.pruned_jobs", pruned),
		c("pegasus.transfer_nodes", transfers),
		c("pegasus.register_nodes", registers),
		{Name: "pegasus.planned_bytes", Value: float64(planned) / per, Unit: "B"},
		c("dagman.schedule_events", events),
		c("dagman.clustered_tasks", clustered),
		c("dagman.retries", retries),
		c("gridftp.files_staged", staged),
		{Name: "gridftp.bytes_staged", Value: float64(bytesStaged) / per, Unit: "B"},
		{Name: "rls.round_trips", Value: float64(trips) / per, Unit: "count"},
		{Name: "rls.replica_cache_hit_ratio", Value: ratio(float64(repHits), float64(repHits+repMisses)), Unit: "ratio"},
		c("vdcache.hits", hits),
		c("vdcache.misses", misses),
		{Name: "vdcache.hit_ratio", Value: ratio(float64(hits), float64(hits+misses)), Unit: "ratio"},
		c("morphology.measured", misses),
		{Name: "morphology.measure_s_per_galaxy", Value: rp.measurePerGalaxy, Unit: "s/galaxy", Note: "replay"},
		{Name: "votable.decode_s", Value: rp.decode, Unit: "s", Note: "replay of one pass"},
		{Name: "votable.encode_s", Value: rp.encode, Unit: "s", Note: "replay of one pass"},
		{Name: "votable.bytes", Value: float64(rp.votBytes), Unit: "B", Note: "one pass"},
		c("journal.records", journalRecs),
		{Name: "journal.bytes", Value: float64(journalBytes) / per, Unit: "B"},
		{Name: "journal.append_s_per_record", Value: rp.appendPerRecord, Unit: "s/record", Note: "replay, fsynced"},
		{Name: "fixture.render_s", Value: renderS, Unit: "s", Note: "inside setup_s"},
		{Name: "fixture.cutouts", Value: float64(len(fix.cutouts)), Unit: "count"},
		{Name: "fixture.bytes", Value: float64(fix.bytes), Unit: "B"},
		{Name: "runtime.alloc_mb_per_kgalaxy", Value: ratio(float64(alloc)/1e6, float64(galaxies)/1000), Unit: "MB/kgalaxy"},
		{Name: "runtime.gc_cycles", Value: float64(gcs) / per, Unit: "count"},
		{Name: "runtime.gc_pause_s", Value: pause.Seconds() / per, Unit: "s"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
