package webservice

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"repro/internal/chimera"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/pegasus"
	"repro/internal/vdl"
	"repro/internal/votable"
)

// leg is one prepared workflow leg: everything the executor needs to run a
// workflow to completion. A fresh leg is prepared from the request table, a
// resumed one from the artifacts a journaled leg left behind; one executor
// runs both.
type leg struct {
	tenant, cluster string
	seed            int64
	cat             *vdl.Catalog
	labels          *runLabels
	// next yields the leg's concrete graphs in order, then nil: one per
	// planner wave in wave mode, the single classic plan otherwise.
	next func(wave int) (*dag.Graph, error)
	// jw is the workflow's journal (nil when not journaling); completed is
	// the node set its intact prefix recorded as done (resumed legs only).
	jw        *journal.Writer
	completed map[string]bool
	// reused marks a leg whose output is already registered: nothing runs.
	reused bool
}

// preparer fills a leg (and its share of the request's stats) before the
// executor runs it.
type preparer func(l *leg, stats *RunStats) error

// runLeg prepares and executes one workflow leg under a granted fabric
// lease. However it exits, the lease is released and the leg's model-time
// makespan charged to the tenant's fair-share account — except on
// preemption, which the caller answers with lease.Preempted to requeue the
// workflow.
func (s *Service) runLeg(ctx context.Context, lease *fabric.Lease, cluster string, opt RequestOptions,
	onProgress func(done, total int), prepare preparer) (_ string, stats RunStats, retErr error) {
	defer func() {
		if !errors.Is(retErr, ErrPreempted) {
			lease.Done(stats.Makespan, retErr != nil)
		}
	}()
	// Only a journaled workflow can checkpoint-stop, so only those opt
	// into scheduler revocation.
	if s.cfg.JournalDir != "" {
		lease.SetPreemptible(true)
	}
	tenant := opt.tenant()
	l := &leg{tenant: tenant, cluster: cluster, seed: s.requestSeed(cluster), labels: newRunLabels(tenant, cluster)}
	// A failed close means the final records may not have reached the disk —
	// the journal is the crash-recovery contract, so that is a run failure,
	// not a cleanup detail.
	defer func() {
		if l.jw == nil {
			return
		}
		if errors.Is(retErr, ErrPreempted) {
			// Best-effort checkpoint marker: DAGMan already journaled the
			// abort, so replay is correct without it.
			_ = l.jw.Append(journal.Record{Kind: journal.KindPreempted,
				Detail: "lease revoked; checkpoint-stopped at event boundary"})
		}
		if cerr := l.jw.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("webservice: closing journal: %w", cerr)
		}
	}()
	if err := prepare(l, &stats); err != nil {
		return "", stats, err
	}
	if l.reused {
		stats.ReusedOutput = true
		return outputLFN(cluster), stats, nil
	}
	out, err := s.execute(ctx, lease, l, &stats, onProgress)
	return out, stats, err
}

// prepareFresh prepares a new workflow leg from the request table: proxy
// admission, the reuse-from-RLS short-circuit (Figure 6 step 2), VOTable →
// VDL, and the mode's plan — the classic path stages every image and maps
// one concrete DAG, the survey-scale path builds a wave planner that stages
// and plans lazily, wave by wave. A journaled leg persists its plan artifact
// (.dag or .waves) and VDL, then opens its scoped journal with a begin
// marker.
func (s *Service) prepareFresh(tab *votable.Table) preparer {
	return func(l *leg, stats *RunStats) error {
		if s.cfg.Proxy != nil {
			proxy, err := s.cfg.Proxy()
			if err != nil {
				return fmt.Errorf("webservice: credential retrieval: %w", err)
			}
			if !proxy.Valid(s.cfg.Now()) {
				return errors.New("webservice: Grid proxy expired; delegate a fresh credential")
			}
		}
		stats.Galaxies = tab.NumRows()
		outLFN := outputLFN(l.cluster)
		if s.cfg.RLS.Exists(outLFN) {
			l.reused = true
			return nil
		}

		// VOTable -> VDL, rendered to text and re-parsed (the analog of the
		// XSLT stylesheet producing a derivation file). Both modes keep the
		// whole catalog: the runner reconstructs measurement configs from its
		// derivations and the integrity layer re-derives damaged files from
		// its provenance.
		vdlText, err := buildVDL(tab, l.cluster)
		if err != nil {
			return err
		}
		if l.cat, err = vdl.Parse(vdlText); err != nil {
			return fmt.Errorf("webservice: generated VDL invalid: %w", err)
		}

		var begin string
		var persist func() error
		if s.cfg.WaveSize > 0 {
			refs := imageRefsFromTable(tab)
			planner, err := pegasus.NewWavePlanner(waveSourceFor(refs, l.cluster), s.planConfig(), s.cfg.WaveSize, l.seed)
			if err != nil {
				return err
			}
			l.next = s.waveNext(planner, refs, l.labels, stats)
			begin = fmt.Sprintf("cluster=%s seed=%d waves=%d jobs=%d", l.cluster, l.seed, planner.Waves(), len(refs))
			persist = func() error { return writeWaveManifest(s.wavesPath(l.tenant, l.cluster), s.cfg.WaveSize, refs) }
		} else {
			if err := s.cacheImages(tab, stats); err != nil {
				return err
			}
			wf, err := chimera.Compose(l.cat, chimera.Request{LFNs: []string{outLFN}})
			if err != nil {
				return err
			}
			// The per-request seed derives from the cluster name (not a
			// shared stream), so concurrent requests stay individually
			// deterministic.
			pcfg := s.planConfig()
			pcfg.Rand = rand.New(rand.NewSource(l.seed))
			plan, err := pegasus.Map(wf, pcfg)
			if err != nil {
				return err
			}
			s.primePlan(plan, stats)
			l.next = oneWave(plan.Concrete)
			begin = fmt.Sprintf("cluster=%s seed=%d nodes=%d", l.cluster, l.seed, plan.Concrete.Len())
			persist = func() error { return dagman.WriteDAGFile(s.dagPath(l.tenant, l.cluster), plan.Concrete, nil) }
		}

		// Crash safety: persist the plan and the VDL it came from (so a
		// resume reloads the exact decomposition without replanning — site
		// selection is seeded, and replanning against a healthier RLS would
		// prune differently), then open the write-ahead journal DAGMan
		// records every transition in.
		if s.cfg.JournalDir == "" {
			return nil
		}
		if err := os.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(s.vdlPath(l.tenant, l.cluster), []byte(vdlText), 0o644); err != nil {
			return err
		}
		if err := persist(); err != nil {
			return err
		}
		if l.jw, err = journal.CreateScoped(s.journalPath(l.tenant, l.cluster), wfScope(l.tenant, l.cluster)); err != nil {
			return err
		}
		// The begin marker goes straight to the writer so a configured crash
		// budget counts DAGMan events only.
		return l.jw.Append(journal.Record{Kind: journal.KindBegin, Detail: begin})
	}
}

// prepareResume reloads a journaled workflow's leg from the artifacts its
// earlier legs persisted: the VDL behind its derivations, the wave manifest
// (survey-scale runs) or the exact concrete DAG (classic runs, never
// replanned), and the scoped journal, whose intact prefix — a torn final
// line is the crash signature and is discarded by CRC check — restores
// every completed node. A finished run whose output is still registered
// short-circuits.
func (s *Service) prepareResume(l *leg, stats *RunStats) error {
	tenant, cluster := l.tenant, l.cluster
	vdlText, err := os.ReadFile(s.vdlPath(tenant, cluster))
	if err != nil {
		return fmt.Errorf("webservice: resume %s: %w", cluster, err)
	}
	if l.cat, err = vdl.Parse(string(vdlText)); err != nil {
		return fmt.Errorf("webservice: resume %s: saved VDL invalid: %w", cluster, err)
	}
	// buildVDL writes one galMorph derivation per galaxy.
	for _, name := range l.cat.Derivations() {
		if dv, _ := l.cat.Derivation(name); dv.TR == "galMorph" {
			stats.Galaxies++
		}
	}
	if _, err := os.Stat(s.wavesPath(tenant, cluster)); err == nil {
		// A wave manifest marks a survey-scale run: it replays the recorded
		// decomposition, whatever the service's current WaveSize.
		waveSize, refs, err := readWaveManifest(s.wavesPath(tenant, cluster))
		if err != nil {
			return fmt.Errorf("webservice: resume %s: %w", cluster, err)
		}
		planner, err := pegasus.NewWavePlanner(waveSourceFor(refs, cluster), s.planConfig(), waveSize, l.seed)
		if err != nil {
			return err
		}
		l.next = s.waveNext(planner, refs, l.labels, stats)
	} else {
		g, _, err := dagman.ReadDAGFile(s.dagPath(tenant, cluster))
		if err != nil {
			return fmt.Errorf("webservice: resume %s: %w", cluster, err)
		}
		l.next = oneWave(g)
	}
	jw, recs, err := journal.OpenAppendScoped(s.journalPath(tenant, cluster), wfScope(tenant, cluster))
	if err != nil {
		return fmt.Errorf("webservice: resume %s: %w", cluster, err)
	}
	l.jw = jw
	if _, ended := journal.Ended(recs); ended && s.cfg.RLS.Exists(outputLFN(cluster)) {
		l.reused = true
		return nil
	}
	l.completed = journal.CompletedNodes(recs)
	return nil
}

// execute runs a prepared leg: DAGMan releases the leg's graphs one after
// another on the Condor pools (a classic leg is a single wave), resubmitting
// each wave's rescue DAG when configured, and the journal records every
// transition. Progress totals grow as graphs are released.
func (s *Service) execute(ctx context.Context, lease *fabric.Lease, l *leg, stats *RunStats,
	onProgress func(done, total int)) (string, error) {
	opts := dagman.Options{
		MaxRetries:    s.cfg.MaxRetries,
		ClusterSize:   s.cfg.ClusterSize,
		MaxInFlightFn: lease.JobAllowance,
		Completed:     l.completed,
		Check:         abortCheck(ctx, lease),
	}
	if s.cfg.RetryPolicy != nil {
		opts.RetryPolicy = s.cfg.RetryPolicy.DAGManPolicy()
	}
	if l.jw != nil {
		opts.Journal = journal.Sink(l.jw)
		if s.cfg.CrashAfterEvents > 0 {
			opts.Journal = &journal.CrashSink{Sink: l.jw, After: s.cfg.CrashAfterEvents}
		}
		if s.cfg.WrapJournal != nil {
			opts.Journal = s.cfg.WrapJournal(l.tenant, l.cluster, opts.Journal)
		}
	}
	done, total := 0, 0
	progress := func() {
		if onProgress != nil {
			onProgress(done, total)
		}
	}
	progress()
	opts.Monitor = func(e dagman.Event) {
		switch e.Kind {
		case dagman.EventRetried:
			stats.Retries++
		case dagman.EventCompleted, dagman.EventRestored:
			done++
			progress()
		}
	}
	next := func(w int) (*dag.Graph, error) {
		g, err := l.next(w)
		if g != nil {
			total += g.Len()
			progress()
		}
		return g, err
	}

	// runMu serializes what the Run side effects share — the per-request
	// stats and the failure-injection rng — because with Workers > 1 those
	// bodies execute concurrently on the worker pool.
	var runMu sync.Mutex
	runner := s.runner(l.cat, rand.New(rand.NewSource(l.seed+1)), stats, &runMu, l.labels)
	ws, err := dagman.ExecuteWaves(next, runner, s.simFactory(lease, l.tenant, l.cluster), opts, s.cfg.RescueRounds)
	if ws != nil {
		stats.Waves = ws.Waves
		stats.MaxWaveNodes = ws.MaxWaveNodes
		stats.Makespan = ws.Makespan
		stats.RestoredNodes = ws.Restored
		stats.ScheduleEvents = ws.ScheduleEvents
		stats.ClusteredTasks = ws.ClusteredTasks
		stats.ClusteredNodes = ws.ClusteredNodes
	}
	if err != nil {
		var we *dagman.WaveError
		if !errors.As(err, &we) {
			return "", err
		}
		if l.jw != nil {
			// Serialize the rescue DAG — the classic on-disk artifact naming
			// exactly the nodes a resubmission must run.
			if rerr := dagman.WriteRescueFile(s.rescuePath(l.tenant, l.cluster), we.Graph, we.Report); rerr != nil {
				return "", rerr
			}
		}
		return "", fmt.Errorf("webservice: workflow failed: %d failed, %d unrun", we.Report.Failed, we.Report.Unrun)
	}
	outLFN := outputLFN(l.cluster)
	if !s.cfg.RLS.Exists(outLFN) {
		return "", fmt.Errorf("webservice: workflow completed but %q not registered", outLFN)
	}
	if err := l.jw.Append(journal.Record{Kind: journal.KindEnd, Detail: "output=" + outLFN}); err != nil {
		return "", err
	}
	return outLFN, nil
}

// primePlan folds one plan's accounting into the request's stats and seeds
// the read-through replica cache with its snapshot, so runner-side lookups
// (retry rotation, recovery) cost no extra RLS round trips.
func (s *Service) primePlan(plan *pegasus.Plan, stats *RunStats) {
	s.replicas.Prime(plan.Replicas)
	ps := plan.Stats()
	stats.ComputeJobs += ps.ComputeJobs
	stats.PrunedJobs += ps.PrunedJobs
	stats.TransferNodes += ps.TransferNodes
	stats.RegisterNodes += ps.RegisterNodes
	stats.RLSRoundTrips += plan.RLSRoundTrips
	stats.PlannedBytesMoved += plan.EstBytesMoved
}

// oneWave is the graph source of a classic leg: its one planned graph, then
// the end of the sequence.
func oneWave(g *dag.Graph) func(int) (*dag.Graph, error) {
	return func(w int) (*dag.Graph, error) {
		if w > 0 {
			return nil, nil
		}
		return g, nil
	}
}
