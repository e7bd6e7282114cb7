// Package webservice implements the Galaxy Morphology compute service of the
// paper's §4.3: Pegasus exposed as an asynchronous web service. A request
// carries a VOTable of cluster galaxies (positions, redshifts, image URLs);
// the service
//
//  1. assigns a unique request identifier and immediately returns a status
//     URL the client polls (§4.3.1 item 2: asynchronous interface);
//  2. short-circuits if the output VOTable is already registered in the RLS
//     (Figure 6 step 2);
//  3. downloads every galaxy image into a local cache and registers it in
//     the RLS — so later requests skip the slow SIA fetch and use GridFTP
//     (§4.3.1 item 3: data caching);
//  4. transforms the VOTable into Chimera VDL — a transformation definition
//     plus one derivation per galaxy and a concatenating derivation (the
//     XSLT-stylesheet step of §4.3);
//  5. has Chimera compose the abstract workflow and Pegasus reduce and
//     concretize it;
//  6. executes the concrete workflow with DAGMan over simulated Condor
//     pools, computing the three morphology parameters per galaxy, with a
//     per-galaxy validity flag so bad images do not take down the whole
//     experiment (§4.3.1 item 4: fault tolerance);
//  7. concatenates results into the output VOTable, stores it, registers it
//     in the RLS, and publishes its URL on the status page.
package webservice

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/fits"
	"repro/internal/gridftp"
	"repro/internal/httpclient"
	"repro/internal/journal"
	"repro/internal/morphology"
	"repro/internal/myproxy"
	"repro/internal/pegasus"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/tcat"
	"repro/internal/vdcache"
	"repro/internal/vdl"
	"repro/internal/votable"
	"repro/internal/workpool"
)

// State is a request's lifecycle state.
type State string

// Request states published on the status URL.
const (
	// StateQueued means the request was admitted but is waiting for the
	// fabric's fair-share scheduler to grant it a workflow slot.
	StateQueued State = "queued"
	// StatePreempted means the fabric revoked the workflow's slot for a
	// higher-priority class: the run checkpoint-stopped at a journal event
	// boundary and is back in the queue, resuming from its journal when a
	// slot is granted again.
	StatePreempted State = "preempted"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
)

// RunStats aggregates what one request cost — the quantities §5 of the paper
// reports for its campaign.
type RunStats struct {
	Galaxies      int
	ComputeJobs   int
	PrunedJobs    int
	TransferNodes int
	RegisterNodes int
	ImagesFetched int           // downloaded via SIA this request (cache misses)
	ImagesCached  int           // already in the GridFTP cache
	SIARequests   int           // HTTP requests made to image services
	SIABytes      int64         // bytes received from image services
	SIAModelTime  time.Duration // modelled wide-area cost of those requests
	FilesStaged   int           // GridFTP transfers executed
	BytesStaged   int64         // GridFTP bytes moved
	InvalidRows   int           // galaxies flagged invalid by the validity flag
	Retries       int           // DAGMan node re-submissions after failures
	Failovers     int           // transfers redirected to an alternate replica
	MemoHits      int           // galMorph results served from the virtual-data cache
	MemoMisses    int           // galMorph results measured and cached
	Makespan      time.Duration // model execution time of the concrete DAG
	ReusedOutput  bool          // whole result served from the RLS

	// Integrity and recovery accounting.
	ChecksumFailures int // replica verifications that failed
	Quarantined      int // replicas pulled from RLS circulation
	Rederived        int // files reproduced from Chimera provenance
	RestoredNodes    int // nodes recovered as done from a prior journal

	// Planner and scheduler throughput accounting.
	RLSRoundTrips     int64 // RLS read round trips planning cost (O(1) via BulkLookup)
	PlannedBytesMoved int64 // planner's link-cost estimate of bytes its transfer nodes move
	ScheduleEvents    int   // Condor tasks submitted (a clustered batch is one event)
	ClusteredTasks    int   // multi-node batches submitted
	ClusteredNodes    int   // inner jobs carried by those batches

	// Wave execution accounting (Config.WaveSize > 0).
	Waves        int // concrete waves planned and released
	MaxWaveNodes int // largest single wave — the bounded peak DAG footprint
	// ImagesEvicted counts staged cutouts deleted from the cache store
	// once their wave's outputs were registered; PeakStagedImages is the
	// high-water mark of live staged cutouts — bounded by the wave size
	// instead of the whole survey when eviction is on.
	ImagesEvicted    int
	PeakStagedImages int

	// Preemptions counts how many times the fabric revoked this request's
	// slot mid-run (each one checkpoint-stopped, requeued and resumed).
	Preemptions int
}

// Wide-area SIA cost model (2003-era numbers): each HTTP request pays a
// round-trip latency; payload bytes flow at the archive's outbound rate.
// This is the per-galaxy overhead the paper calls "the major bottleneck in
// the application's operation" (§4.2).
const (
	siaRequestLatency = 300 * time.Millisecond
	siaBandwidthBps   = 1e6 // 1 MB/s
)

// Status is what the polling URL returns. JobsDone/JobsTotal stream the
// workflow's progress (DAGMan monitoring, Figure 2 step 15) so the portal
// can show intermediate status messages, as §4.3.1 item 2 intends.
type Status struct {
	ID        string
	Cluster   string
	Tenant    string
	Priority  int // fabric scheduling class the request was admitted at
	State     State
	Message   string
	ResultLFN string
	JobsDone  int
	JobsTotal int
	Stats     RunStats
}

// Config wires the service to its Grid substrate.
type Config struct {
	RLS     *rls.RLS
	TC      *tcat.Catalog
	GridFTP *gridftp.Service
	// Pools is the Condor pool set. When Fabric is nil the service builds a
	// private permissive fabric over these pools (the single-tenant
	// prototype behaviour); when Fabric is set, Pools may be left empty and
	// the fabric's shared pool set governs.
	Pools []condor.Pool
	// Fabric, when set, is the shared multi-tenant execution fabric every
	// workflow is admitted to and scheduled on: many services (or many
	// tenants of one service) multiplex over its pools under admission
	// control, quotas and fair-share ordering.
	Fabric *fabric.Fabric

	// CacheSite is where downloaded images and the final tables live
	// (the web server's local storage; "isi" in the paper's deployment).
	CacheSite string
	// HTTPClient fetches galaxy images from their acref URLs.
	HTTPClient *http.Client
	// Seed drives site selection and fault injection deterministically.
	Seed int64
	// FailureRate injects transient per-job failures (ablation A4).
	FailureRate float64
	// MaxRetries is DAGMan's retry budget per job.
	MaxRetries int
	// RescueRounds resubmits the rescue DAG up to this many times after a
	// permanent workflow failure (DAGMan's rescue-file recovery).
	RescueRounds int
	// StrictFaults, when set, turns bad-image measurements into job
	// failures instead of validity-flagged rows (the rejected design of
	// §4.3.1 item 4, for the ablation).
	StrictFaults bool
	// Proxy, when set, supplies the Grid credential each computation runs
	// under; requests are refused when no valid proxy is available
	// (§4.3.1 item 5 — the MyProxy integration the paper plans; leaving it
	// nil reproduces the prototype's server-stored-credential behaviour).
	Proxy func() (myproxy.Proxy, error)
	// Now is the clock proxy-credential validity is checked against at
	// submission. The default is the wall clock — live deployments admit
	// a request only while its credential is valid — but tests and
	// resumable runs inject a fixed clock so admission, and therefore
	// the output bytes, cannot depend on when a run happens to execute.
	// Resume never re-validates: the original submission's admission
	// decision governs the whole run, however much wall time passed
	// before the journal is replayed.
	Now func() time.Time
	// BatchFetch pulls galaxy images through the batched cutout interface
	// ("this could be sped up tremendously if one could query for all
	// images at once", §4.2) when the acrefs support it, instead of one
	// HTTP request per galaxy.
	BatchFetch bool
	// Breakers, when set, tracks per-(site, operation) circuit state:
	// transfer nodes skip replicas at sites whose circuit is open and record
	// every outcome. Nil disables circuit breaking at zero cost.
	Breakers *resilience.Registry
	// RetryPolicy, when set, replaces DAGMan's fixed MaxRetries count with
	// the policy's budget- and error-aware decision.
	RetryPolicy *resilience.Policy
	// MirrorSite, when non-empty, replicates every cached image to a second
	// site and registers both PFNs in the RLS, giving transfer nodes a
	// replica to fail over to when the primary cache site is down.
	MirrorSite string
	// Faults, when set, is installed on every Condor simulator the service
	// creates, making job execution a fault point (op "condor.exec").
	Faults *faults.Injector
	// FaultsFor, when set, supplies a per-workflow fault injector (nil
	// return falls back to Faults). A shared Injector draws probability
	// rules from one rng, so concurrent workflows would perturb each
	// other's fault schedules; per-workflow injectors keep every tenant's
	// chaos deterministic however workflows interleave on the fabric.
	FaultsFor func(tenant, cluster string) *faults.Injector
	// Workers bounds the side-effect concurrency of one request: the Condor
	// simulator's leaf-job Run bodies and the image-staging fetches fan out
	// to at most this many goroutines. <= 1 (the default) is fully serial;
	// any setting leaves the model clock, the schedule, and the result
	// VOTable byte-identical — only wall-clock time changes.
	Workers int
	// JournalDir, when non-empty, makes every run crash-safe: the planned
	// DAG, the generated VDL, and a write-ahead journal of every DAGMan
	// state transition are persisted under this directory, and Resume can
	// reopen a killed run and finish only the unfinished nodes.
	JournalDir string
	// CrashAfterEvents, when > 0, simulates kill -9 after that many journal
	// appends (the record at the crash point is never written) — the
	// deterministic kill switch of the kill-and-resume campaign.
	CrashAfterEvents int
	// WrapJournal, when set, wraps each workflow leg's journal sink (applied
	// after the crash switch when both are configured). Campaign tests
	// interpose event-counting triggers here — e.g. admitting a
	// higher-priority workflow after exactly k appends, so a preemption
	// lands at a chosen journal-event boundary deterministically.
	WrapJournal func(tenant, cluster string, sink journal.Sink) journal.Sink
	// Selection overrides Pegasus's site-selection policy. The zero value is
	// pegasus.SelectRandom (the paper's behaviour); pegasus.SelectLocality
	// maps each job to the site whose replicas make its inputs cheapest to
	// reach, so cutouts compute where their data already lives.
	Selection pegasus.SiteSelection
	// ClusterSize enables horizontal job clustering: up to this many ready
	// nodes with the same cluster key submit as one Condor task, amortizing
	// per-task scheduling overhead. <= 1 keeps one task per node.
	ClusterSize int
	// WaveSize, when > 0, plans and executes each request as a sequence of
	// bounded waves of this many galaxies instead of one monolithic concrete
	// DAG: images are staged, planned and computed wave by wave, with the
	// concatenating job pinned to a deterministic collector site the waves
	// deliver their results to. Peak planner/scheduler memory is bounded by
	// the wave, not the request, and the output VOTable is byte-identical to
	// the classic path (fault injection off — the failure rng is draw-order
	// sensitive). 0 keeps the legacy whole-request plan.
	WaveSize int
	// SchedOverhead models the serialized per-task submission cost of the
	// 2003 Condor-G/GRAM stack on every simulator the service creates
	// (zero = instant-start, the legacy model). Clustering amortizes it.
	SchedOverhead time.Duration
	// TransferSlots, when > 0, gives every pool that many dedicated
	// data-movement slots, so stage-ins overlap computation instead of
	// competing for CPU slots.
	TransferSlots int
	// EnablePprof mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/ on the service handler.
	EnablePprof bool
}

// batchFetchSize bounds ids per batch request (URL-length safety).
const batchFetchSize = 64

// Service is the compute service. Create with New.
type Service struct {
	cfg Config

	// memo is the virtual-data cache of per-galaxy morphology measurements,
	// keyed by (image content, measurement parameters) and shared across
	// requests. Nil (always-miss) under StrictFaults, which demands faithful
	// re-execution of failing measurements.
	memo *vdcache.Cache[memoEntry]

	// replicas is the read-through replica cache in front of the RLS: the
	// runner's source rotation and recovery paths resolve LFNs through it,
	// and every path that registers or quarantines a replica invalidates the
	// LFN so a stale entry can never resurrect a quarantined copy.
	replicas *rls.Cache

	mu       sync.Mutex
	requests map[string]*Status
	cancels  map[string]context.CancelFunc
	nextID   int
}

// workers returns the configured side-effect concurrency bound (minimum 1).
func (s *Service) workers() int {
	if s.cfg.Workers < 1 {
		return 1
	}
	return s.cfg.Workers
}

// injectorFor resolves one workflow's fault injector: the per-workflow
// hook when configured, else the shared service-wide injector.
func (s *Service) injectorFor(tenant, cluster string) *faults.Injector {
	if s.cfg.FaultsFor != nil {
		if inj := s.cfg.FaultsFor(tenant, cluster); inj != nil {
			return inj
		}
	}
	return s.cfg.Faults
}

// simFactory builds one workflow's simulator factory: every scheduler is
// stamped by the fabric from the shared pool set, under the service's
// execution model (fault injection, side-effect fan-out, dedicated
// transfer lanes, serialized submission overhead). Rescue rounds call the
// factory again, reusing the same lease — a rescue is still the same
// workflow occupying the same fabric slot.
func (s *Service) simFactory(lease *fabric.Lease, tenant, cluster string) func() (*condor.Simulator, error) {
	inj := s.injectorFor(tenant, cluster)
	return func() (*condor.Simulator, error) {
		sim, err := lease.NewSimulator(fabric.SimOptions{
			Workers:        s.workers(),
			SubmitOverhead: s.cfg.SchedOverhead,
			TransferSlots:  s.cfg.TransferSlots,
			Injector:       inj,
		})
		if err != nil {
			return nil, err
		}
		return sim, nil
	}
}

// registerReplica publishes one replica and invalidates the read-through
// cache so the next lookup sees the fresh catalog state.
func (s *Service) registerReplica(lfn string, pfn rls.PFN) error {
	if err := s.cfg.RLS.Register(lfn, pfn); err != nil {
		return err
	}
	s.replicas.Invalidate(lfn)
	return nil
}

// Errors returned by the service.
var (
	ErrBadTable   = errors.New("webservice: input table must have id, acref columns")
	ErrNoGalaxies = errors.New("webservice: input table has no rows")
	ErrNotFound   = errors.New("webservice: unknown request id")
	// ErrPreempted marks a workflow leg that checkpoint-stopped because the
	// fabric revoked its lease. It is not a failure: the workflow requeues
	// and resumes from its journal when a slot is granted again.
	ErrPreempted = errors.New("webservice: preempted by the fabric scheduler")
)

// New validates the configuration and builds a service.
func New(cfg Config) (*Service, error) {
	if cfg.RLS == nil || cfg.TC == nil || cfg.GridFTP == nil {
		return nil, errors.New("webservice: RLS, TC and GridFTP are required")
	}
	if cfg.Fabric == nil {
		if len(cfg.Pools) == 0 {
			return nil, errors.New("webservice: Pools (or a Fabric) are required")
		}
		// Private permissive fabric: no quotas, no queue bounds — exactly
		// the single-tenant prototype, so every admission grants instantly.
		f, err := fabric.New(fabric.Config{Pools: cfg.Pools})
		if err != nil {
			return nil, err
		}
		cfg.Fabric = f
	}
	if len(cfg.Pools) == 0 {
		cfg.Pools = cfg.Fabric.Pools()
	}
	if cfg.CacheSite == "" {
		cfg.CacheSite = "isi"
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = httpclient.Shared()
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.Now == nil {
		//nvolint:ignore noclock credential admission is the service's one wall-clock boundary; replay harnesses inject Config.Now
		cfg.Now = time.Now
	}
	svc := &Service{
		cfg:      cfg,
		replicas: rls.NewCache(cfg.RLS),
		requests: map[string]*Status{},
		cancels:  map[string]context.CancelFunc{},
	}
	if !cfg.StrictFaults {
		svc.memo = vdcache.New[memoEntry]()
	}
	return svc, nil
}

// DefaultTenant is the accounting principal of requests that carry no
// tenant — the single-tenant prototype's implicit user.
const DefaultTenant = "default"

// RequestOptions identify the principal a workflow is admitted, scheduled
// and accounted as on the fabric.
type RequestOptions struct {
	// Tenant names the accounting principal ("" = DefaultTenant).
	Tenant string
	// Priority is the fabric scheduling class (higher runs first).
	Priority int
}

func (o RequestOptions) tenant() string {
	if o.Tenant == "" {
		return DefaultTenant
	}
	return o.Tenant
}

// Submit registers a new request and starts the computation in the
// background, returning the request ID the status URL embeds. The request
// can be stopped mid-flight with Cancel, which aborts the workflow at the
// next scheduler step and journals a clean abort record.
func (s *Service) Submit(tab *votable.Table, cluster string) (string, error) {
	return s.SubmitFor(tab, cluster, RequestOptions{})
}

// SubmitFor is Submit on behalf of a tenant. The fabric's admission
// decision happens here, synchronously: a granted or queued request
// returns an ID to poll; an over-quota request is shed with a
// fabric.ShedError (mapped to 429/503 + Retry-After by the HTTP layer)
// and never occupies service state. Canceling a queued request dequeues
// it before it ever runs.
func (s *Service) SubmitFor(tab *votable.Table, cluster string, opt RequestOptions) (string, error) {
	if err := validateInput(tab); err != nil {
		return "", err
	}
	ticket, err := s.cfg.Fabric.Admit(opt.tenant(), opt.Priority)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("req-%06d", s.nextID)
	st := &Status{ID: id, Cluster: cluster, Tenant: opt.tenant(), Priority: opt.Priority,
		State: StateQueued, Message: "queued for fair-share scheduling"}
	if ticket.Granted() {
		st.State = StateRunning
		st.Message = "accepted"
	}
	s.requests[id] = st
	s.cancels[id] = cancel
	s.mu.Unlock()

	go s.background(ctx, cancel, st, ticket, opt, "queued", "running", s.prepareFresh(tab))
	return id, nil
}

// background is the body of a request Submit or Requeue put on the fabric:
// it waits for the fair-share grant (a cancel while waiting fails the
// request with a "canceled while <phase>" message), runs the workflow under
// the preemption protocol while mirroring its state flips and progress onto
// st, and publishes the final status. running is the message a granted
// request shows while its first leg runs.
func (s *Service) background(ctx context.Context, cancel context.CancelFunc, st *Status,
	ticket *fabric.Ticket, opt RequestOptions, phase, running string, first preparer) {
	lease, werr := ticket.Wait(ctx)
	if werr != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.cancels, st.ID)
		cancel()
		st.State = StateFailed
		st.Message = "canceled while " + phase + ": " + werr.Error()
		return
	}
	s.mu.Lock()
	if st.State == StateQueued {
		st.State = StateRunning
		st.Message = running
	}
	s.mu.Unlock()
	onProgress := func(done, total int) {
		s.mu.Lock()
		st.JobsDone = done
		st.JobsTotal = total
		s.mu.Unlock()
	}
	out, stats, err := s.preemptible(ctx, lease, st.Cluster, opt, onProgress, s.publishState(st), first)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, st.ID)
	cancel()
	st.Stats = stats
	if err != nil {
		st.State = StateFailed
		st.Message = err.Error()
		return
	}
	st.State = StateCompleted
	st.Message = "job completed"
	st.ResultLFN = out
}

// publishState mirrors a preemption cycle's state flips onto a request's
// polled status.
func (s *Service) publishState(st *Status) func(State) {
	return func(state State) {
		s.mu.Lock()
		defer s.mu.Unlock()
		st.State = state
		switch state {
		case StatePreempted:
			st.Message = "preempted: checkpoint-stopped, requeued for fair-share scheduling"
		case StateRunning:
			st.Message = "resumed after preemption"
		}
	}
}

// Reopen builds a fresh service on the same Grid substrate (RLS, catalogs,
// GridFTP stores, journal directory) with the crash switch disarmed — the
// restarted process of a kill-and-resume drill. Request state and the
// virtual-data memo start empty, exactly as after a real process death.
func (s *Service) Reopen() (*Service, error) {
	cfg := s.cfg
	cfg.CrashAfterEvents = 0
	return New(cfg)
}

// Cancel aborts a running request. The workflow stops at the next scheduler
// step, appends an "aborted" record to its journal (when journaling), and the
// request transitions to failed with a cancellation message. Canceling a
// request that already finished is a no-op; an unknown ID errors.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.requests[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if cancel, ok := s.cancels[id]; ok {
		cancel()
	}
	return nil
}

// Requeue re-admits a failed journaled request — canceled, crashed or
// shed mid-flight — under its original tenant and priority class, and
// resumes it from its scoped journal in the background (the /cancel
// counterpart: where Cancel stops a request, Requeue puts one back).
// Fabric-revoked requests requeue themselves; this is the operator path
// for everything else. Admission is not bypassed: an over-quota requeue
// sheds like any fresh submission.
func (s *Service) Requeue(id string) error {
	if s.cfg.JournalDir == "" {
		return errors.New("webservice: requeue requires JournalDir")
	}
	s.mu.Lock()
	st, ok := s.requests[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if st.State != StateFailed {
		s.mu.Unlock()
		return fmt.Errorf("webservice: request %q is %s; only failed requests requeue", id, st.State)
	}
	opt := RequestOptions{Tenant: st.Tenant, Priority: st.Priority}
	s.mu.Unlock()

	ticket, err := s.cfg.Fabric.Admit(opt.tenant(), opt.Priority)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	st.State = StateQueued
	st.Message = "requeued for fair-share scheduling"
	if ticket.Granted() {
		st.State = StateRunning
		st.Message = "requeued: resuming from journal"
	}
	s.cancels[id] = cancel
	s.mu.Unlock()

	go s.background(ctx, cancel, st, ticket, opt, "requeued", "requeued: resuming from journal", s.prepareResume)
	return nil
}

// Pools returns the names of the Condor pools the service submits to,
// in configuration order.
func (s *Service) Pools() []string {
	out := make([]string, len(s.cfg.Pools))
	for i, p := range s.cfg.Pools {
		out[i] = p.Name
	}
	return out
}

// Fabric returns the execution fabric the service admits and schedules
// workflows on.
func (s *Service) Fabric() *fabric.Fabric { return s.cfg.Fabric }

// Fleet returns the fabric's fleet-wide and per-tenant admission,
// shedding and fair-share counters.
func (s *Service) Fleet() fabric.FleetSnapshot { return s.cfg.Fabric.Snapshot() }

// Status returns a snapshot of a request's state.
func (s *Service) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.requests[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return *st, nil
}

func validateInput(tab *votable.Table) error {
	if tab == nil || tab.ColumnIndex("id") < 0 || tab.ColumnIndex("acref") < 0 {
		return ErrBadTable
	}
	if tab.NumRows() == 0 {
		return ErrNoGalaxies
	}
	return nil
}

// outputLFN names the result table after the cluster, as §4.3 describes.
func outputLFN(cluster string) string { return cluster + ".vot" }

// requestSeed derives a deterministic, order-independent seed for one
// cluster's computation.
func (s *Service) requestSeed(cluster string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(cluster))
	return s.cfg.Seed ^ int64(h.Sum64())
}

// Compute runs the full §4.3 pipeline synchronously and returns the output
// LFN. The portal normally reaches it through Submit/Status polling.
func (s *Service) Compute(tab *votable.Table, cluster string) (string, RunStats, error) {
	return s.ComputeFor(context.Background(), tab, cluster, RequestOptions{}, nil)
}

// wfScope names one workflow for journal-record stamping: the scope every
// record of the run carries and a resume must present.
func wfScope(tenant, cluster string) string { return tenant + "/" + cluster }

// wfBase is the on-disk artifact basename of one workflow. The default
// tenant keeps the historic bare-cluster names, so journals written before
// multi-tenancy resume unchanged; other tenants get namespaced files so
// two tenants computing the same cluster name cannot collide on disk.
func wfBase(tenant, cluster string) string {
	if tenant == DefaultTenant {
		return cluster
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, tenant)
	return safe + "__" + cluster
}

// Per-workflow recovery artifacts under JournalDir.
func (s *Service) journalPath(tenant, cluster string) string {
	return filepath.Join(s.cfg.JournalDir, wfBase(tenant, cluster)+".journal")
}
func (s *Service) dagPath(tenant, cluster string) string {
	return filepath.Join(s.cfg.JournalDir, wfBase(tenant, cluster)+".dag")
}
func (s *Service) vdlPath(tenant, cluster string) string {
	return filepath.Join(s.cfg.JournalDir, wfBase(tenant, cluster)+".vdl")
}
func (s *Service) rescuePath(tenant, cluster string) string {
	return filepath.Join(s.cfg.JournalDir, wfBase(tenant, cluster)+".rescue.dag")
}
func (s *Service) wavesPath(tenant, cluster string) string {
	return filepath.Join(s.cfg.JournalDir, wfBase(tenant, cluster)+".waves")
}

// ComputeFor runs the full §4.3 pipeline on behalf of a tenant, under a
// cancellation context and an optional workflow-progress callback
// (done/total concrete nodes, fed from DAGMan's monitoring events). The
// workflow is admitted to the fabric (an over-quota admission returns the
// fabric.ShedError without queueing), waits under ctx for its fair-share
// slot, and executes under the granted lease. Canceling ctx while queued
// dequeues the workflow before it runs; canceling it mid-run aborts the
// workflow at the next scheduler step, journaling a clean "aborted" record
// so a later Resume picks up exactly where the run stopped.
func (s *Service) ComputeFor(ctx context.Context, tab *votable.Table, cluster string,
	opt RequestOptions, onProgress func(done, total int)) (string, RunStats, error) {
	if err := validateInput(tab); err != nil {
		return "", RunStats{}, err
	}
	return s.admitAndRun(ctx, cluster, opt, onProgress, s.prepareFresh(tab))
}

// admitAndRun is the synchronous request path: admit the workflow to the
// fabric, wait under ctx for its slot, and run it under the preemption
// protocol, first leg prepared by first.
func (s *Service) admitAndRun(ctx context.Context, cluster string, opt RequestOptions,
	onProgress func(done, total int), first preparer) (string, RunStats, error) {
	ticket, err := s.cfg.Fabric.Admit(opt.tenant(), opt.Priority)
	if err != nil {
		return "", RunStats{}, err
	}
	lease, err := ticket.Wait(ctx)
	if err != nil {
		return "", RunStats{}, fmt.Errorf("webservice: canceled while queued: %w", err)
	}
	return s.preemptible(ctx, lease, cluster, opt, onProgress, nil, first)
}

// preemptible runs a workflow's legs under the fabric's preemption
// protocol: the first leg is prepared by first; when the scheduler revokes
// the lease mid-run the leg checkpoint-stops at the next journal event
// boundary (ErrPreempted), and the loop answers with lease.Preempted —
// releasing the slot, charging the partial model time, and re-entering the
// queue at the original priority class — waits for a fresh grant, and runs
// a leg resumed from the scoped journal. It repeats until the workflow
// finishes, fails for a real reason, or is canceled while requeued. onState
// (optional) observes the preempted/running flips of each cycle.
func (s *Service) preemptible(ctx context.Context, lease *fabric.Lease, cluster string,
	opt RequestOptions, onProgress func(done, total int), onState func(State),
	first preparer) (string, RunStats, error) {
	out, stats, err := s.runLeg(ctx, lease, cluster, opt, onProgress, first)
	preemptions := 0
	for errors.Is(err, ErrPreempted) {
		ticket := lease.Preempted(stats.Makespan)
		if ticket == nil {
			break // lease already released: surface the leg's error
		}
		preemptions++
		if onState != nil {
			onState(StatePreempted)
		}
		var werr error
		lease, werr = ticket.Wait(ctx)
		if werr != nil {
			stats.Preemptions = preemptions
			return "", stats, fmt.Errorf("webservice: canceled while requeued after preemption: %w", werr)
		}
		if onState != nil {
			onState(StateRunning)
		}
		out, stats, err = s.runLeg(ctx, lease, cluster, opt, onProgress, s.prepareResume)
	}
	stats.Preemptions = preemptions
	return out, stats, err
}

// abortCheck is the DAGMan abort poll of every fabric-backed leg: a dead
// context aborts the workflow (cancellation), a revoked lease
// checkpoint-stops it at the next journal event boundary (preemption).
func abortCheck(ctx context.Context, lease *fabric.Lease) func() error {
	return func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lease.IsRevoked() {
			return ErrPreempted
		}
		return nil
	}
}

// planConfig is the Pegasus configuration every plan of this service uses —
// the classic whole-request Map and each wave of the survey-scale path draw
// from the same substrate wiring (Rand is set per call site).
func (s *Service) planConfig() pegasus.Config {
	return pegasus.Config{
		RLS:             s.cfg.RLS,
		TC:              s.cfg.TC,
		OutputSite:      s.cfg.CacheSite,
		RegisterOutputs: true,
		Selection:       s.cfg.Selection,
		Net:             s.cfg.GridFTP.Network(),
		SizeOf:          func(lfn string) int64 { return s.cfg.GridFTP.Store(s.cfg.CacheSite).Size(lfn) },
	}
}

// Resume reopens a journaled run that died mid-flight — a killed web service,
// a machine crash — and finishes it: the persisted plan is reloaded (never
// replanned), the journal's intact prefix restores every completed node,
// and only the unfinished remainder executes. The output VOTable is
// byte-identical to what the uninterrupted run would have produced.
func (s *Service) Resume(cluster string) (string, RunStats, error) {
	return s.ResumeFor(context.Background(), cluster, RequestOptions{}, nil)
}

// ResumeFor is Resume on behalf of a tenant, under a cancellation context
// and an optional progress callback (restored nodes count as already done).
// A resumed workflow consumes fabric capacity like a fresh one, so it passes
// admission and fair-share scheduling first; its journal must carry the
// resuming workflow's scope — resuming one tenant's journal as another
// fails with journal.ErrScope instead of bleeding state across workflows.
func (s *Service) ResumeFor(ctx context.Context, cluster string, opt RequestOptions,
	onProgress func(done, total int)) (string, RunStats, error) {
	if s.cfg.JournalDir == "" {
		return "", RunStats{}, errors.New("webservice: resume requires JournalDir")
	}
	return s.admitAndRun(ctx, cluster, opt, onProgress, s.prepareResume)
}

// ResultTable fetches a completed result table from the cache store.
func (s *Service) ResultTable(lfn string) (*votable.Table, error) {
	data, err := s.cfg.GridFTP.Store(s.cfg.CacheSite).Get(lfn)
	if err != nil {
		return nil, err
	}
	return votable.ReadTable(bytes.NewReader(data))
}

// cacheImages downloads every galaxy image not yet present in the cache and
// registers it in the RLS, one SIA request per galaxy (the paper's
// bottleneck) or via the batched cutout interface when configured. With
// Workers > 1 the HTTP fetches fan out to the worker pool; responses are
// ingested — accounted, split, stored, registered — strictly in request
// order, so stats and replica registrations stay deterministic.
func (s *Service) cacheImages(tab *votable.Table, stats *RunStats) error {
	return s.cacheImageRefs(imageRefsFromTable(tab), stats)
}

// imageRef names one galaxy image to stage: its ID and the access URL.
type imageRef struct{ id, acref string }

// imageRefsFromTable extracts the (id, acref) staging list of a request.
func imageRefsFromTable(tab *votable.Table) []imageRef {
	refs := make([]imageRef, tab.NumRows())
	for i := range refs {
		refs[i] = imageRef{id: tab.Cell(i, "id"), acref: tab.Cell(i, "acref")}
	}
	return refs
}

// cacheImageRefs stages one slice of the request's images — the whole table
// on the classic path, one wave's window on the survey-scale path.
func (s *Service) cacheImageRefs(refs []imageRef, stats *RunStats) error {
	var todo []imageRef
	for _, m := range refs {
		if s.cfg.RLS.Exists(m.id + ".fit") {
			stats.ImagesCached++
			continue
		}
		todo = append(todo, m)
	}
	if len(todo) == 0 {
		return nil
	}

	if s.cfg.BatchFetch {
		// Group by cutout-service base; acrefs look like
		// "<base>/cutout?id=<galaxy>".
		groups := map[string][]string{}
		var singles []imageRef
		for _, m := range todo {
			base, id, ok := strings.Cut(m.acref, "/cutout?id=")
			if !ok || id != m.id {
				singles = append(singles, m)
				continue
			}
			groups[base] = append(groups[base], m.id)
		}
		// Flatten into a deterministic job list (sorted bases), fan the
		// fetches out, ingest in job order.
		bases := make([]string, 0, len(groups))
		for base := range groups {
			bases = append(bases, base)
		}
		sort.Strings(bases)
		type batchJob struct {
			base string
			ids  []string
		}
		var jobs []batchJob
		for _, base := range bases {
			ids := groups[base]
			for lo := 0; lo < len(ids); lo += batchFetchSize {
				hi := lo + batchFetchSize
				if hi > len(ids) {
					hi = len(ids)
				}
				jobs = append(jobs, batchJob{base: base, ids: ids[lo:hi]})
			}
		}
		datas := make([][]byte, len(jobs))
		errs := make([]error, len(jobs))
		workpool.Run(s.workers(), len(jobs), func(i int) {
			u := jobs[i].base + "/cutoutbatch?ids=" + strings.Join(jobs[i].ids, ",")
			datas[i], errs[i] = s.fetchURL(u)
		})
		for i, job := range jobs {
			if errs[i] != nil {
				return errs[i]
			}
			if err := s.ingestBatch(job.base, job.ids, datas[i], stats); err != nil {
				return err
			}
		}
		todo = singles
	}

	datas := make([][]byte, len(todo))
	errs := make([]error, len(todo))
	workpool.Run(s.workers(), len(todo), func(i int) {
		datas[i], errs[i] = s.fetchURL(todo[i].acref)
	})
	for i, m := range todo {
		if errs[i] != nil {
			return errs[i]
		}
		chargeSIA(stats, len(datas[i]))
		if err := s.storeImage(m.id+".fit", datas[i]); err != nil {
			return err
		}
		stats.ImagesFetched++
	}
	return nil
}

// chargeSIA accounts one image-service request in the wide-area cost model.
func chargeSIA(stats *RunStats, nbytes int) {
	stats.SIARequests++
	stats.SIABytes += int64(nbytes)
	stats.SIAModelTime += siaRequestLatency +
		time.Duration(float64(nbytes)/siaBandwidthBps*float64(time.Second))
}

// ingestBatch accounts, splits and stores one fetched /cutoutbatch response.
func (s *Service) ingestBatch(base string, ids []string, data []byte, stats *RunStats) error {
	chargeSIA(stats, len(data))
	segments, err := fits.SplitStream(data)
	if err != nil {
		return fmt.Errorf("webservice: batch %s: %w", base, err)
	}
	if len(segments) != len(ids) {
		return fmt.Errorf("webservice: batch %s returned %d images for %d ids",
			base, len(segments), len(ids))
	}
	for i, seg := range segments {
		if err := s.storeImage(ids[i]+".fit", seg); err != nil {
			return err
		}
		stats.ImagesFetched++
	}
	return nil
}

func (s *Service) fetchURL(u string) ([]byte, error) {
	resp, err := s.cfg.HTTPClient.Get(u)
	if err != nil {
		return nil, fmt.Errorf("webservice: fetch %s: %w", u, err)
	}
	data, err := io.ReadAll(resp.Body)
	// The body has been fully consumed; a close error cannot invalidate data
	// already read.
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("webservice: fetch %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webservice: fetch %s: status %d", u, resp.StatusCode)
	}
	return data, nil
}

func (s *Service) storeImage(lfn string, data []byte) error {
	if err := s.cfg.GridFTP.Store(s.cfg.CacheSite).Put(lfn, data); err != nil {
		return err
	}
	if err := s.registerReplica(lfn, rls.PFN{
		Site: s.cfg.CacheSite,
		URL:  gridftp.URL(s.cfg.CacheSite, lfn),
	}); err != nil {
		return err
	}
	if m := s.cfg.MirrorSite; m != "" && m != s.cfg.CacheSite {
		if err := s.cfg.GridFTP.Store(m).Put(lfn, data); err != nil {
			return err
		}
		if err := s.registerReplica(lfn, rls.PFN{
			Site: m,
			URL:  gridftp.URL(m, lfn),
		}); err != nil {
			return err
		}
	}
	return nil
}

// evictImage removes one staged cutout from the cache (and mirror) store
// and withdraws its RLS registrations — the survey-scale reclamation path
// for images whose derived outputs are already registered. Copies a
// previous process staged and this one never saw are simply absent;
// eviction reports whether any replica was actually removed here.
func (s *Service) evictImage(lfn string) bool {
	evicted := false
	sites := []string{s.cfg.CacheSite}
	if m := s.cfg.MirrorSite; m != "" && m != s.cfg.CacheSite {
		sites = append(sites, m)
	}
	for _, site := range sites {
		if err := s.cfg.GridFTP.Store(site).Delete(lfn); err == nil {
			evicted = true
		}
		// Withdrawing a replica that was never registered is a no-op.
		_ = s.cfg.RLS.Unregister(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)})
	}
	s.replicas.Invalidate(lfn)
	return evicted
}

// countStagedImages counts the cutout images currently held by the cache
// store — the footprint wave eviction bounds.
func (s *Service) countStagedImages() int {
	n := 0
	for _, name := range s.cfg.GridFTP.Store(s.cfg.CacheSite).List() {
		if strings.HasSuffix(name, ".fit") {
			n++
		}
	}
	return n
}

// buildVDL renders the derivation file for one request: the galMorph and
// concatVOT transformations, one galMorph derivation per galaxy with the
// paper's parameter set, and a concatenating derivation producing the output
// VOTable.
func buildVDL(tab *votable.Table, cluster string) (string, error) {
	var b strings.Builder
	b.WriteString("TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om, in flat, in image, out galMorph ) { compute CAS parameters }\n")

	n := tab.NumRows()
	b.WriteString("TR concatVOT( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "in p%d, ", i)
	}
	b.WriteString("out table ) { concatenate per-galaxy results }\n")

	for i := 0; i < n; i++ {
		id := tab.Cell(i, "id")
		z := tab.Cell(i, "z")
		if strings.TrimSpace(z) == "" {
			z = "0"
		}
		fmt.Fprintf(&b,
			"DV m-%s->galMorph( redshift=%q, image=@{in:%q}, pixScale=\"2.831933107035062E-4\", zeroPoint=\"27.8\", Ho=\"100\", om=\"0.3\", flat=\"1\", galMorph=@{out:%q} );\n",
			id, z, id+".fit", id+".txt")
	}

	fmt.Fprintf(&b, "DV collect-%s->concatVOT( ", cluster)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d=@{in:%q}, ", i, tab.Cell(i, "id")+".txt")
	}
	fmt.Fprintf(&b, "table=@{out:%q} );\n", outputLFN(cluster))
	return b.String(), nil
}

// --- per-galaxy result encoding ---------------------------------------------

// GalMorphResult is the payload of one <galaxy>.txt file.
type GalMorphResult struct {
	ID                string
	SurfaceBrightness float64
	Concentration     float64
	Asymmetry         float64
	Valid             bool
	Reason            string
}

// encodeResult renders a result file ("key value" lines).
func encodeResult(r GalMorphResult) []byte {
	return appendResult(nil, r)
}

// appendResult appends the result-file rendering to dst and returns the
// extended slice — the allocation-free form of encodeResult the hot path
// feeds an arena buffer. strconv.AppendFloat with 'g'/-1 and AppendBool
// produce exactly fmt's %g and %t, so the bytes are identical to the
// historical fmt.Fprintf encoding (pinned by TestAppendResultMatchesFmt).
//
//nvo:hotpath
func appendResult(dst []byte, r GalMorphResult) []byte {
	dst = append(dst, "id "...)
	dst = append(dst, r.ID...)
	dst = append(dst, "\nsurface_brightness "...)
	dst = strconv.AppendFloat(dst, r.SurfaceBrightness, 'g', -1, 64)
	dst = append(dst, "\nconcentration "...)
	dst = strconv.AppendFloat(dst, r.Concentration, 'g', -1, 64)
	dst = append(dst, "\nasymmetry "...)
	dst = strconv.AppendFloat(dst, r.Asymmetry, 'g', -1, 64)
	dst = append(dst, "\nvalid "...)
	dst = strconv.AppendBool(dst, r.Valid)
	dst = append(dst, '\n')
	if r.Reason != "" {
		dst = append(dst, "reason "...)
		for i := 0; i < len(r.Reason); i++ {
			c := r.Reason[i]
			if c == '\n' {
				c = ' '
			}
			dst = append(dst, c)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// decodeResult parses a result file.
func decodeResult(data []byte) (GalMorphResult, error) {
	var r GalMorphResult
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, found := strings.Cut(line, " ")
		if !found {
			return r, fmt.Errorf("webservice: bad result line %q", line)
		}
		switch key {
		case "id":
			r.ID = val
		case "surface_brightness":
			fmt.Sscanf(val, "%g", &r.SurfaceBrightness)
		case "concentration":
			fmt.Sscanf(val, "%g", &r.Concentration)
		case "asymmetry":
			fmt.Sscanf(val, "%g", &r.Asymmetry)
		case "valid":
			r.Valid = val == "true"
		case "reason":
			r.Reason = val
		}
	}
	if r.ID == "" {
		return r, errors.New("webservice: result file missing id")
	}
	return r, nil
}

// ResultFields is the column set of the computed VOTable.
var ResultFields = []votable.Field{
	{Name: "id", Datatype: votable.TypeChar, UCD: "meta.id;meta.main"},
	{Name: "surface_brightness", Datatype: votable.TypeDouble, Unit: "mag/arcsec2"},
	{Name: "concentration", Datatype: votable.TypeDouble},
	{Name: "asymmetry", Datatype: votable.TypeDouble},
	{Name: "valid", Datatype: votable.TypeBoolean},
}

// resultsMeta is the metadata of the output table: the streaming concat path
// and its in-memory test oracle both build from it, so the two cannot drift
// apart.
func resultsMeta(cluster string, n int) votable.TableMeta {
	return votable.TableMeta{
		Name:        cluster + "_morphology",
		Description: "galaxy morphology parameters computed by the NVO compute service",
		Params: []votable.Param{
			{Name: "cluster", Datatype: votable.TypeChar, Value: cluster},
			{Name: "n_galaxies", Datatype: votable.TypeInt, Value: fmt.Sprint(n)},
		},
		Fields: ResultFields,
	}
}

// resultCellsInto fills a caller-owned row (len(ResultFields) cells) with
// one result's output-table rendering, so the concat hot path reuses a
// single buffer instead of allocating a row per galaxy.
//
//nvo:hotpath
func resultCellsInto(row []string, r GalMorphResult) {
	valid := "F"
	if r.Valid {
		valid = "T"
	}
	row[0] = r.ID
	row[1] = votable.FormatFloat(r.SurfaceBrightness)
	row[2] = votable.FormatFloat(r.Concentration)
	row[3] = votable.FormatFloat(r.Asymmetry)
	row[4] = valid
}

// morphConfigFromDV reconstructs the measurement configuration from a
// derivation's scalar bindings.
func morphConfigFromDV(dv *vdl.Derivation) morphology.Config {
	cfg := morphology.DefaultConfig(0)
	if b, ok := dv.Bindings["redshift"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Redshift)
	}
	if b, ok := dv.Bindings["pixScale"]; ok && !b.IsFile {
		fmt.Sscanf(strings.ReplaceAll(b.Value, "E", "e"), "%g", &cfg.PixScaleDeg)
	}
	if b, ok := dv.Bindings["zeroPoint"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.ZeroPoint)
	}
	if b, ok := dv.Bindings["Ho"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Cosmology.H0)
	}
	if b, ok := dv.Bindings["om"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Cosmology.OmegaM)
	}
	if b, ok := dv.Bindings["flat"]; ok && !b.IsFile {
		cfg.Cosmology.Flat = b.Value != "0"
	}
	return cfg
}
