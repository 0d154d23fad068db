// The dramdigd HTTP surface: a handler struct wiring campaigns, the
// durable job queue and the result store behind a versioned JSON API.
// Kept separate from main so tests can drive it through httptest
// without sockets or signals.
//
// The canonical surface lives under /v1 with a uniform error envelope
// {"error":{"code":...,"message":...}}, campaign listing with
// limit/offset pagination, and live progress streaming over SSE at
// GET /v1/campaigns/{id}/events. Every resource has exactly one route,
// under /v1.
//
// Campaign execution is queue-driven: POST /v1/campaigns validates and
// enqueues (202 with status "queued"), a scheduler goroutine drains the
// queue into the worker pool up to the concurrent-campaign limit, and
// every state transition lands in the queue's WAL. With a durable queue
// (-queue-dir) a restarted daemon re-enqueues interrupted campaigns and
// resumes them from their last checkpoint, replaying already-finished
// jobs from the result store.

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/core"
	"dramdig/internal/engine"
	"dramdig/internal/logging"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
	"dramdig/internal/timing"
)

// serverConfig tunes the daemon handler.
type serverConfig struct {
	// workers caps each campaign's worker pool; retries is the engine
	// retry budget (-1 disables).
	workers int
	retries int
	// tracing records every campaign job's timing channel into the
	// store's trace tier, content-addressed by machine fingerprint.
	tracing bool
	// maxRunning bounds concurrently executing campaigns (default 8);
	// everything beyond it waits in the queue.
	maxRunning int
	// registry collects every layer's metrics; nil gets a fresh registry
	// (tests and main both scrape it via GET /v1/metrics).
	registry *metrics.Registry
	// logger receives structured request, campaign-transition and
	// error logs; nil discards them.
	logger *slog.Logger
	// tracer records request-scoped spans across every layer; nil
	// disables tracing (every instrumentation site degrades to a no-op).
	tracer *obs.Tracer
	// dispatch selects the execution mode: "local" (default) runs
	// campaigns in this process's scheduler; "remote" hands them to
	// cluster workers through the /v1/cluster lease API. The lease API
	// is served in both modes — remote merely stops the local scheduler
	// from competing for jobs.
	dispatch string
	// leaseTTL is the cluster heartbeat deadline (default 30s): a worker
	// silent past it loses the lease and the job requeues.
	leaseTTL time.Duration
	// gcInterval runs the store's garbage collector this often: orphaned
	// traces (jobs evicted from the queue) are reclaimed, the
	// -store-max-bytes bound is enforced and dead segments compacted.
	// 0 disables background GC.
	gcInterval time.Duration
}

// server is the daemon's handler. Campaigns run asynchronously on the
// base context, so cancelling it (process shutdown) drains them; their
// queue entries stay in flight and recover at the next boot.
type server struct {
	mux *http.ServeMux
	// handler is mux wrapped in the observability middleware (observe.go).
	handler http.Handler
	st      *store.Store
	q       *queue.Queue
	baseCtx context.Context
	cfg     serverConfig
	log     *slog.Logger
	// reg is the metrics registry every layer registers into; om, inst
	// and cm are the daemon's own, the engine's and the campaign layer's
	// metric sets; ids mints request IDs.
	reg    *metrics.Registry
	om     *serverMetrics
	inst   *timing.Instrument
	cm     *campaign.Metrics
	ids    *logging.IDGen
	tracer *obs.Tracer
	// cl tracks cluster workers, their shard ring and lease counters
	// (cluster.go); the lease-expiry sweeper feeds it.
	cl *clusterState
	// runCampaign is campaign.Run, injectable for handler tests.
	runCampaign func(context.Context, []campaign.Spec, campaign.Config) (*campaign.Report, error)

	// fpCache memoizes each retained job's machine fingerprints for the
	// store GC's referenced-set computation (see referencedFingerprints).
	fpMu    sync.Mutex
	fpCache map[string][]string

	mu        sync.Mutex
	running   int
	draining  bool
	campaigns map[string]*campaignState
	// order tracks campaign insertion for eviction: finished campaigns
	// past maxCampaigns are dropped oldest-first so a long-lived daemon
	// doesn't hoard every report ever produced.
	order []string
	// slotFree wakes the scheduler when a running campaign finishes.
	slotFree chan struct{}

	wg sync.WaitGroup // running campaigns
}

// campaignState tracks one submitted campaign.
type campaignState struct {
	mu     sync.Mutex
	id     string
	status string // "queued", "running", "done", "failed", "cancelled"
	total  int
	done   int
	// specs keeps the submitted jobs so the trace endpoint can map job
	// indices to machine fingerprints.
	specs  []campaign.Spec
	events []campaign.Event
	report *campaign.Report
	// reportRaw carries a previous process's report, recovered from the
	// queue's terminal record, when report itself was never built here.
	reportRaw json.RawMessage
	errMsg    string
	// requestID and traceID tie the campaign back to the HTTP request
	// that submitted it: every transition log line carries both, and the
	// spans endpoint serves the trace's tree. They ride the queue record
	// (see queue.Job.TraceParent), so they survive restarts too.
	requestID string
	traceID   string
	// worker names the cluster worker currently holding this campaign's
	// lease ("" when running locally).
	worker string
	// cancel stops the campaign's context; cancelRequested marks a
	// client cancellation so completion reports "cancelled", not
	// "failed".
	cancel          context.CancelFunc
	cancelRequested bool
	// changed is closed and replaced on every mutation — a broadcast
	// the SSE event streams block on.
	changed chan struct{}
}

func newCampaignState(id, status string, specs []campaign.Spec, total int) *campaignState {
	if len(specs) > 0 {
		total = len(specs)
	}
	return &campaignState{
		id:      id,
		status:  status,
		total:   total,
		specs:   specs,
		changed: make(chan struct{}),
	}
}

// terminalStatus reports whether a campaign status is final.
func terminalStatus(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// bumpLocked wakes every blocked event stream. Callers hold st.mu.
func (st *campaignState) bumpLocked() {
	close(st.changed)
	st.changed = make(chan struct{})
}

func newServer(baseCtx context.Context, st *store.Store, q *queue.Queue, cfg serverConfig) *server {
	if cfg.maxRunning <= 0 {
		cfg.maxRunning = maxRunning
	}
	if cfg.registry == nil {
		cfg.registry = metrics.NewRegistry()
	}
	if cfg.logger == nil {
		cfg.logger = logging.Discard()
	}
	if cfg.dispatch == "" {
		cfg.dispatch = "local"
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = defaultLeaseTTL
	}
	s := &server{
		st:          st,
		q:           q,
		baseCtx:     baseCtx,
		cfg:         cfg,
		log:         cfg.logger,
		reg:         cfg.registry,
		ids:         logging.NewIDGen(),
		runCampaign: campaign.Run,
		campaigns:   make(map[string]*campaignState),
		fpCache:     make(map[string][]string),
		slotFree:    make(chan struct{}, 1),
		tracer:      cfg.tracer,
	}
	// Every layer registers into the one registry: daemon middleware,
	// queue WAL/backlog, store cache tiers, campaign lifecycle and the
	// engine's measurement hot path.
	s.om = newServerMetrics(s.reg)
	s.q.RegisterMetrics(s.reg)
	s.st.RegisterMetrics(s.reg)
	s.cm = campaign.NewMetrics(s.reg)
	s.inst = engine.NewInstrument(s.reg)
	s.cl = newClusterState(s.reg)
	if tr := s.tracer; tr != nil {
		s.reg.CounterFunc("dramdig_trace_spans_started_total",
			"Spans opened by the tracer.", nil,
			func() float64 { return float64(tr.Stats().Started) })
		s.reg.CounterFunc("dramdig_trace_spans_finished_total",
			"Spans finished and handed to the ring.", nil,
			func() float64 { return float64(tr.Stats().Finished) })
		s.reg.CounterFunc("dramdig_trace_spans_dropped_total",
			"Finished spans evicted from the bounded ring.", nil,
			func() float64 { return float64(tr.Stats().Dropped) })
		s.reg.GaugeFunc("dramdig_trace_spans_retained",
			"Finished spans currently retained in the ring.", nil,
			func() float64 { return float64(tr.Stats().Retained) })
	}
	s.mux = http.NewServeMux()
	// The canonical, versioned surface.
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCreateCampaign)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGetCampaign)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancelCampaign)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleGetCampaignTrace)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/spans", s.handleGetCampaignSpans)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/timeline", s.handleGetCampaignTimeline)
	s.mux.HandleFunc("GET /v1/debug/spans", s.handleDebugSpans)
	s.mux.HandleFunc("GET /v1/mappings/{fingerprint}", s.handleGetMapping)
	s.mux.HandleFunc("GET /v1/traces/{fingerprint}", s.handleGetTrace)
	s.mux.HandleFunc("GET /v1/queue", s.handleGetQueue)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// The cluster lease API (cluster.go): workers pull jobs, heartbeat
	// checkpoints, report outcomes and upload artifacts.
	s.mux.HandleFunc("POST /v1/cluster/lease", s.handleClusterLease)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/heartbeat", s.handleClusterHeartbeat)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/complete", s.handleClusterComplete)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/fail", s.handleClusterFail)
	s.mux.HandleFunc("PUT /v1/cluster/results/{fingerprint}", s.handleClusterUploadResult)
	s.mux.HandleFunc("PUT /v1/cluster/traces/{fingerprint}", s.handleClusterUploadTrace)
	s.mux.HandleFunc("GET /v1/workers", s.handleGetWorkers)
	// The federated fleet scrape: every worker's last shipped snapshot
	// on one page, instance-labeled (cluster.go).
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.Handle("GET /v1/metrics", s.reg.Handler())

	s.handler = s.observe(s.mux)

	s.recoverFromQueue()
	if cfg.dispatch != "remote" {
		// Remote dispatch leaves the queue to the cluster workers; the
		// local scheduler would otherwise race them for every job.
		go s.schedule()
	}
	go s.sweepLeases()
	if cfg.gcInterval > 0 {
		// The store GC reaps traces whose jobs the queue no longer
		// retains; every retained job's machine fingerprints stay pinned.
		gctx := baseCtx
		if s.tracer != nil {
			gctx = obs.WithTracer(gctx, s.tracer)
		}
		s.st.StartGC(gctx, cfg.gcInterval, s.referencedFingerprints)
	}
	return s
}

// referencedFingerprints returns every machine fingerprint reachable
// from a job the queue still retains — the set the store GC must not
// reclaim artifacts for. Specs are rebuilt from job payloads at most
// once per job (memoized by job ID; entries for evicted jobs are pruned
// on the next call, which is exactly when their traces become orphans).
func (s *server) referencedFingerprints() map[string]bool {
	jobs := s.q.Jobs()
	refs := make(map[string]bool)
	live := make(map[string]bool, len(jobs))
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	for _, job := range jobs {
		live[job.ID] = true
		fps, ok := s.fpCache[job.ID]
		if !ok {
			specList, _ := s.specsFromPayload(job.Payload)
			fps = make([]string, 0, len(specList))
			for _, spec := range specList {
				fps = append(fps, spec.MachineFingerprint())
			}
			s.fpCache[job.ID] = fps
		}
		for _, fp := range fps {
			refs[fp] = true
		}
	}
	for id := range s.fpCache {
		if !live[id] {
			delete(s.fpCache, id)
		}
	}
	return refs
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// maxCampaigns bounds retained campaign states (running ones never count
// against the bound — they are skipped by eviction). maxCampaignJobs
// bounds one request's job count and maxRunning is the default cap on
// concurrently executing campaigns; both keep a hostile client from
// pinning the daemon's memory or cores with cheap POSTs. The Retry-After
// hint on 429/503 rejections derives from the live queue depth (see
// retryAfterSecondsHint in observe.go).
const (
	maxCampaigns    = 64
	maxCampaignJobs = cluster.MaxCampaignJobs
	maxRunning      = 8
)

// logTransition emits the structured log line for a campaign state
// transition — one line per transition, with the campaign ID on every
// line so transitions correlate across the daemon's lifetime. The
// originating request's ID and trace ID ride along from the campaign
// state (which carries them across restarts via the queue record), so
// transition lines correlate with the request log and span tree without
// the caller threading them through. Callers must not hold s.mu or the
// campaign's st.mu.
func (s *server) logTransition(id, from, to string, attrs ...any) {
	s.mu.Lock()
	st := s.campaigns[id]
	s.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		if st.requestID != "" {
			attrs = append(attrs, "request_id", st.requestID)
		}
		if st.traceID != "" {
			attrs = append(attrs, "trace_id", st.traceID)
		}
		st.mu.Unlock()
	}
	s.log.Info("campaign transition",
		append([]any{"campaign", id, "from", from, "to", to}, attrs...)...)
}

// drain blocks until every in-flight campaign goroutine has finished;
// call after cancelling the base context.
func (s *server) drain() { s.wg.Wait() }

// beginDrain flips the daemon into shutdown mode: new campaign
// submissions are refused with 503 + Retry-After instead of accepting
// work the dying process would lose (or strand in the queue until the
// next boot).
func (s *server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// --- queue-driven execution -------------------------------------------

// campaignPayload is what a campaign job carries through the queue.
// The shape lives in internal/cluster (as do the request and report
// shapes below) so remote workers deserialize it identically.
type campaignPayload = cluster.Payload

// recoverFromQueue rebuilds campaign states for every job the queue
// retained across a restart: pending jobs (including re-enqueued
// interrupted ones) appear as "queued" and are picked up by the
// scheduler; terminal jobs keep answering GET with their recorded
// outcome.
func (s *server) recoverFromQueue() {
	for _, job := range s.q.Jobs() {
		st := s.stateFromJob(job)
		if st == nil {
			continue
		}
		s.campaigns[job.ID] = st
		s.order = append(s.order, job.ID)
		if job.Recovered {
			s.log.Debug("campaign recovered from queue", "campaign", job.ID, "attempt", job.Attempts+1)
		}
	}
}

// stateFromJob rebuilds a campaign's in-memory state from its queue
// record — used at boot recovery and when an idempotent replay hits a
// job whose state was evicted. Returns nil for in-flight states, which
// always have a live state already.
func (s *server) stateFromJob(job queue.Job) *campaignState {
	var status string
	switch job.State {
	case queue.StateSubmitted:
		status = "queued"
	case queue.StateDone:
		status = "done"
	case queue.StateFailed:
		status = "failed"
	case queue.StateCancelled:
		status = "cancelled"
	default:
		return nil
	}
	specList, total := s.specsFromPayload(job.Payload)
	st := newCampaignState(job.ID, status, specList, total)
	st.requestID = job.RequestID
	st.traceID = traceIDOf(job.TraceParent)
	st.reportRaw = job.Result
	st.errMsg = job.Error
	if status == "done" {
		// done/total mirror the job count for finished work.
		st.done = st.total
	}
	return st
}

// traceIDOf extracts the 32-hex trace ID from a persisted traceparent
// ("" for absent or malformed values).
func traceIDOf(traceParent string) string {
	sc, err := obs.ParseTraceParent(traceParent)
	if err != nil {
		return ""
	}
	return sc.TraceID.String()
}

// specsFromPayload rebuilds a queued campaign's specs; on any error it
// returns no specs (the job will fail cleanly when launched).
func (s *server) specsFromPayload(payload json.RawMessage) ([]campaign.Spec, int) {
	var p campaignPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, 0
	}
	specList, err := s.buildSpecs(p.Request, p.Seed)
	if err != nil {
		return nil, 0
	}
	return specList, len(specList)
}

// schedule drains the queue into the worker pool, at most
// cfg.maxRunning campaigns at a time. It wakes on submissions and on
// freed slots, and exits with the base context.
func (s *server) schedule() {
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.q.Ready():
		case <-s.slotFree:
		}
		s.launchReady()
	}
}

// launchReady starts queued campaigns until the running limit or an
// empty queue stops it.
func (s *server) launchReady() {
	for {
		s.mu.Lock()
		if s.draining || s.running >= s.cfg.maxRunning {
			s.mu.Unlock()
			return
		}
		s.running++ // reserve the slot before the dequeue commits
		s.mu.Unlock()

		job, ok, err := s.q.Dequeue()
		dequeued := time.Now()
		if err != nil || !ok {
			s.mu.Lock()
			s.running--
			s.mu.Unlock()
			if err != nil && !errors.Is(err, context.Canceled) {
				s.log.Error("scheduler dequeue failed", "err", err)
			}
			return
		}
		s.launch(job, dequeued)
	}
}

// freeSlot releases a running slot and wakes the scheduler.
func (s *server) freeSlot() {
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	select {
	case s.slotFree <- struct{}{}:
	default:
	}
}

// launch runs one dequeued campaign job asynchronously. dequeued is
// the instant the job left the queue — the end of its queue.wait span.
func (s *server) launch(job queue.Job, dequeued time.Time) {
	var p campaignPayload
	if err := json.Unmarshal(job.Payload, &p); err != nil {
		s.failJob(job.ID, fmt.Errorf("corrupt queue payload: %w", err))
		return
	}
	specList, err := s.buildSpecs(p.Request, p.Seed)
	if err != nil {
		s.failJob(job.ID, fmt.Errorf("queued request no longer builds: %w", err))
		return
	}

	s.mu.Lock()
	st := s.campaigns[job.ID]
	if st == nil {
		st = newCampaignState(job.ID, "queued", specList, len(specList))
		st.requestID = job.RequestID
		st.traceID = traceIDOf(job.TraceParent)
		s.campaigns[job.ID] = st
		s.order = append(s.order, job.ID)
	}
	s.mu.Unlock()

	// Re-enter the submitting request's trace from the persisted queue
	// record: everything below — queue.wait, scheduler.dispatch, the
	// campaign.run goroutine and its per-job/engine/store descendants —
	// parents under the request's server span, even when the submission
	// happened before a restart.
	tctx := s.baseCtx
	if s.tracer != nil {
		tctx = obs.WithTracer(tctx, s.tracer)
		if sc, perr := obs.ParseTraceParent(job.TraceParent); perr == nil {
			tctx = obs.WithSpanContext(tctx, sc)
		}
	}
	if job.RequestID != "" {
		tctx = logging.WithRequestID(tctx, job.RequestID)
	}
	if job.SubmittedUnixNano > 0 {
		// queue.wait is reconstructed, not measured live: the interval from
		// the persisted submission instant to the dequeue.
		_, wsp := obs.Start(tctx, "queue.wait", obs.KV("campaign", job.ID),
			obs.Int("attempt", int64(job.Attempts)))
		wsp.SetStart(time.Unix(0, job.SubmittedUnixNano))
		wsp.EndAt(dequeued)
	}
	tctx, dsp := obs.Start(tctx, "scheduler.dispatch", obs.KV("campaign", job.ID),
		obs.Int("jobs", int64(len(specList))))

	ctx, cancel := context.WithCancel(tctx)
	st.mu.Lock()
	st.status = "running"
	st.specs = specList
	st.total = len(specList)
	st.cancel = cancel
	// A DELETE may have raced the dequeue: it saw "queued", lost the
	// queue-side cancel, flagged cancelRequested and was promised
	// "cancelling" — honor that promise now that a cancel func exists.
	requested := st.cancelRequested
	st.bumpLocked()
	st.mu.Unlock()
	if requested {
		cancel()
	}

	cfg := campaign.Config{
		Workers:    p.Request.Workers,
		Retries:    s.cfg.retries,
		Seed:       p.Seed,
		OnEvent:    st.onEvent,
		Wrap:       s.storeWrap,
		Metrics:    s.cm,
		Instrument: s.inst,
		OnCheckpoint: func(cp campaign.Checkpoint) {
			data, err := json.Marshal(cp)
			if err != nil {
				s.log.Error("encode checkpoint failed", "campaign", job.ID, "err", err)
				return
			}
			if err := s.q.Checkpoint(job.ID, data); err != nil {
				s.log.Error("persist checkpoint failed", "campaign", job.ID, "err", err)
			}
		},
	}
	if len(job.Checkpoint) > 0 {
		var cp campaign.Checkpoint
		if err := json.Unmarshal(job.Checkpoint, &cp); err != nil {
			s.log.Warn("corrupt checkpoint ignored", "campaign", job.ID, "err", err)
		} else if cp.Seed == p.Seed {
			cfg.Resume = &cp
			cfg.Restore = s.restoreFromStore
			s.log.Debug("campaign resuming from checkpoint", "campaign", job.ID,
				"done", len(cp.Jobs), "jobs", len(specList))
		}
	}
	if s.cfg.tracing {
		cfg.TraceSink = s.traceSink
	}
	// The operator's -workers flag is a ceiling, not a default a client
	// may exceed.
	if cfg.Workers <= 0 || cfg.Workers > s.cfg.workers {
		cfg.Workers = s.cfg.workers
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		// campaign.run brackets the whole engine execution; the pprof
		// label segments CPU profiles by campaign (jobs add their own
		// "job" label inside, see campaign.runJob).
		runCtx, rsp := obs.Start(ctx, "campaign.run",
			obs.KV("campaign", job.ID), obs.Int("jobs", int64(len(specList))))
		var rep *campaign.Report
		var err error
		pprof.Do(runCtx, pprof.Labels("campaign", job.ID), func(runCtx context.Context) {
			rep, err = s.runCampaign(runCtx, specList, cfg)
		})
		rsp.SetError(err)
		rsp.End()
		s.freeSlot()
		s.finishJob(job.ID, st, specList, rep, err)
	}()
	dsp.End()
	s.logTransition(job.ID, "queued", "running", "jobs", len(specList), "attempt", job.Attempts)
}

// failJob marks a job failed before it ever ran (corrupt payload).
func (s *server) failJob(id string, err error) {
	s.freeSlot()
	if qerr := s.q.Fail(id, err.Error()); qerr != nil {
		s.log.Error("queue fail failed", "campaign", id, "cause", err, "err", qerr)
	}
	s.mu.Lock()
	st := s.campaigns[id]
	s.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		st.status = "failed"
		st.errMsg = err.Error()
		st.bumpLocked()
		st.mu.Unlock()
	}
	s.logTransition(id, "queued", "failed", "err", err.Error())
}

// finishJob records a completed campaign run in the queue and the
// in-memory state. Shutdown is the deliberate exception: the queue
// entry is left in flight so the next boot recovers and resumes it.
func (s *server) finishJob(id string, st *campaignState, specList []campaign.Spec, rep *campaign.Report, err error) {
	st.mu.Lock()
	cancelled := st.cancelRequested
	st.mu.Unlock()

	status := "done"
	var errMsg string
	switch {
	case err == nil:
		if qerr := s.q.Finish(id, s.encodeReport(rep)); qerr != nil {
			s.log.Error("queue finish failed", "campaign", id, "err", qerr)
		}
	case cancelled:
		status, errMsg = "cancelled", "cancelled by client"
		if qerr := s.q.Cancelled(id, errMsg); qerr != nil {
			s.log.Error("queue cancel failed", "campaign", id, "err", qerr)
		}
	case s.baseCtx.Err() != nil:
		// Daemon shutdown: the job stays in flight in the WAL — with its
		// last checkpoint — and the next boot re-enqueues and resumes it.
		status, errMsg = "failed", err.Error()
	default:
		status, errMsg = "failed", err.Error()
		if qerr := s.q.Fail(id, errMsg); qerr != nil {
			s.log.Error("queue fail failed", "campaign", id, "err", qerr)
		}
	}

	st.mu.Lock()
	st.report = rep
	st.status = status
	st.errMsg = errMsg
	st.bumpLocked()
	st.mu.Unlock()
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	attrs := []any{"jobs", len(specList)}
	if errMsg != "" {
		attrs = append(attrs, "err", errMsg)
	}
	s.logTransition(id, "running", status, attrs...)
}

// encodeReport marshals the API report shape for the queue's terminal
// record, so a restarted daemon still serves the report.
func (s *server) encodeReport(rep *campaign.Report) json.RawMessage {
	if rep == nil {
		return nil
	}
	data, err := json.Marshal(reportToJSON(rep))
	if err != nil {
		s.log.Error("encode report failed", "err", err)
		return nil
	}
	return data
}

// restoreFromStore replays a checkpointed job's outcome from the
// content-addressed result store — the same records storeWrap caches.
// A miss (memory-only store restarted, record evicted) re-runs the job,
// which the deterministic seeds make equivalent.
func (s *server) restoreFromStore(ctx context.Context, spec campaign.Spec, jc campaign.JobCheckpoint) (campaign.Outcome, bool) {
	fp := jc.MachineFingerprint
	if fp == "" {
		fp = spec.MachineFingerprint()
	}
	rec, ok, err := s.st.GetCtx(ctx, fp)
	if err != nil || !ok {
		return campaign.Outcome{}, false
	}
	return campaign.Outcome{
		Result: &core.Result{
			Mapping:         rec.Mapping,
			TotalSimSeconds: rec.SimSeconds,
			Measurements:    rec.Measurements,
		},
		Match:    rec.Match,
		Attempts: jc.Attempts,
	}, true
}

// --- request/response shapes -----------------------------------------

// campaignRequest is the POST /v1/campaigns body; the shape (with its
// customSpec machine definitions) lives in internal/cluster.
type campaignRequest = cluster.CampaignRequest

// buildSpecs expands a request into job specs — a pure function of
// (request, seed) shared with remote workers, so both sides derive
// identical specs for one payload.
func (s *server) buildSpecs(req campaignRequest, seed int64) ([]campaign.Spec, error) {
	return cluster.BuildSpecs(req, seed)
}

// --- handlers ---------------------------------------------------------

func (s *server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusServiceUnavailable, codeDraining,
			"daemon is shutting down; resubmit to its successor")
		return
	}

	// A campaign request is small; anything bigger is hostile or broken.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req campaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 42
	}
	specList, err := s.buildSpecs(req, seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}

	opts := queue.SubmitOptions{
		Priority:       req.Priority,
		IdempotencyKey: r.Header.Get("Idempotency-Key"),
	}
	// The queue record carries the request's trace context and ID so
	// queue/scheduler/campaign spans and transition logs stay parented to
	// this request — across the async handoff and across restarts. The
	// persisted parent is the *server span*, so the whole downstream tree
	// roots at the inbound trace.
	opts.TraceParent = obs.TraceParentFrom(r.Context())
	opts.RequestID = logging.RequestID(r.Context())

	payload, err := json.Marshal(campaignPayload{Request: req, Seed: seed})
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	_, ssp := obs.Start(r.Context(), "queue.submit", obs.Int("priority", int64(opts.Priority)))
	job, dup, err := s.q.Submit(payload, opts)
	ssp.SetError(err)
	if err == nil {
		ssp.SetAttr("campaign", job.ID)
	}
	ssp.End()
	if errors.Is(err, queue.ErrFull) {
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusTooManyRequests, codeOverloaded,
			"queue is full (%d pending); retry later", s.q.StatsSnapshot().Pending)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}

	status := "queued"
	if dup {
		// The original submission's campaign answers for the duplicate.
		// Its in-memory state may have been evicted while the queue still
		// retains the job — rebuild it so the returned URL resolves.
		w.Header().Set("Idempotency-Replayed", "true")
		s.mu.Lock()
		st := s.campaigns[job.ID]
		if st == nil {
			st = s.stateFromJob(job)
			if st != nil {
				s.campaigns[job.ID] = st
				s.order = append(s.order, job.ID)
			}
		}
		s.mu.Unlock()
		if st != nil {
			st.mu.Lock()
			status = st.status
			st.mu.Unlock()
		}
	} else {
		// The scheduler races this insert: Submit already woke it, and
		// launch() may have created (and advanced) the state first. Never
		// overwrite an existing state — that would orphan the one the
		// running campaign updates.
		s.mu.Lock()
		if s.campaigns[job.ID] == nil {
			ns := newCampaignState(job.ID, "queued", specList, len(specList))
			ns.requestID = opts.RequestID
			ns.traceID = traceIDOf(opts.TraceParent)
			s.campaigns[job.ID] = ns
			s.order = append(s.order, job.ID)
			s.evictLocked()
		}
		s.mu.Unlock()
		s.logTransition(job.ID, "", "queued", "jobs", len(specList), "priority", job.Priority)
	}

	w.Header().Set("Location", "/v1/campaigns/"+job.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     job.ID,
		"status": status,
		"jobs":   len(specList),
		"url":    "/v1/campaigns/" + job.ID,
		"events": "/v1/campaigns/" + job.ID + "/events",
	})
}

// handleCancelCampaign removes a queued campaign or stops a running one
// via its context (the work notices between measurement batches). The
// response reports the resulting state: "cancelled" for queued work,
// "cancelling" while a running campaign unwinds.
func (s *server) handleCancelCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}

	st.mu.Lock()
	status := st.status
	cancel := st.cancel
	if status == "running" {
		st.cancelRequested = true
	}
	st.mu.Unlock()

	switch status {
	case "queued":
		if _, err := s.q.Cancel(id, "cancelled by client"); err != nil {
			// The scheduler may have dequeued it in the window since we
			// read the status; treat as the running case below.
			if !errors.Is(err, queue.ErrBadState) {
				httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
				return
			}
			st.mu.Lock()
			st.cancelRequested = true
			cancel = st.cancel
			st.mu.Unlock()
			if cancel != nil {
				cancel()
			}
			writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": "cancelling"})
			return
		}
		st.mu.Lock()
		st.status = "cancelled"
		st.errMsg = "cancelled by client"
		st.bumpLocked()
		st.mu.Unlock()
		s.logTransition(id, "queued", "cancelled")
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "cancelled"})
	case "running":
		if cancel != nil {
			cancel()
		}
		s.log.Debug("campaign cancellation requested", "campaign", id)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": "cancelling"})
	default:
		httpError(w, http.StatusConflict, codeConflict, "campaign %s already %s", id, status)
	}
}

// handleGetQueue reports scheduler and queue health: backlog depth,
// running campaigns, capacity and the drain flag.
func (s *server) handleGetQueue(w http.ResponseWriter, r *http.Request) {
	qs := s.q.StatsSnapshot()
	s.mu.Lock()
	running, draining := s.running, s.draining
	maxRun := s.cfg.maxRunning
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"depth":       qs.Pending,
		"capacity":    qs.Capacity,
		"running":     running,
		"max_running": maxRun,
		"draining":    draining,
		"done":        qs.Done,
		"failed":      qs.Failed,
		"cancelled":   qs.Cancelled,
		"recovered":   qs.Recovered,
		"leased":      qs.Leased,
		"dispatch":    s.cfg.dispatch,
	})
}

// campaignSummary is one row of the paginated campaign listing.
type campaignSummary struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	URL    string `json:"url"`
}

// listLimits bound GET /v1/campaigns pagination: limit must be in
// [1, maxListLimit], offset must be >= 0.
const (
	defaultListLimit = 20
	maxListLimit     = 100
)

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s %q is not an integer", key, raw)
	}
	return v, nil
}

// handleListCampaigns serves the paginated campaign index, newest
// first. Bounds are part of the v1 contract: limit in [1, 100] (default
// 20), offset >= 0; anything else is a bad_request.
func (s *server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", defaultListLimit)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if limit < 1 || limit > maxListLimit {
		httpError(w, http.StatusBadRequest, codeBadRequest,
			"limit %d out of range [1, %d]", limit, maxListLimit)
		return
	}
	if offset < 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "offset %d is negative", offset)
		return
	}

	s.mu.Lock()
	states := make([]*campaignState, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- { // newest first
		if st := s.campaigns[s.order[i]]; st != nil {
			states = append(states, st)
		}
	}
	s.mu.Unlock()

	total := len(states)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	page := make([]campaignSummary, 0, end-offset)
	for _, st := range states[offset:end] {
		st.mu.Lock()
		page = append(page, campaignSummary{
			ID: st.id, Status: st.status, Total: st.total, Done: st.done,
			URL: "/v1/campaigns/" + st.id,
		})
		st.mu.Unlock()
	}
	resp := map[string]any{
		"campaigns": page,
		"total":     total,
		"limit":     limit,
		"offset":    offset,
	}
	if end < total {
		resp["next_offset"] = end
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCampaignEvents streams a campaign's progress as Server-Sent
// Events: every recorded event is sent (event: <kind>, data: JSON),
// then live events as they arrive, then a final "done" event carrying
// the terminal status. The stream ends when the campaign finishes, the
// client disconnects, or the daemon shuts down.
func (s *server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.om.sseSubs.Inc()
	defer s.om.sseSubs.Dec()

	sent := 0
	for {
		st.mu.Lock()
		pending := append([]campaign.Event(nil), st.events[sent:]...)
		sent += len(pending)
		status := st.status
		done, total := st.done, st.total
		errMsg := st.errMsg
		changed := st.changed
		st.mu.Unlock()

		for _, ev := range pending {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, werr := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data); werr != nil {
				// The subscriber's connection is gone; every remaining
				// event for this stream is undeliverable.
				s.om.sseDropped.Inc()
				return
			}
		}
		if len(pending) > 0 {
			fl.Flush()
		}
		if terminalStatus(status) {
			final := map[string]any{"status": status, "done": done, "total": total}
			if errMsg != "" {
				final["err"] = errMsg
			}
			data, _ := json.Marshal(final)
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case <-time.After(15 * time.Second):
			// Heartbeat comment so idle streams survive proxies.
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}

// evictLocked drops the oldest finished campaigns once the retained
// count exceeds maxCampaigns. Callers hold s.mu.
func (s *server) evictLocked() {
	over := len(s.campaigns) - maxCampaigns
	if over <= 0 {
		return
	}
	var kept []string
	for _, id := range s.order {
		st := s.campaigns[id]
		if st == nil {
			continue
		}
		evictable := false
		if over > 0 {
			st.mu.Lock()
			// Only terminal states may go: evicting a queued state would
			// orphan a backlogged job — unreachable by GET/DELETE while
			// the scheduler still intends to run it.
			evictable = terminalStatus(st.status)
			st.mu.Unlock()
		}
		if evictable {
			delete(s.campaigns, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// onEvent records progress; campaign.Run calls it from one goroutine.
func (st *campaignState) onEvent(ev campaign.Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.events = append(st.events, ev)
	if ev.Kind == campaign.EventJobFinished || ev.Kind == campaign.EventJobFailed {
		st.done++
	}
	st.bumpLocked()
}

// storeWrap backs each campaign job with the content-addressed store:
// concurrent jobs for one machine configuration run the pipeline once
// (single-flight), and repeated campaigns hit the cache.
func (s *server) storeWrap(ctx context.Context, spec campaign.Spec, run func() campaign.Outcome) campaign.Outcome {
	fp := spec.MachineFingerprint()
	var direct *campaign.Outcome
	rec, err := s.st.GetOrComputeCtx(ctx, fp, func() (*store.Record, error) {
		out := run()
		direct = &out
		if out.Err != nil {
			return nil, out.Err
		}
		return &store.Record{
			Fingerprint:        fp,
			MachineName:        spec.Def.Name,
			Mapping:            out.Result.Mapping,
			MappingFingerprint: out.Result.Mapping.Fingerprint(),
			Match:              out.Match,
			SimSeconds:         out.Result.TotalSimSeconds,
			Measurements:       out.Result.Measurements,
		}, nil
	})
	if direct != nil {
		// This call executed the pipeline; report its outcome verbatim.
		return *direct
	}
	if err != nil {
		// Another flight's failure; count it as one shared attempt.
		return campaign.Outcome{Err: err, Attempts: 1}
	}
	return campaign.Outcome{
		Result: &core.Result{
			Mapping:         rec.Mapping,
			TotalSimSeconds: rec.SimSeconds,
			Measurements:    rec.Measurements,
		},
		Match:  rec.Match,
		Cached: true,
	}
}

// traceSink records a campaign attempt's timing channel into the store,
// content-addressed by the job's machine fingerprint — the same key its
// result caches under. Retried attempts overwrite atomically, so the
// stored trace is always the last attempt's complete recording.
func (s *server) traceSink(spec campaign.Spec, index, attempt int) (io.WriteCloser, error) {
	return s.st.TraceWriter(spec.MachineFingerprint())
}

// campaignTraceJSON is one row of the campaign trace index.
type campaignTraceJSON struct {
	Job                int    `json:"job"`
	Name               string `json:"name"`
	MachineFingerprint string `json:"machine_fingerprint"`
	Available          bool   `json:"available"`
	Bytes              int64  `json:"bytes,omitempty"`
	URL                string `json:"url,omitempty"`
}

// handleGetCampaignTrace serves a campaign's recorded timing traces:
// without a query it returns a JSON index of the campaign's jobs and
// their trace availability; with ?job=N it streams job N's binary trace.
func (s *server) handleGetCampaignTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	st.mu.Lock()
	specs := st.specs
	st.mu.Unlock()

	if jobStr := r.URL.Query().Get("job"); jobStr != "" {
		job, err := strconv.Atoi(jobStr)
		if err != nil || job < 0 || job >= len(specs) {
			httpError(w, http.StatusBadRequest, codeBadRequest, "job %q out of range [0, %d)", jobStr, len(specs))
			return
		}
		s.serveTrace(w, specs[job].MachineFingerprint())
		return
	}

	index := make([]campaignTraceJSON, 0, len(specs))
	for i, spec := range specs {
		fp := spec.MachineFingerprint()
		row := campaignTraceJSON{Job: i, Name: spec.Name, MachineFingerprint: fp}
		if n, ok := s.st.StatTrace(fp); ok {
			row.Available = true
			row.Bytes = n
			row.URL = fmt.Sprintf("/v1/campaigns/%s/trace?job=%d", id, i)
		}
		index = append(index, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"tracing": s.cfg.tracing,
		"traces":  index,
	})
}

// handleGetTrace serves a stored trace directly by machine fingerprint,
// the content-addressed sibling of GET /v1/mappings/{fingerprint}.
func (s *server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if !store.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "malformed fingerprint %q", fp)
		return
	}
	s.serveTrace(w, fp)
}

func (s *server) serveTrace(w http.ResponseWriter, fp string) {
	data, ok, err := s.st.GetTrace(fp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no trace for %s (is the daemon running with -trace-dir?)", fp)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fp+".trace"))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// reportToJSON renders the campaign report's API shape; the shape and
// conversion live in internal/cluster so a worker's completion report
// is byte-compatible with a locally produced one.
func reportToJSON(rep *campaign.Report) *cluster.ReportJSON {
	return cluster.EncodeReport(rep)
}

func (s *server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.campaigns[id]
	s.mu.Unlock()
	if st == nil {
		// Eviction past maxCampaigns drops only terminal states, which the
		// queue may still retain: answer from the job record, as a
		// restarted daemon would. The rebuilt state is not re-inserted, so
		// the memory bound holds.
		if job, ok := s.q.Get(id); ok {
			st = s.stateFromJob(job)
		}
	}
	if st == nil {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	st.mu.Lock()
	resp := map[string]any{
		"id":     st.id,
		"status": st.status,
		"total":  st.total,
		"done":   st.done,
		"events": append([]campaign.Event(nil), st.events...),
	}
	if st.report != nil {
		resp["report"] = reportToJSON(st.report)
	} else if len(st.reportRaw) > 0 {
		// Recovered from the queue's terminal record (previous process).
		resp["report"] = st.reportRaw
	}
	if st.errMsg != "" {
		resp["err"] = st.errMsg
	}
	st.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleGetMapping serves a cached mapping by machine fingerprint. The
// resource is content-addressed and immutable, so the fingerprint itself
// is the ETag: a client revalidating with If-None-Match gets 304 without
// the store (or the disk) being consulted at all — if the client holds a
// representation of this fingerprint, it is by construction current.
// A miss costs one in-memory index lookup in the store: unknown
// fingerprints never touch the disk.
func (s *server) handleGetMapping(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if !store.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "malformed fingerprint %q", fp)
		return
	}
	etag := `"` + fp + `"`
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "max-age=31536000, immutable")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rec, ok, err := s.st.Get(fp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no mapping for %s", fp)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "max-age=31536000, immutable")
	writeJSON(w, http.StatusOK, rec)
}

// etagMatch implements If-None-Match comparison: a comma-separated list
// of entity tags, "*" matching anything, weak prefixes compared
// weakly (fine for an immutable resource).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.campaigns)
	s.mu.Unlock()
	qs := s.q.StatsSnapshot()
	ss := s.st.StatsSnapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"campaigns": n,
		// Top-level probe fields; the full snapshots nest below.
		"queue_depth":   qs.Pending,
		"cache_entries": ss.Entries,
		"store":         ss,
		"queue":         qs,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// v1 error codes. Every error response carries the uniform envelope
// {"error":{"code":<code>,"message":<human text>}}.
const (
	codeBadRequest = "bad_request"
	codeNotFound   = "not_found"
	codeOverloaded = "overloaded"
	codeDraining   = "draining"
	codeConflict   = "conflict"
	codeInternal   = "internal"
	// codeLeaseLost tells a cluster worker its lease expired and was
	// requeued or re-granted: stop the job and report nothing further.
	codeLeaseLost = "lease_lost"
)

// errorEnvelope is the uniform v1 error shape.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func httpError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
