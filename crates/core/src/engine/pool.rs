//! The executor: one claim → execute → publish path for every campaign.
//!
//! A `PlanRun` is one plan in flight: its flattened work items, the
//! result slots they land in, the claim cursor over the pending ones, and
//! the sinks it reports into. Every execution mode drives the same four
//! steps on it — `PlanRun::new` (prefilled results → slots → pending
//! indices), `PlanRun::claim`, `PlanRun::execute` (mission → [`RunSink`]
//! → trace → result slot → progress events) and `PlanRun::finalize`. The modes differ only in thread lifetime and
//! in how claims are chosen:
//!
//! * [`Engine`](super::Engine) borrows its caller's sinks and drains one
//!   plan on scoped threads that exit when nothing is left to claim.
//! * [`MultiplexPool`] owns long-lived workers that wait on a condvar
//!   between claims and multiplex every submitted plan. Each claim grants
//!   one run from the front plan of a rotation and sends that plan to the
//!   back (**fair round-robin**), so an 8-run plan submitted next to an
//!   8 000-run plan makes progress every cycle instead of queueing behind
//!   it. [`MultiplexPool::submit`] returns a [`PlanTicket`] at once.
//!
//! In the pool, **per-plan cancellation** ([`PlanTicket::cancel`]) drops
//! a plan's unclaimed runs, claimed-but-unstarted runs are skipped and
//! in-flight runs finish; lifecycle transitions go through the
//! [`PlanLifecycle`](avfi_net::proto::PlanLifecycle) state machine. Every
//! [`ProgressEvent`] lands in the plan's own ordered log as a
//! [`PlanEvent`] `{plan, seq, event}`, so watchers follow a single plan
//! without seeing its neighbors. The `Finished` event's `utilization` is
//! empty in service mode — workers are shared, so a per-plan per-worker
//! busy fraction has no meaning. The worker that retires a plan's last
//! claim finalizes it, so `Finished` follows every run's events.
//!
//! **Determinism survives multiplexing.** A run's output depends only on
//! its (campaign template, scenario index, run index) coordinates and
//! lands in a slot preassigned by flat plan index, reassembled by
//! [`assemble_results`](super::assemble_results). Scheduling (worker
//! count, rotation order, neighbor plans) affects only wall-clock, so a
//! plan's results are **byte-identical** to a solo
//! [`Engine::execute`](super::Engine::execute) of the same plan.

use super::{
    assemble_results, flatten_items, plan_trace_specs, EvalJob, ProgressEvent, ProgressSink,
    RunSink, StudyResult, WorkItem, WorkPlan,
};
use crate::campaign::{run_mission, AgentSpec, RunResult, TraceSpec};
use crate::fault::FaultSpec;
use avfi_net::proto::{PlanId, PlanLifecycle, PlanPhase};
use avfi_sim::recorder::Recorder;
use avfi_sim::scenario::Scenario;
use avfi_trace::{RunTrace, TraceLevel};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a [`PlanRun`] executes.
pub(crate) enum Work<'a> {
    /// Every run of a plan: borrowed by the engine, owned by the pool.
    Plan(Cow<'a, WorkPlan>),
    /// Ad-hoc jobs sharing one agent, outside any campaign.
    Jobs(&'a [EvalJob], &'a AgentSpec),
}

impl Work<'_> {
    /// The scenario template, fault plan and agent of flat item `i`.
    fn mission(&self, i: usize, item: &WorkItem) -> (&Scenario, &FaultSpec, &AgentSpec) {
        match self {
            Work::Plan(plan) => {
                let cfg = &plan.studies()[item.study].campaigns[item.campaign];
                (&cfg.scenarios[item.scenario], &cfg.fault, &cfg.agent)
            }
            Work::Jobs(jobs, agent) => (&jobs[i].scenario, &jobs[i].fault, agent),
        }
    }
}

/// Where a [`PlanRun`] reports. The engine borrows its caller's sinks;
/// the pool owns a per-plan event log and journal ([`PlanLog`]).
pub(crate) trait PlanSinks: Sync {
    /// Receives the plan's progress events.
    fn progress(&self) -> &dyn ProgressSink;
    /// Receives each finished run before it is published, and the
    /// terminal phase.
    fn spool(&self) -> Option<&dyn RunSink>;
    /// Moves the plan into terminal `phase`; returns the phase that took
    /// effect.
    fn terminal(&self, phase: PlanPhase) -> PlanPhase {
        phase
    }
    /// Wakes waiters once the spool has seen the terminal phase.
    fn wake(&self) {}
}

/// The engine's sinks, borrowed from its caller.
pub(crate) type Borrowed<'a> = (&'a dyn ProgressSink, Option<&'a dyn RunSink>);

impl PlanSinks for Borrowed<'_> {
    fn progress(&self) -> &dyn ProgressSink {
        self.0
    }

    fn spool(&self) -> Option<&dyn RunSink> {
        self.1
    }
}

/// One plan in flight: the state every execution mode drains.
pub(crate) struct PlanRun<'a, S> {
    work: Work<'a>,
    items: Vec<WorkItem>,
    /// Trace specs by flat campaign; empty when tracing is off.
    specs: Vec<TraceSpec>,
    /// Where traces are written; `None` keeps them in `traces`.
    trace_dir: Option<PathBuf>,
    /// Runs left per flat campaign, for `CampaignCompleted` events.
    remaining: Vec<AtomicUsize>,
    /// Flat indices still to execute, in flat-plan order.
    pub(crate) pending: Vec<usize>,
    /// Claim cursor into `pending`.
    next: AtomicUsize,
    /// Claims finished, executed or skipped.
    retired: AtomicUsize,
    /// Runs executed, prefilled ones included.
    executed: AtomicUsize,
    cancelled: AtomicBool,
    finalized: AtomicBool,
    /// Busy seconds per worker for `Finished`; empty leaves it empty.
    busy: Vec<Mutex<f64>>,
    started_at: Instant,
    /// Result slots preassigned by flat plan index.
    slots: Vec<Mutex<Option<RunResult>>>,
    /// Kept traces by flat plan index (sorted at finalize).
    traces: Mutex<Vec<(usize, RunTrace)>>,
    sinks: S,
}

impl<S> fmt::Debug for PlanRun<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanRun")
            .field("total", &self.items.len())
            .field("pending", &self.pending.len())
            .field("executed", &self.executed)
            .finish_non_exhaustive()
    }
}

impl<'a, S: PlanSinks> PlanRun<'a, S> {
    /// Flattens `work` and slots in `prefilled` results: the first entry
    /// for an index wins and out-of-range indices are dropped (resume
    /// re-executes anything not slotted; determinism keeps the output
    /// identical either way). Only the unfilled indices are pending.
    pub(crate) fn new(
        work: Work<'a>,
        specs: Vec<TraceSpec>,
        trace_dir: Option<PathBuf>,
        prefilled: Vec<(usize, RunResult)>,
        sinks: S,
    ) -> Self {
        let (items, mut remaining): (Vec<WorkItem>, Vec<usize>) = match &work {
            Work::Plan(plan) => (
                flatten_items(plan),
                plan.studies()
                    .iter()
                    .flat_map(|s| &s.campaigns)
                    .map(|c| c.total_runs())
                    .collect(),
            ),
            Work::Jobs(jobs, _) => (
                jobs.iter()
                    .map(|job| WorkItem {
                        scenario: job.scenario_index,
                        run: job.run_index,
                        ..WorkItem::default()
                    })
                    .collect(),
                Vec::new(),
            ),
        };
        let mut slots: Vec<Mutex<Option<RunResult>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let mut executed = 0;
        for (idx, result) in prefilled {
            if let Some(slot @ None) = slots.get_mut(idx).map(Mutex::get_mut) {
                *slot = Some(result);
                remaining[items[idx].flat_campaign] -= 1;
                executed += 1;
            }
        }
        let pending = (0..items.len())
            .filter(|&i| slots[i].get_mut().is_none())
            .collect();
        PlanRun {
            work,
            items,
            specs,
            trace_dir,
            remaining: remaining.into_iter().map(AtomicUsize::new).collect(),
            pending,
            next: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
            executed: AtomicUsize::new(executed),
            cancelled: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            busy: Vec::new(),
            started_at: Instant::now(),
            slots,
            traces: Mutex::new(Vec::new()),
            sinks,
        }
    }

    /// Emits `Started`, then finalizes at once when nothing will run: a
    /// `terminal` phase recovered from a journal, or no pending runs.
    fn start(&self, workers: usize, terminal: Option<PlanPhase>) {
        self.sinks.progress().event(&ProgressEvent::Started {
            total_runs: self.items.len(),
            campaigns: self.remaining.len(),
            workers,
        });
        if let Some(phase) = terminal.or(self.pending.is_empty().then_some(PlanPhase::Completed)) {
            self.finalize(phase);
        }
    }

    /// Claims the next pending flat index, if any is left.
    pub(crate) fn claim(&self) -> Option<usize> {
        let k = self.next.fetch_add(1, Ordering::SeqCst);
        self.pending.get(k).copied()
    }

    /// Pending runs claimed so far.
    fn claimed(&self) -> usize {
        self.next.load(Ordering::SeqCst).min(self.pending.len())
    }

    /// Executes claimed item `i` on `worker`, whose reusable capture
    /// buffer is `recorder`, publishes it, and retires the claim. A run
    /// claimed before its plan was cancelled is skipped, not executed.
    pub(crate) fn execute(&self, i: usize, worker: usize, recorder: &mut Recorder) {
        if !self.cancelled.load(Ordering::SeqCst) {
            let t0 = Instant::now();
            let item = self.items[i];
            let (template, fault, agent) = self.work.mission(i, &item);
            let spec = self.specs.get(item.flat_campaign).map(|spec| {
                // Pool plans differ in ring length; rebuild only on a change.
                if spec.level == TraceLevel::Blackbox
                    && recorder.capacity() != Some(spec.blackbox_frames.max(1))
                {
                    *recorder = spec.recorder();
                }
                (spec, &mut *recorder)
            });
            let (result, trace) =
                run_mission(template, item.scenario, item.run, fault, agent, spec);
            // Journal before the in-memory publish: a crash after the spool
            // write simply replays an already-slotted run on resume, which
            // determinism makes harmless; a crash before it re-executes the
            // run to the identical result.
            if let Some(spool) = self.sinks.spool() {
                spool.run_completed(i, &result, trace.as_ref());
            }
            if let Some(trace) = trace {
                match &self.trace_dir {
                    Some(dir) => {
                        avfi_trace::write_trace_file(dir, i, &trace)
                            .unwrap_or_else(|e| panic!("cannot write trace for run {i}: {e}"));
                    }
                    None => self.traces.lock().push((i, trace)),
                }
            }
            let (km, violations, success) = (
                result.distance_km,
                result.violations.len(),
                result.outcome.is_success(),
            );
            // Slot before counter: a reader seeing `executed == total` must
            // also see every slot filled.
            *self.slots[i].lock() = Some(result);
            if let Some(busy) = self.busy.get(worker) {
                *busy.lock() += t0.elapsed().as_secs_f64();
            }
            let completed = self.executed.fetch_add(1, Ordering::SeqCst) + 1;
            let progress = self.sinks.progress();
            progress.event(&ProgressEvent::RunCompleted {
                study: item.study,
                campaign: item.campaign,
                scenario: item.scenario,
                run: item.run,
                worker,
                completed,
                total: self.items.len(),
                km,
                violations,
                success,
            });
            let left = self.remaining.get(item.flat_campaign);
            if left.is_some_and(|left| left.fetch_sub(1, Ordering::AcqRel) == 1) {
                progress.event(&ProgressEvent::CampaignCompleted {
                    study: item.study,
                    campaign: item.campaign,
                    label: fault.label(),
                });
            }
        }
        // Every claim's events precede its retirement, so the worker that
        // retires the last one finalizes after all of them.
        let retired = self.retired.fetch_add(1, Ordering::SeqCst) + 1;
        if retired == self.pending.len() {
            let all = self.executed.load(Ordering::SeqCst) == self.items.len();
            self.finalize(if all {
                PlanPhase::Completed
            } else {
                PlanPhase::Cancelled
            });
        } else if self.cancelled.load(Ordering::SeqCst) && retired == self.claimed() {
            self.finalize(PlanPhase::Cancelled);
        }
    }

    /// Drains the plan on `workers` scoped threads that exit when nothing
    /// is left to claim, one busy fraction each in `Finished`, and returns
    /// the results in flat-plan order and the kept traces. A panicking run
    /// panics the caller once every thread has joined.
    pub(crate) fn drain_scoped(
        mut self,
        workers: usize,
    ) -> (Vec<RunResult>, Vec<(usize, RunTrace)>) {
        self.busy = (0..workers).map(|_| Mutex::new(0.0)).collect();
        self.start(workers, None);
        let run = &self;
        std::thread::scope(|scope| {
            for worker in 0..workers {
                scope.spawn(move || {
                    let mut recorder = Recorder::default();
                    while let Some(i) = run.claim() {
                        run.execute(i, worker, &mut recorder);
                    }
                });
            }
        });
        let runs = self.slots.into_iter();
        let runs = runs.map(|slot| slot.into_inner().expect("all runs completed"));
        (runs.collect(), self.traces.into_inner())
    }

    /// Cancels the plan: unstarted claims are skipped from now on, and a
    /// plan with nothing in flight finalizes here.
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        if self.retired.load(Ordering::SeqCst) == self.claimed()
            && self.executed.load(Ordering::SeqCst) < self.items.len()
        {
            self.finalize(PlanPhase::Cancelled);
        }
    }

    /// Moves the plan into a terminal phase exactly once: for `Completed`
    /// emits `Finished` and sorts kept traces, then records the phase,
    /// tells the spool, and wakes waiters.
    pub(crate) fn finalize(&self, phase: PlanPhase) {
        if self.finalized.swap(true, Ordering::AcqRel) {
            return;
        }
        if phase == PlanPhase::Completed {
            let elapsed = self.started_at.elapsed().as_secs_f64();
            let slots: Vec<_> = self.slots.iter().map(|slot| slot.lock()).collect();
            let runs = slots
                .iter()
                .map(|r| r.as_ref().expect("all runs completed"));
            self.sinks.progress().event(&ProgressEvent::Finished {
                elapsed,
                utilization: self
                    .busy
                    .iter()
                    .map(|b| (*b.lock() / elapsed.max(1e-12)).min(1.0))
                    .collect(),
                total_km: runs.clone().map(|r| r.distance_km).sum(),
                total_violations: runs.map(|r| r.violations.len()).sum(),
            });
            self.traces.lock().sort_by_key(|(idx, _)| *idx);
        }
        let actual = self.sinks.terminal(phase);
        if let Some(spool) = self.sinks.spool() {
            spool.plan_terminal(actual.name());
        }
        self.sinks.wake();
    }
}

/// One plan-tagged progress event: the `seq`-th event of plan `plan`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanEvent {
    /// The plan the event belongs to.
    pub plan: PlanId,
    /// Sequence number within the plan's event log (0-based, dense).
    pub seq: usize,
    /// The engine progress event.
    pub event: ProgressEvent,
}

/// The pool's sinks for one plan: its event log, which shares a lock with
/// the lifecycle so watchers see both consistently, and its journal.
struct PlanLog {
    id: PlanId,
    state: std::sync::Mutex<LogState>,
    changed: Condvar,
    spool: Option<Arc<dyn RunSink + Send + Sync>>,
    /// Set once, when the plan reaches a terminal phase — the clock
    /// retention sweeps measure against.
    finished_at: Mutex<Option<Instant>>,
    /// Result/trace payloads dropped by retention eviction (lifecycle
    /// status stays queryable).
    evicted: AtomicBool,
}

struct LogState {
    lifecycle: PlanLifecycle,
    events: Vec<PlanEvent>,
}

impl PlanLog {
    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state.lock().expect("plan state lock")
    }

    /// Blocks until `done` holds for the log state, then returns the
    /// events from `from` on and the phase.
    fn wait(&self, from: usize, done: impl Fn(&LogState) -> bool) -> (Vec<PlanEvent>, PlanPhase) {
        let mut st = self.lock();
        while !done(&st) {
            st = self.changed.wait(st).expect("plan state lock");
        }
        let events = st.events.get(from..).unwrap_or_default().to_vec();
        (events, st.lifecycle.phase())
    }
}

impl ProgressSink for PlanLog {
    fn event(&self, event: &ProgressEvent) {
        let mut st = self.lock();
        let seq = st.events.len();
        st.events.push(PlanEvent {
            plan: self.id,
            seq,
            event: event.clone(),
        });
        drop(st);
        self.changed.notify_all();
    }
}

impl PlanSinks for PlanLog {
    fn progress(&self) -> &dyn ProgressSink {
        self
    }

    fn spool(&self) -> Option<&dyn RunSink> {
        Some(self.spool.as_deref()?)
    }

    fn terminal(&self, phase: PlanPhase) -> PlanPhase {
        let mut st = self.lock();
        // Plans finalized without a claim (recovered, trivially complete)
        // pass through Running; cancel-before-start jumps Queued →
        // Cancelled.
        if phase != PlanPhase::Cancelled {
            st.lifecycle.advance_if_legal(PlanPhase::Running);
        }
        let actual = st.lifecycle.advance_if_legal(phase);
        drop(st);
        *self.finished_at.lock() = Some(Instant::now());
        actual
    }

    fn wake(&self) {
        self.changed.notify_all();
    }
}

type PoolPlan = PlanRun<'static, PlanLog>;

/// The persistent pool: long-lived workers multiplexing every submitted
/// plan. Dropping the pool without calling [`MultiplexPool::shutdown`]
/// detaches the workers (the daemon normally lives as long as the
/// process); `shutdown` cancels queued plans and joins the threads.
#[derive(Debug)]
pub struct MultiplexPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct PoolShared {
    workers: usize,
    sched: std::sync::Mutex<Sched>,
    work_ready: Condvar,
    next_plan_id: AtomicU64,
}

#[derive(Debug)]
struct Sched {
    /// Plans with unclaimed runs, in rotation order.
    active: VecDeque<Arc<PoolPlan>>,
    paused: bool,
    shutdown: bool,
}

/// A plan recovered from an `avfi-store` journal, re-submitted under its
/// original id with whatever the journal preserved. Built by the server's
/// spool recovery scan; see [`MultiplexPool::submit_recovered`]. Fresh
/// submissions are the same funnel with nothing recovered.
pub struct RecoveredSubmission {
    /// The recovered plan, parsed back from the journaled submission.
    pub plan: WorkPlan,
    /// Trace level the plan was originally submitted with.
    pub level: TraceLevel,
    /// Blackbox ring length in seconds (ignored unless `level` is
    /// `Blackbox`).
    pub blackbox_seconds: f64,
    /// The plan's **original** id — results stay fetchable under the
    /// handle the client already holds.
    pub id: PlanId,
    /// Journaled run results by flat plan index.
    pub prefilled: Vec<(usize, RunResult)>,
    /// Traces reloaded from spooled `.avtr` files, by flat plan index.
    pub traces: Vec<(usize, RunTrace)>,
    /// Journaled terminal phase, if the plan already finished: the plan
    /// reloads as fetchable terminal state without executing anything.
    pub terminal: Option<PlanPhase>,
    /// Journal to keep appending to while the gap re-executes.
    pub spool: Option<Arc<dyn RunSink + Send + Sync>>,
}

impl fmt::Debug for RecoveredSubmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveredSubmission")
            .field("id", &self.id)
            .field("level", &self.level)
            .field("prefilled", &self.prefilled.len())
            .field("traces", &self.traces.len())
            .field("terminal", &self.terminal)
            .finish_non_exhaustive()
    }
}

/// Client handle to one submitted plan. Cloneable; all clones observe the
/// same plan.
#[derive(Debug, Clone)]
pub struct PlanTicket {
    run: Arc<PoolPlan>,
    shared: Arc<PoolShared>,
}

impl PlanTicket {
    /// The server-assigned plan id.
    pub fn id(&self) -> PlanId {
        self.run.sinks.id
    }

    /// Total runs the plan flattens to.
    pub fn total_runs(&self) -> usize {
        self.run.items.len()
    }

    /// Runs executed so far.
    pub fn completed_runs(&self) -> usize {
        self.run.executed.load(Ordering::Acquire)
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> PlanPhase {
        self.run.sinks.lock().lifecycle.phase()
    }

    /// Cancels the plan: unclaimed runs are dropped, claimed-but-unstarted
    /// runs are skipped by the workers' cooperative check, in-flight runs
    /// finish. Returns the phase after the cancel took effect — a plan
    /// that already completed stays [`PlanPhase::Completed`].
    pub fn cancel(&self) -> PlanPhase {
        let mut sched = self.shared.sched.lock().expect("pool sched lock");
        sched.active.retain(|p| !Arc::ptr_eq(p, &self.run));
        drop(sched);
        self.run.cancel();
        self.phase()
    }

    /// Blocks until the plan reaches a terminal phase and returns it.
    pub fn wait_terminal(&self) -> PlanPhase {
        self.run
            .sinks
            .wait(usize::MAX, |st| st.lifecycle.phase().is_terminal())
            .1
    }

    /// The plan's results: `Some` once [`PlanPhase::Completed`], `None`
    /// otherwise (including cancelled and evicted plans).
    pub fn results(&self) -> Option<Vec<StudyResult>> {
        let Work::Plan(plan) = &self.run.work else {
            return None;
        };
        if self.phase() != PlanPhase::Completed {
            return None;
        }
        let runs = self.run.slots.iter().map(|slot| slot.lock().clone());
        Some(assemble_results(plan, runs.collect::<Option<_>>()?))
    }

    /// Blocks until terminal, then returns the results (`None` unless the
    /// plan completed).
    pub fn wait_results(&self) -> Option<Vec<StudyResult>> {
        self.wait_terminal();
        self.results()
    }

    /// The traces collected so far, keyed and (after completion) sorted
    /// by flat plan index.
    pub fn traces(&self) -> Vec<(usize, RunTrace)> {
        self.run.traces.lock().clone()
    }

    /// Time since the plan reached a terminal phase, `None` while it is
    /// still queued or running — the age a retention sweep compares
    /// against its cutoff.
    pub fn finished_elapsed(&self) -> Option<std::time::Duration> {
        self.run.sinks.finished_at.lock().map(|at| at.elapsed())
    }

    /// `true` once [`PlanTicket::evict_payloads`] dropped this plan's
    /// result and trace payloads.
    pub fn is_evicted(&self) -> bool {
        self.run.sinks.evicted.load(Ordering::Acquire)
    }

    /// Drops the plan's result and trace payloads to reclaim memory,
    /// keeping the lifecycle status (phase, run counters, event log)
    /// queryable. Only terminal plans can be evicted — a plan still
    /// queued or running is left untouched and `false` is returned.
    /// Idempotent; returns `true` once eviction has happened.
    pub fn evict_payloads(&self) -> bool {
        if !self.phase().is_terminal() {
            return false;
        }
        for slot in &self.run.slots {
            slot.lock().take();
        }
        self.run.traces.lock().clear();
        self.run.sinks.evicted.store(true, Ordering::Release);
        true
    }

    /// Snapshot of the event log from sequence number `from` on, plus the
    /// current phase.
    pub fn events_after(&self, from: usize) -> (Vec<PlanEvent>, PlanPhase) {
        self.run.sinks.wait(from, |_| true)
    }

    /// Blocks until the log grows past `from` or the plan is terminal,
    /// then returns the new events and the phase. An empty event list
    /// with a terminal phase means the stream is exhausted.
    pub fn wait_events_after(&self, from: usize) -> (Vec<PlanEvent>, PlanPhase) {
        self.run.sinks.wait(from, |st| {
            st.events.len() > from || st.lifecycle.phase().is_terminal()
        })
    }
}

impl MultiplexPool {
    /// A running pool with `workers` threads (0 = one per available
    /// core).
    pub fn new(workers: usize) -> Self {
        Self::build(workers, false)
    }

    /// A pool whose workers idle until [`MultiplexPool::resume`] — lets
    /// tests (and warm-up phases) stage several plans and then release
    /// them under a known rotation.
    pub fn paused(workers: usize) -> Self {
        Self::build(workers, true)
    }

    fn build(workers: usize, paused: bool) -> Self {
        let workers = if workers > 0 {
            workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        let shared = Arc::new(PoolShared {
            workers,
            sched: std::sync::Mutex::new(Sched {
                active: VecDeque::new(),
                paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            next_plan_id: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("avfi-pool-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        MultiplexPool { shared, handles }
    }

    /// The pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Releases a [`MultiplexPool::paused`] pool's workers.
    pub fn resume(&self) {
        self.shared.sched.lock().expect("pool sched lock").paused = false;
        self.shared.work_ready.notify_all();
    }

    /// Submits a plan without tracing; returns its ticket immediately.
    pub fn submit(&self, plan: WorkPlan) -> PlanTicket {
        self.submit_traced(plan, TraceLevel::Off, 30.0)
    }

    /// Submits a plan with the flight recorder at `level` (`Off` disables
    /// it); at [`TraceLevel::Blackbox`] the ring keeps the last
    /// `blackbox_seconds` of frames. Traces stay in memory on the plan
    /// ([`PlanTicket::traces`]) — the service owns persistence.
    pub fn submit_traced(
        &self,
        plan: WorkPlan,
        level: TraceLevel,
        blackbox_seconds: f64,
    ) -> PlanTicket {
        self.submit_spooled(plan, level, blackbox_seconds, |_| None)
    }

    /// [`MultiplexPool::submit_traced`] with a durable spool attached:
    /// the pool assigns the plan id first, hands it to `make_spool` (the
    /// server creates the plan's journal file there, named by id, and
    /// writes the `PlanSubmitted` record), and only then lets the plan
    /// enter the rotation — so every run a worker executes already has a
    /// journal to land in. A factory returning `None` (e.g. on an I/O
    /// failure it chose to swallow) submits the plan unspooled.
    pub fn submit_spooled(
        &self,
        plan: WorkPlan,
        level: TraceLevel,
        blackbox_seconds: f64,
        make_spool: impl FnOnce(PlanId) -> Option<Arc<dyn RunSink + Send + Sync>>,
    ) -> PlanTicket {
        let id = self.shared.next_plan_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.submit_full(RecoveredSubmission {
            plan,
            level,
            blackbox_seconds,
            id,
            prefilled: Vec::new(),
            traces: Vec::new(),
            terminal: None,
            spool: make_spool(id),
        })
    }

    /// Re-submits a plan recovered from an `avfi-store` journal under its
    /// **original** id: journaled results slot straight into their
    /// preassigned positions, recovered traces re-attach, and only the
    /// unjournaled gap fans out across the workers — so the final
    /// results are byte-identical to an uninterrupted run ([`Engine`]'s
    /// resume argument, lifted into the pool). Call
    /// [`MultiplexPool::reserve_plan_ids`] with the highest recovered id
    /// first so fresh submissions never collide.
    ///
    /// [`Engine`]: super::Engine
    pub fn submit_recovered(&self, sub: RecoveredSubmission) -> PlanTicket {
        self.reserve_plan_ids(sub.id);
        self.submit_full(sub)
    }

    /// Ensures future plan ids are strictly greater than `max_seen` —
    /// recovery calls this with the highest journaled id before
    /// accepting new submissions.
    pub fn reserve_plan_ids(&self, max_seen: PlanId) {
        self.shared
            .next_plan_id
            .fetch_max(max_seen, Ordering::Relaxed);
    }

    fn submit_full(&self, sub: RecoveredSubmission) -> PlanTicket {
        let specs = if sub.level == TraceLevel::Off {
            Vec::new()
        } else {
            plan_trace_specs(&sub.plan, sub.level, sub.blackbox_seconds)
        };
        let log = PlanLog {
            id: sub.id,
            state: std::sync::Mutex::new(LogState {
                lifecycle: PlanLifecycle::new(),
                events: Vec::new(),
            }),
            changed: Condvar::new(),
            spool: sub.spool,
            finished_at: Mutex::new(None),
            evicted: AtomicBool::new(false),
        };
        let work = Work::Plan(Cow::Owned(sub.plan));
        let run = Arc::new(PlanRun::new(work, specs, None, sub.prefilled, log));
        *run.traces.lock() = sub.traces;
        // A journaled terminal `Completed` implies full run coverage (the
        // journal appends every run record before the terminal one); if a
        // journal claims otherwise, ignore the claim and run the gap.
        let terminal = sub
            .terminal
            .filter(|&phase| phase != PlanPhase::Completed || run.pending.is_empty());
        run.start(self.shared.workers, terminal);
        if !run.finalized.load(Ordering::Acquire) {
            let mut sched = self.shared.sched.lock().expect("pool sched lock");
            sched.active.push_back(Arc::clone(&run));
            drop(sched);
            self.shared.work_ready.notify_all();
        }
        PlanTicket {
            run,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Cancels every queued plan, stops the workers (in-flight runs
    /// finish), and joins them.
    pub fn shutdown(self) {
        {
            let mut sched = self.shared.sched.lock().expect("pool sched lock");
            sched.shutdown = true;
            sched.active.drain(..).for_each(|plan| plan.cancel());
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles {
            handle.join().expect("pool worker panicked");
        }
    }
}

/// Claims the next run under fair round-robin: one run from the front
/// plan, which then rotates to the back while it has unclaimed runs. The
/// first claim moves a plan from Queued to Running.
fn claim_round_robin(sched: &mut Sched) -> Option<(Arc<PoolPlan>, usize)> {
    while let Some(plan) = sched.active.pop_front() {
        let Some(i) = plan.claim() else { continue };
        if plan.claimed() == 1 {
            plan.sinks
                .lock()
                .lifecycle
                .advance_if_legal(PlanPhase::Running);
        }
        if plan.claimed() < plan.pending.len() {
            sched.active.push_back(Arc::clone(&plan));
        }
        return Some((plan, i));
    }
    None
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    let mut recorder = Recorder::default();
    loop {
        let (plan, i) = {
            let mut sched = shared.sched.lock().expect("pool sched lock");
            loop {
                if sched.shutdown {
                    return;
                }
                if !sched.paused {
                    if let Some(claimed) = claim_round_robin(&mut sched) {
                        break claimed;
                    }
                }
                sched = shared.work_ready.wait(sched).expect("pool sched lock");
            }
        };
        plan.execute(i, worker, &mut recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Engine, WorkPlan};
    use super::*;
    use crate::campaign::{AgentSpec, CampaignConfig};
    use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
    use crate::fault::timing::TimingFault;
    use crate::fault::FaultSpec;
    use avfi_sim::scenario::{Scenario, TownSpec};

    fn quick_scenario(seed: u64) -> Scenario {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(15.0)
            .min_route_length(50.0)
            .build()
    }

    fn campaign(seed: u64, runs: usize, fault: FaultSpec) -> CampaignConfig {
        CampaignConfig::builder(vec![quick_scenario(seed), quick_scenario(seed + 1)])
            .runs_per_scenario(runs)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    }

    fn plan_a() -> WorkPlan {
        WorkPlan::new()
            .with_study("baseline", vec![campaign(40, 2, FaultSpec::None)])
            .with_study(
                "timing",
                vec![campaign(
                    44,
                    2,
                    FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
                )],
            )
    }

    fn plan_b() -> WorkPlan {
        WorkPlan::new().with_study("other", vec![campaign(52, 2, FaultSpec::None)])
    }

    fn json<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }

    /// The multiplexing gate: plans sharing one pool produce results
    /// byte-identical to a solo `Engine::execute` of each plan.
    #[test]
    fn multiplexed_plans_match_solo_engine() {
        let pool = MultiplexPool::new(3);
        let ta = pool.submit(plan_a());
        let tb = pool.submit(plan_b());
        let ra = ta.wait_results().expect("plan a completed");
        let rb = tb.wait_results().expect("plan b completed");
        assert_eq!(
            json(&ra),
            json(&Engine::new().workers(1).execute(&plan_a()))
        );
        assert_eq!(
            json(&rb),
            json(&Engine::new().workers(1).execute(&plan_b()))
        );
        assert_eq!(ta.phase(), PlanPhase::Completed);
        assert_eq!(ta.completed_runs(), ta.total_runs());
        pool.shutdown();
    }

    /// Many small plans on 4 workers: in every plan's log `Started` comes
    /// first, `Finished` last, and every run's event lands before it.
    #[test]
    fn events_are_plan_tagged_and_complete() {
        let pool = MultiplexPool::new(4);
        // Missions of a few frames, so runs of one plan finish together.
        let blink = |seed| quick_scenario(seed).to_builder().time_budget(0.2).build();
        let small = |seed| {
            let cfg = CampaignConfig::builder(vec![blink(seed), blink(seed + 1)])
                .runs_per_scenario(2)
                .build();
            WorkPlan::new().with_study("small", vec![cfg])
        };
        let mut tickets = vec![pool.submit(plan_a())];
        tickets.extend((0..100).map(|seed| pool.submit(small(seed))));
        for t in &tickets {
            assert_eq!(t.wait_terminal(), PlanPhase::Completed);
            let (events, _) = t.events_after(0);
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.plan, t.id());
                assert_eq!(e.seq, i);
            }
            assert!(matches!(
                events.first().unwrap().event,
                ProgressEvent::Started { .. }
            ));
            assert!(
                matches!(events.last().unwrap().event, ProgressEvent::Finished { .. }),
                "plan {}: Finished is not the last event",
                t.id()
            );
            let runs = events
                .iter()
                .filter(|e| matches!(e.event, ProgressEvent::RunCompleted { .. }))
                .count();
            assert_eq!(runs, t.total_runs());
        }
        pool.shutdown();
    }

    /// Records `(plan, flat index)` of every completed run, in order.
    struct CompletionOrder {
        plan: PlanId,
        order: Arc<Mutex<Vec<(PlanId, usize)>>>,
    }

    impl RunSink for CompletionOrder {
        fn run_completed(&self, flat_index: usize, _: &RunResult, _: Option<&RunTrace>) {
            self.order.lock().push((self.plan, flat_index));
        }
    }

    /// One worker, two staged plans: the rotation must alternate strictly
    /// — A0 B0 A1 B1 … — instead of draining A before B. With one worker
    /// completion order is claim order.
    #[test]
    fn round_robin_is_fair_across_plans() {
        let pool = MultiplexPool::paused(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let submit = || {
            pool.submit_spooled(plan_b(), TraceLevel::Off, 30.0, |plan| {
                let order = Arc::clone(&order);
                Some(Arc::new(CompletionOrder { plan, order }) as Arc<dyn RunSink + Send + Sync>)
            })
        };
        let ta = submit();
        let tb = submit();
        pool.resume();
        ta.wait_terminal();
        tb.wait_terminal();
        let order = order.lock();
        assert_eq!(order.len(), 8);
        for (i, (plan, idx)) in order.iter().enumerate() {
            let expect_plan = if i.is_multiple_of(2) {
                ta.id()
            } else {
                tb.id()
            };
            assert_eq!(*plan, expect_plan, "claim {i} went to the wrong plan");
            assert_eq!(*idx, i / 2, "claim {i} took the wrong item");
        }
        pool.shutdown();
    }

    #[test]
    fn cancel_before_start_yields_cancelled_without_results() {
        let pool = MultiplexPool::paused(2);
        let t = pool.submit(plan_a());
        assert_eq!(t.cancel(), PlanPhase::Cancelled);
        pool.resume();
        assert_eq!(t.wait_terminal(), PlanPhase::Cancelled);
        assert!(t.results().is_none());
        assert_eq!(t.completed_runs(), 0);
        // The pool stays healthy for later plans.
        let t2 = pool.submit(plan_b());
        assert!(t2.wait_results().is_some());
        pool.shutdown();
    }

    #[test]
    fn cancel_mid_plan_keeps_pool_and_neighbors_healthy() {
        let pool = MultiplexPool::new(2);
        // A long plan (32 runs) and a short neighbor.
        let long = WorkPlan::new().with_study(
            "long",
            vec![
                campaign(60, 8, FaultSpec::None),
                campaign(70, 8, FaultSpec::None),
            ],
        );
        let t_long = pool.submit(long);
        let t_short = pool.submit(plan_b());
        // Wait until the long plan actually progressed, then cancel it.
        t_long.wait_events_after(1);
        let phase = t_long.cancel();
        assert!(phase.is_terminal() || phase == PlanPhase::Running);
        let terminal = t_long.wait_terminal();
        assert!(terminal.is_terminal());
        if terminal == PlanPhase::Cancelled {
            assert!(t_long.results().is_none());
            assert!(t_long.completed_runs() < t_long.total_runs());
        }
        // The neighbor still completes bit-identically.
        let rb = t_short.wait_results().expect("short plan completed");
        assert_eq!(
            json(&rb),
            json(&Engine::new().workers(1).execute(&plan_b()))
        );
        pool.shutdown();
    }

    #[test]
    fn empty_plan_completes_immediately() {
        let pool = MultiplexPool::new(1);
        let t = pool.submit(WorkPlan::new());
        assert_eq!(t.wait_terminal(), PlanPhase::Completed);
        assert_eq!(t.results().expect("empty results").len(), 0);
        pool.shutdown();
    }

    #[test]
    fn shutdown_cancels_queued_plans() {
        let pool = MultiplexPool::paused(1);
        let t = pool.submit(plan_b());
        pool.shutdown();
        assert_eq!(t.wait_terminal(), PlanPhase::Cancelled);
    }

    /// Traced submissions collect blackbox traces in memory, keyed by
    /// flat index and invariant to pool scheduling — and byte-equal to
    /// the trace files a traced `Engine` writes for the same plan.
    #[test]
    fn traced_submission_collects_worker_invariant_traces() {
        let stuck = FaultSpec::Hardware(HardwareFault::always(
            HardwareTarget::ControlBrake,
            BitFaultModel::StuckAt { value: 1.0 },
        ));
        let plan = WorkPlan::new().with_study("stuck", vec![campaign(80, 2, stuck)]);
        let collect = |workers: usize| {
            let pool = MultiplexPool::new(workers);
            let t = pool.submit_traced(plan.clone(), TraceLevel::Blackbox, 5.0);
            t.wait_terminal();
            let traces = t.traces();
            pool.shutdown();
            traces
        };
        let one = collect(1);
        let four = collect(4);
        assert!(!one.is_empty(), "stuck-brake plan must emit failure traces");
        assert_eq!(
            json(&one),
            json(&four),
            "traces must be scheduling-invariant"
        );
        let indices: Vec<usize> = one.iter().map(|(i, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "traces sorted by flat index");

        let dir = std::env::temp_dir().join(format!("avfi-pool-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = super::super::TraceConfig::new(&dir, TraceLevel::Blackbox);
        config.blackbox_seconds = 5.0;
        Engine::new().workers(2).with_trace(config).execute(&plan);
        let files = avfi_trace::list_trace_files(&dir).unwrap();
        assert_eq!(files.len(), one.len());
        for (path, (idx, trace)) in files.iter().zip(&one) {
            assert!(path.ends_with(avfi_trace::trace_file_name(*idx)));
            assert_eq!(std::fs::read(path).unwrap(), avfi_trace::encode(trace));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A recovered terminal plan reloads as fetchable state without
    /// executing anything; a recovered interrupted plan executes only
    /// its gap — both byte-identical to a solo run, both under their
    /// original ids, with fresh ids reserved past them.
    #[test]
    fn recovered_submissions_reload_and_resume() {
        let plan = plan_a();
        let solo = Engine::new().workers(1).execute(&plan);
        let solo_json = json(&solo);
        // Harvest per-run results by flat index from a fresh pool run.
        let harvest = MultiplexPool::new(2);
        let t = harvest.submit(plan.clone());
        t.wait_terminal();
        harvest.shutdown();
        let runs: Vec<(usize, RunResult)> = {
            // Re-derive flat-indexed runs from the solo results: flat
            // order is campaign-major, (scenario, run) within.
            let mut flat = Vec::new();
            for study in &solo {
                for campaign in &study.campaigns {
                    for run in campaign.runs() {
                        flat.push(run.clone());
                    }
                }
            }
            flat.into_iter().enumerate().collect()
        };
        let total = plan.total_runs();
        assert_eq!(runs.len(), total);

        let pool = MultiplexPool::new(2);
        // Terminal reload: full prefill + journaled "completed".
        let reloaded = pool.submit_recovered(RecoveredSubmission {
            plan: plan.clone(),
            level: TraceLevel::Off,
            blackbox_seconds: 5.0,
            id: 11,
            prefilled: runs.clone(),
            traces: Vec::new(),
            terminal: Some(PlanPhase::Completed),
            spool: None,
        });
        assert_eq!(reloaded.id(), 11);
        assert_eq!(reloaded.wait_terminal(), PlanPhase::Completed);
        assert_eq!(json(&reloaded.wait_results().expect("reloaded")), solo_json);
        assert_eq!(reloaded.completed_runs(), total);

        // Gap resume: half the runs prefilled, no terminal record.
        let resumed = pool.submit_recovered(RecoveredSubmission {
            plan: plan.clone(),
            level: TraceLevel::Off,
            blackbox_seconds: 5.0,
            id: 12,
            prefilled: runs[..total / 2].to_vec(),
            traces: Vec::new(),
            terminal: None,
            spool: None,
        });
        assert_eq!(resumed.id(), 12);
        assert_eq!(resumed.wait_terminal(), PlanPhase::Completed);
        assert_eq!(json(&resumed.wait_results().expect("resumed")), solo_json);

        // A journaled "completed" without full coverage is downgraded:
        // the gap executes instead of reloading a lying terminal state.
        let downgraded = pool.submit_recovered(RecoveredSubmission {
            plan: plan.clone(),
            level: TraceLevel::Off,
            blackbox_seconds: 5.0,
            id: 13,
            prefilled: runs[..1].to_vec(),
            traces: Vec::new(),
            terminal: Some(PlanPhase::Completed),
            spool: None,
        });
        assert_eq!(downgraded.wait_terminal(), PlanPhase::Completed);
        assert_eq!(
            json(&downgraded.wait_results().expect("downgraded")),
            solo_json
        );

        // Fresh submissions allocate past every recovered id.
        let fresh = pool.submit(plan_b());
        assert!(fresh.id() > 13, "fresh id {} not reserved", fresh.id());
        pool.shutdown();
    }
}
