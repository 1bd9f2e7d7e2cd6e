//! # avfi-server — fault injection as a service
//!
//! AVFI frames campaign execution as a client/server system: the
//! simulation cluster runs campaigns while experimenters submit work and
//! pull results from the outside. This crate is that seam for the
//! reproduction — a persistent daemon ([`CampaignServer`]) that accepts
//! serialized [`WorkPlan`]s from many concurrent TCP clients, multiplexes
//! every plan onto one shared [`MultiplexPool`], streams per-plan
//! progress events back as frames, and serves results and traces by plan
//! id; plus the matching client library ([`ServiceClient`]) the
//! `avfi-client` CLI wraps.
//!
//! ## Protocol
//!
//! The wire format is the [`avfi_net::proto`] campaign protocol:
//! [`ServiceRequest`] / [`ServiceReply`] frames over the same
//! length-prefixed framing the lockstep simulation loop uses. Plan,
//! event, result, and trace payloads are opaque JSON strings on the wire
//! (`avfi-net` sits below `avfi-core`); this crate owns the concrete
//! types on both ends and serializes them with the same `serde_json`,
//! so a retrieved results payload is **byte-identical** to a local
//! `serde_json::to_string` of the same solo [`Engine`] run — the
//! property the determinism gate diffs on.
//!
//! ## Concurrency model
//!
//! One thread per connection, all submissions landing in one shared
//! [`MultiplexPool`] (fair round-robin across plans, per-plan
//! cancellation). Client disconnects never abort a running plan: the
//! server's plan registry keeps the [`PlanTicket`] until shutdown, so a
//! client can drop mid-watch and later fetch results over a fresh
//! connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avfi_agent::IlNetwork;
use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::engine::{Engine, MultiplexPool, PlanTicket, RecoveredSubmission, RunSink};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{ProgressEvent, StudyResult, WorkPlan};
use avfi_net::proto::{PlanId, PlanPhase, ServiceReply, ServiceRequest};
use avfi_net::{NetError, TcpTransport};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_store::{Journal, JournalRecord, PlanJournal};
use avfi_trace::{RunTrace, TraceLevel};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Plans the server has accepted, kept until daemon shutdown so results
/// outlive the submitting connection.
type Registry = parking_lot::Mutex<BTreeMap<PlanId, PlanTicket>>;

/// Durable-spool state of a daemon running `--spool`: the journal
/// directory plus the interrupted plans recovered at startup that await
/// an explicit [`ServiceRequest::Resume`] (a daemon started with
/// auto-resume has an always-empty map).
#[derive(Debug)]
struct SpoolState {
    dir: PathBuf,
    resumable: parking_lot::Mutex<BTreeMap<PlanId, ResumableEntry>>,
}

/// Status snapshot of one interrupted plan; the full state (results,
/// traces, the journal itself) reloads from disk at resume time.
#[derive(Debug, Clone, Copy)]
struct ResumableEntry {
    /// Runs recovered from the journal.
    completed: usize,
    /// Total runs in the plan.
    total: usize,
}

/// The campaign daemon: accepts connections, executes submitted plans on
/// one shared pool, serves progress/results/traces by plan id.
#[derive(Debug)]
pub struct CampaignServer {
    listener: TcpListener,
    addr: SocketAddr,
    pool: Arc<MultiplexPool>,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    retention: Option<Duration>,
    auth_token: Option<String>,
    spool: Option<Arc<SpoolState>>,
}

impl CampaignServer {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port) with
    /// `workers` pool threads (0 = one per core).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, workers: usize) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(CampaignServer {
            listener,
            addr,
            pool: Arc::new(MultiplexPool::new(workers)),
            registry: Arc::new(parking_lot::Mutex::new(BTreeMap::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
            retention: None,
            auth_token: None,
            spool: None,
        })
    }

    /// Attaches a durable spool: every accepted plan is write-ahead
    /// journaled into `dir` (`plan-<id>.avj`, traces under `plan-<id>/`),
    /// and journals already in `dir` are recovered immediately — terminal
    /// plans reload as fetchable results, interrupted plans re-enter the
    /// pool right away when `auto_resume` is set or park until a
    /// [`ServiceRequest::Resume`] otherwise. `None` (the default) keeps
    /// all plan state in memory only.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating or scanning the spool directory.
    pub fn with_spool(mut self, dir: Option<PathBuf>, auto_resume: bool) -> Result<Self, NetError> {
        let Some(dir) = dir else {
            self.spool = None;
            return Ok(self);
        };
        std::fs::create_dir_all(&dir)?;
        let state = Arc::new(SpoolState {
            dir,
            resumable: parking_lot::Mutex::new(BTreeMap::new()),
        });
        let mut max_id = 0;
        for (id, path) in avfi_store::list_journals(&state.dir)? {
            max_id = max_id.max(id);
            recover_journal(&self.pool, &self.registry, &state, id, &path, auto_resume);
        }
        self.pool.reserve_plan_ids(max_id);
        self.spool = Some(state);
        Ok(self)
    }

    /// Limits how long finished plans keep their result and trace
    /// payloads: any plan terminal for longer than `retention` has its
    /// payloads evicted on the next request the daemon serves. Lifecycle
    /// status (phase, run counters) stays queryable after eviction;
    /// result/trace fetches return a protocol error naming the eviction.
    /// `None` (the default) retains payloads until shutdown.
    pub fn with_retention(mut self, retention: Option<Duration>) -> Self {
        self.retention = retention;
        self
    }

    /// Requires every connection to open with a
    /// [`ServiceRequest::Hello`] carrying this shared secret before any
    /// other request is served. A wrong token — or any non-hello first
    /// frame — gets a [`ServiceReply::Error`] and the connection is
    /// closed; nothing about the daemon's state is revealed first.
    /// `None` (the default) serves every connection unauthenticated.
    pub fn with_auth_token(mut self, token: Option<String>) -> Self {
        self.auth_token = token;
        self
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves connections until a client sends [`ServiceRequest::Shutdown`].
    /// Each connection gets its own thread; plans keep running when their
    /// submitter disconnects. On shutdown every still-active plan is
    /// cancelled and the call returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures (interrupted accepts are
    /// retried).
    pub fn run(self) -> Result<(), NetError> {
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            let pool = Arc::clone(&self.pool);
            let registry = Arc::clone(&self.registry);
            let shutdown = Arc::clone(&self.shutdown);
            let addr = self.addr;
            let retention = self.retention;
            let auth = self.auth_token.clone();
            let spool = self.spool.clone();
            // Detached: a handler blocked on an idle client's next request
            // must not delay shutdown; the process owns thread lifetime.
            std::thread::Builder::new()
                .name("avfi-conn".into())
                .spawn(move || {
                    handle_connection(
                        stream,
                        &pool,
                        &registry,
                        &shutdown,
                        addr,
                        retention,
                        auth.as_deref(),
                        spool.as_deref(),
                    )
                })
                .expect("spawn connection handler");
        }
        for ticket in self.registry.lock().values() {
            ticket.cancel();
        }
        Ok(())
    }
}

/// Serves one connection: a loop of request/reply exchanges. Returns (and
/// drops the connection) when the client disconnects or breaks framing;
/// submitted plans are unaffected either way.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    pool: &MultiplexPool,
    registry: &Registry,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    retention: Option<Duration>,
    auth_token: Option<&str>,
    spool: Option<&SpoolState>,
) {
    let Ok(mut transport) = TcpTransport::new(stream) else {
        return;
    };
    if authenticate(&mut transport, auth_token).is_err() {
        return;
    }
    loop {
        let request: ServiceRequest = match transport.recv_value() {
            Ok(r) => r,
            // Disconnect, torn frame, or junk: this client is done.
            Err(_) => return,
        };
        sweep_expired(registry, retention, spool);
        let keep_going = serve_request(
            &mut transport,
            request,
            pool,
            registry,
            shutdown,
            addr,
            spool,
        );
        if keep_going.is_err() {
            // The client vanished mid-reply (e.g. dropped during a watch
            // stream); its plans keep running for later retrieval.
            return;
        }
    }
}

/// Gates a fresh connection on the shared secret. With no token
/// configured this is a no-op (the serve loop still answers voluntary
/// hellos); with one, the first frame must be a matching
/// [`ServiceRequest::Hello`] — anything else is answered with a protocol
/// error and `Err` tells the caller to drop the connection. The error
/// message does not distinguish a wrong token from a missing hello, so a
/// probe learns nothing beyond "authentication failed".
fn authenticate(transport: &mut TcpTransport, auth_token: Option<&str>) -> Result<(), ()> {
    let Some(expected) = auth_token else {
        return Ok(());
    };
    let request: ServiceRequest = transport.recv_value().map_err(|_| ())?;
    match request {
        ServiceRequest::Hello { token } if token == expected => {
            transport.send_value(&ServiceReply::HelloOk).map_err(|_| ())
        }
        _ => {
            // Best-effort courtesy reply; the close is the real answer.
            let _ = transport.send_value(&ServiceReply::Error {
                message: "authentication failed: this daemon requires a valid \
                          hello token as the first request"
                    .into(),
            });
            Err(())
        }
    }
}

/// Handles one request, sending every reply frame it produces. `Err`
/// means the *connection* failed; request-level failures are reported to
/// the client as [`ServiceReply::Error`] and return `Ok`.
#[allow(clippy::too_many_arguments)]
fn serve_request(
    transport: &mut TcpTransport,
    request: ServiceRequest,
    pool: &MultiplexPool,
    registry: &Registry,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    spool: Option<&SpoolState>,
) -> Result<(), NetError> {
    match request {
        // Authenticated connections (and open daemons) answer voluntary
        // hellos idempotently, so a client configured with a token works
        // against a daemon running without one.
        ServiceRequest::Hello { .. } => transport.send_value(&ServiceReply::HelloOk),
        ServiceRequest::SubmitPlan {
            plan_json,
            trace_level,
        } => {
            let Some(level) = TraceLevel::parse(&trace_level) else {
                return transport.send_value(&ServiceReply::Error {
                    message: format!("unknown trace level {trace_level:?}"),
                });
            };
            match serde_json::from_str::<WorkPlan>(&plan_json) {
                Ok(plan) => {
                    if let Err(message) = check_weights(&plan) {
                        return transport.send_value(&ServiceReply::Error { message });
                    }
                    let ticket = match spool {
                        Some(spool) => {
                            let dir = spool.dir.clone();
                            pool.submit_spooled(plan, level, 30.0, move |id| {
                                open_plan_journal(&dir, id, plan_json, level)
                            })
                        }
                        None => pool.submit_traced(plan, level, 30.0),
                    };
                    registry.lock().insert(ticket.id(), ticket.clone());
                    transport.send_value(&ServiceReply::Submitted {
                        plan: ticket.id(),
                        total_runs: ticket.total_runs(),
                    })
                }
                Err(e) => transport.send_value(&ServiceReply::Error {
                    message: format!("malformed plan: {e}"),
                }),
            }
        }
        ServiceRequest::Watch { plan, from_event } => {
            let Some(ticket) = lookup(registry, plan) else {
                if resumable_entry(spool, plan).is_some() {
                    return send_interrupted(transport, plan);
                }
                return send_unknown_plan(transport, plan);
            };
            let mut next = from_event;
            loop {
                let (events, phase) = ticket.wait_events_after(next);
                for e in &events {
                    let event_json = serde_json::to_string(&e.event)
                        .map_err(|err| NetError::Codec(err.to_string()))?;
                    transport.send_value(&ServiceReply::Event {
                        plan,
                        seq: e.seq,
                        event_json,
                    })?;
                }
                next += events.len();
                if phase.is_terminal() {
                    // The snapshot and the phase come from one lock hold,
                    // so a terminal phase means the log above is complete.
                    return transport.send_value(&ServiceReply::WatchEnd { plan, phase });
                }
            }
        }
        ServiceRequest::Results { plan } => {
            let Some(ticket) = lookup(registry, plan) else {
                if resumable_entry(spool, plan).is_some() {
                    return send_interrupted(transport, plan);
                }
                return send_unknown_plan(transport, plan);
            };
            if ticket.is_evicted() {
                return send_evicted(transport, plan);
            }
            match ticket.wait_results() {
                Some(results) => {
                    let results_json = serde_json::to_string(&results)
                        .map_err(|e| NetError::Codec(e.to_string()))?;
                    transport.send_value(&ServiceReply::Results { plan, results_json })
                }
                None => transport.send_value(&ServiceReply::Error {
                    message: format!("plan {plan} has no results (phase {})", ticket.phase()),
                }),
            }
        }
        ServiceRequest::Traces { plan } => {
            let Some(ticket) = lookup(registry, plan) else {
                if resumable_entry(spool, plan).is_some() {
                    return send_interrupted(transport, plan);
                }
                return send_unknown_plan(transport, plan);
            };
            if ticket.is_evicted() {
                return send_evicted(transport, plan);
            }
            ticket.wait_terminal();
            let traces_json = serde_json::to_string(&ticket.traces())
                .map_err(|e| NetError::Codec(e.to_string()))?;
            transport.send_value(&ServiceReply::Traces { plan, traces_json })
        }
        ServiceRequest::Cancel { plan } => {
            let Some(ticket) = lookup(registry, plan) else {
                if let Some(spool) = spool {
                    // Atomically claim the interrupted plan out of the
                    // resumable map; put it back if the cancel fails.
                    if let Some(entry) = spool.resumable.lock().remove(&plan) {
                        return match cancel_resumable(pool, spool, plan) {
                            Some(ticket) => {
                                registry.lock().insert(plan, ticket.clone());
                                transport.send_value(&ServiceReply::Cancelled {
                                    plan,
                                    phase: ticket.phase(),
                                })
                            }
                            None => {
                                spool.resumable.lock().insert(plan, entry);
                                transport.send_value(&ServiceReply::Error {
                                    message: format!(
                                        "plan {plan}: cancel failed (journal unreadable)"
                                    ),
                                })
                            }
                        };
                    }
                }
                return send_unknown_plan(transport, plan);
            };
            let phase = ticket.cancel();
            transport.send_value(&ServiceReply::Cancelled { plan, phase })
        }
        ServiceRequest::Resume { plan } => {
            // Idempotent on live and recovered-terminal plans: report the
            // current state instead of erroring.
            if let Some(ticket) = lookup(registry, plan) {
                return transport.send_value(&ServiceReply::Resumed {
                    plan,
                    phase: ticket.phase(),
                    completed: ticket.completed_runs(),
                    total: ticket.total_runs(),
                });
            }
            let Some(spool) = spool else {
                return send_unknown_plan(transport, plan);
            };
            // Atomically claim the interrupted plan out of the resumable
            // map; put it back if the resume fails.
            let Some(entry) = spool.resumable.lock().remove(&plan) else {
                return send_unknown_plan(transport, plan);
            };
            match resume_spooled(pool, spool, plan) {
                Ok(ticket) => {
                    registry.lock().insert(plan, ticket.clone());
                    transport.send_value(&ServiceReply::Resumed {
                        plan,
                        phase: ticket.phase(),
                        completed: ticket.completed_runs(),
                        total: ticket.total_runs(),
                    })
                }
                Err(e) => {
                    spool.resumable.lock().insert(plan, entry);
                    transport.send_value(&ServiceReply::Error {
                        message: format!("plan {plan}: resume failed: {e}"),
                    })
                }
            }
        }
        ServiceRequest::Status { plan } => {
            let Some(ticket) = lookup(registry, plan) else {
                if let Some(entry) = resumable_entry(spool, plan) {
                    return transport.send_value(&ServiceReply::Status {
                        plan,
                        phase: PlanPhase::Interrupted,
                        completed: entry.completed,
                        total: entry.total,
                    });
                }
                return send_unknown_plan(transport, plan);
            };
            transport.send_value(&ServiceReply::Status {
                plan,
                phase: ticket.phase(),
                completed: ticket.completed_runs(),
                total: ticket.total_runs(),
            })
        }
        ServiceRequest::Shutdown => {
            shutdown.store(true, Ordering::Release);
            let ack = transport.send_value(&ServiceReply::ShuttingDown);
            // Unblock the accept loop so it observes the flag; the
            // throwaway connection is dropped immediately.
            drop(TcpStream::connect(addr));
            ack
        }
    }
}

/// Parses every distinct neural weight blob in `plan` once, so a plan
/// whose agent could not be built is refused at submit — before it
/// reaches the pool, where the run would panic its worker, and before a
/// journal is opened for it.
fn check_weights(plan: &WorkPlan) -> Result<(), String> {
    let mut parsed: Vec<&[u8]> = Vec::new();
    for study in plan.studies() {
        for (index, campaign) in study.campaigns.iter().enumerate() {
            let AgentSpec::Neural { weights } = &campaign.agent else {
                continue;
            };
            if parsed.contains(&weights.as_slice()) {
                continue;
            }
            IlNetwork::from_weights(weights).map_err(|e| {
                format!(
                    "invalid neural weights in study {:?}, campaign {index}: {e}",
                    study.name
                )
            })?;
            parsed.push(weights);
        }
    }
    Ok(())
}

/// The retention sweep: evicts result/trace payloads of every plan that
/// has been terminal for longer than `retention`. Runs opportunistically
/// before each request is served — a daemon receiving no requests hoards
/// nothing new, so there is no need for a timer thread. Tickets stay in
/// the registry (status keeps working); only the payloads go — including
/// the plan's spooled journal and trace files when a spool is attached,
/// so eviction reclaims disk as well as memory.
fn sweep_expired(registry: &Registry, retention: Option<Duration>, spool: Option<&SpoolState>) {
    let Some(retention) = retention else {
        return;
    };
    // Clone the tickets out so payload eviction (which takes per-plan
    // locks) never runs under the registry lock.
    let tickets: Vec<PlanTicket> = registry.lock().values().cloned().collect();
    for ticket in tickets {
        if !ticket.is_evicted()
            && ticket
                .finished_elapsed()
                .is_some_and(|age| age >= retention)
        {
            ticket.evict_payloads();
            if let Some(spool) = spool {
                let id = ticket.id();
                let _ = std::fs::remove_file(spool.dir.join(avfi_store::journal_file_name(id)));
                let _ = std::fs::remove_dir_all(spool.dir.join(avfi_store::trace_dir_name(id)));
            }
        }
    }
}

/// Opens the write-ahead journal for a freshly accepted plan (the
/// [`MultiplexPool::submit_spooled`] factory): creates
/// `dir/plan-<id>.avj`, writes the [`JournalRecord::PlanSubmitted`]
/// record, and points trace spooling at `dir/plan-<id>/`. Journal
/// creation failures degrade to an unspooled plan (reported on stderr) —
/// the daemon keeps serving rather than rejecting work over disk trouble.
fn open_plan_journal(
    dir: &Path,
    id: PlanId,
    plan_json: String,
    level: TraceLevel,
) -> Option<Arc<dyn RunSink + Send + Sync>> {
    let path = dir.join(avfi_store::journal_file_name(id));
    let mut journal = match Journal::create(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "[avfi-server] spool journal create failed ({}): {e}",
                path.display()
            );
            return None;
        }
    };
    if let Err(e) = journal.append(&JournalRecord::PlanSubmitted {
        plan_json,
        trace_level: level.as_str().to_string(),
    }) {
        eprintln!(
            "[avfi-server] spool journal append failed ({}): {e}",
            path.display()
        );
        return None;
    }
    let trace_dir = dir.join(avfi_store::trace_dir_name(id));
    Some(Arc::new(PlanJournal::new(journal, Some(trace_dir))))
}

/// Recovers one spooled journal at daemon startup: terminal plans reload
/// into the registry as fetchable state (results assembled from the
/// journal, byte-identical to the uninterrupted run); interrupted plans
/// re-enter the pool immediately under `auto_resume`, or park in the
/// resumable map until a [`ServiceRequest::Resume`] otherwise.
/// Unrecoverable journals are skipped with a stderr note — recovery
/// never takes the daemon down.
fn recover_journal(
    pool: &MultiplexPool,
    registry: &Registry,
    spool: &SpoolState,
    id: PlanId,
    path: &Path,
    auto_resume: bool,
) {
    let (records, journal) = match Journal::resume(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "[avfi-server] spool recovery failed ({}): {e}",
                path.display()
            );
            return;
        }
    };
    let Some(rec) = avfi_store::summarize(&records) else {
        // Header-only or unparseable journal: nothing to reload.
        return;
    };
    let level = TraceLevel::parse(&rec.trace_level).unwrap_or(TraceLevel::Off);
    let terminal = match rec.terminal.as_deref() {
        // The journal appends every run record before the terminal one,
        // so "completed" without full coverage cannot happen through the
        // ordered path; if a journal claims it anyway, fall through to
        // interrupted and re-run the gap.
        Some("completed") if rec.is_complete() => Some(PlanPhase::Completed),
        Some("cancelled") => Some(PlanPhase::Cancelled),
        Some("failed") => Some(PlanPhase::Failed),
        _ => None,
    };
    let total = rec.plan.total_runs();
    if let Some(phase) = terminal {
        drop(journal); // terminal: nothing more to append; the file stays
        let traces = load_spooled_traces(&spool.dir, id);
        let ticket = pool.submit_recovered(RecoveredSubmission {
            plan: rec.plan,
            level,
            blackbox_seconds: 30.0,
            id,
            prefilled: rec.completed,
            traces,
            terminal: Some(phase),
            spool: None,
        });
        registry.lock().insert(id, ticket);
    } else if auto_resume {
        let traces = load_spooled_traces(&spool.dir, id);
        let trace_dir = spool.dir.join(avfi_store::trace_dir_name(id));
        let sink = Arc::new(PlanJournal::new(journal, Some(trace_dir)));
        let ticket = pool.submit_recovered(RecoveredSubmission {
            plan: rec.plan,
            level,
            blackbox_seconds: 30.0,
            id,
            prefilled: rec.completed,
            traces,
            terminal: None,
            spool: Some(sink),
        });
        registry.lock().insert(id, ticket);
    } else {
        drop(journal);
        spool.resumable.lock().insert(
            id,
            ResumableEntry {
                completed: rec.completed.len(),
                total,
            },
        );
    }
}

/// Reloads the `.avtr` traces a spooled plan's runs left in
/// `spool/plan-<id>/`, keyed by flat plan index. Unreadable files are
/// skipped — a missing trace never blocks recovery.
fn load_spooled_traces(dir: &Path, id: PlanId) -> Vec<(usize, RunTrace)> {
    let trace_dir = dir.join(avfi_store::trace_dir_name(id));
    let files = avfi_trace::list_trace_files(&trace_dir).unwrap_or_default();
    files
        .iter()
        .filter_map(|p| {
            let idx: usize = p
                .file_stem()?
                .to_str()?
                .strip_prefix("run-")?
                .parse()
                .ok()?;
            let trace = avfi_trace::read_trace_file(p).ok()?;
            Some((idx, trace))
        })
        .collect()
}

/// Reloads an interrupted plan from its journal and re-enters it into
/// the pool: journaled runs prefill their slots, spooled traces
/// re-attach, and only the unjournaled gap re-executes — with the
/// reopened journal attached so further progress keeps spooling.
fn resume_spooled(pool: &MultiplexPool, spool: &SpoolState, id: PlanId) -> io::Result<PlanTicket> {
    let path = spool.dir.join(avfi_store::journal_file_name(id));
    let (records, journal) = Journal::resume(&path)?;
    let rec = avfi_store::summarize(&records).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "journal lost its submission record",
        )
    })?;
    let level = TraceLevel::parse(&rec.trace_level).unwrap_or(TraceLevel::Off);
    let traces = load_spooled_traces(&spool.dir, id);
    let trace_dir = spool.dir.join(avfi_store::trace_dir_name(id));
    let sink = Arc::new(PlanJournal::new(journal, Some(trace_dir)));
    Ok(pool.submit_recovered(RecoveredSubmission {
        plan: rec.plan,
        level,
        blackbox_seconds: 30.0,
        id,
        prefilled: rec.completed,
        traces,
        terminal: None,
        spool: Some(sink),
    }))
}

/// Cancels an interrupted (not yet resumed) plan: journals the terminal
/// record so the cancellation survives restarts, then reloads the plan
/// as a terminal status-only registry entry. `None` when the journal is
/// unreadable.
fn cancel_resumable(pool: &MultiplexPool, spool: &SpoolState, id: PlanId) -> Option<PlanTicket> {
    let path = spool.dir.join(avfi_store::journal_file_name(id));
    let (records, mut journal) = Journal::resume(&path).ok()?;
    let rec = avfi_store::summarize(&records)?;
    if let Err(e) = journal.append(&JournalRecord::PlanTerminal {
        phase: "cancelled".into(),
    }) {
        eprintln!(
            "[avfi-server] spool cancel append failed ({}): {e}",
            path.display()
        );
    }
    drop(journal);
    let level = TraceLevel::parse(&rec.trace_level).unwrap_or(TraceLevel::Off);
    Some(pool.submit_recovered(RecoveredSubmission {
        plan: rec.plan,
        level,
        blackbox_seconds: 30.0,
        id,
        prefilled: rec.completed,
        traces: Vec::new(),
        terminal: Some(PlanPhase::Cancelled),
        spool: None,
    }))
}

fn lookup(registry: &Registry, plan: PlanId) -> Option<PlanTicket> {
    registry.lock().get(&plan).cloned()
}

fn resumable_entry(spool: Option<&SpoolState>, plan: PlanId) -> Option<ResumableEntry> {
    spool.and_then(|s| s.resumable.lock().get(&plan).copied())
}

fn send_interrupted(transport: &mut TcpTransport, plan: PlanId) -> Result<(), NetError> {
    transport.send_value(&ServiceReply::Error {
        message: format!("plan {plan} is interrupted (recovered from the spool); resume it first"),
    })
}

fn send_evicted(transport: &mut TcpTransport, plan: PlanId) -> Result<(), NetError> {
    transport.send_value(&ServiceReply::Error {
        message: format!(
            "plan {plan} results evicted: retention window elapsed (status remains available)"
        ),
    })
}

fn send_unknown_plan(transport: &mut TcpTransport, plan: PlanId) -> Result<(), NetError> {
    transport.send_value(&ServiceReply::Error {
        message: format!("unknown plan id {plan}"),
    })
}

/// Client side of the campaign protocol: one connection, a sequence of
/// request/reply exchanges (see [`avfi_net::proto`]).
#[derive(Debug)]
pub struct ServiceClient {
    transport: TcpTransport,
}

impl ServiceClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        Ok(ServiceClient {
            transport: TcpTransport::connect(addr)?,
        })
    }

    /// Connects and, when `token` is given, opens with a hello frame —
    /// required against a daemon running `--auth-token`, harmless (and
    /// acknowledged) against an open one.
    ///
    /// # Errors
    ///
    /// Connection failures, or [`NetError::Protocol`] when the daemon
    /// rejects the token.
    pub fn connect_with_token(addr: &str, token: Option<&str>) -> Result<Self, NetError> {
        let mut client = Self::connect(addr)?;
        if let Some(token) = token {
            client.hello(token)?;
        }
        Ok(client)
    }

    /// Authenticates this connection with the daemon's shared secret.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the daemon
    /// rejects the token.
    pub fn hello(&mut self, token: &str) -> Result<(), NetError> {
        match self.request(&ServiceRequest::Hello {
            token: token.to_string(),
        })? {
            ServiceReply::HelloOk => Ok(()),
            other => Err(Self::fail(other)),
        }
    }

    fn request(&mut self, request: &ServiceRequest) -> Result<ServiceReply, NetError> {
        self.transport.send_value(request)?;
        self.transport.recv_value()
    }

    /// Turns a [`ServiceReply::Error`] into [`NetError::Protocol`].
    fn fail(reply: ServiceReply) -> NetError {
        match reply {
            ServiceReply::Error { message } => NetError::Protocol(message),
            other => NetError::Protocol(format!("unexpected {} reply", other.kind())),
        }
    }

    /// Submits a plan; returns its server-assigned id and total run count.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the server
    /// rejects the plan.
    pub fn submit(
        &mut self,
        plan: &WorkPlan,
        trace_level: TraceLevel,
    ) -> Result<(PlanId, usize), NetError> {
        let plan_json = serde_json::to_string(plan).map_err(|e| NetError::Codec(e.to_string()))?;
        match self.request(&ServiceRequest::SubmitPlan {
            plan_json,
            trace_level: trace_level.as_str().to_string(),
        })? {
            ServiceReply::Submitted { plan, total_runs } => Ok((plan, total_runs)),
            other => Err(Self::fail(other)),
        }
    }

    /// Streams a plan's progress events (starting at sequence number
    /// `from_event`) into `on_event` until the plan is terminal; returns
    /// the terminal phase.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans
    /// and undecodable events.
    pub fn watch(
        &mut self,
        plan: PlanId,
        from_event: usize,
        mut on_event: impl FnMut(usize, ProgressEvent),
    ) -> Result<PlanPhase, NetError> {
        self.transport
            .send_value(&ServiceRequest::Watch { plan, from_event })?;
        loop {
            match self.transport.recv_value()? {
                ServiceReply::Event {
                    seq, event_json, ..
                } => {
                    let event: ProgressEvent = serde_json::from_str(&event_json)
                        .map_err(|e| NetError::Protocol(format!("undecodable event: {e}")))?;
                    on_event(seq, event);
                }
                ServiceReply::WatchEnd { phase, .. } => return Ok(phase),
                other => return Err(Self::fail(other)),
            }
        }
    }

    /// Blocks until the plan reaches a terminal phase and returns it
    /// (a watch from past the end of the event stream).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServiceClient::watch`].
    pub fn wait_terminal(&mut self, plan: PlanId) -> Result<PlanPhase, NetError> {
        self.watch(plan, usize::MAX, |_, _| {})
    }

    /// Retrieves a completed plan's results as the server's raw JSON
    /// payload — the byte-exact artifact the determinism gate diffs
    /// against a solo engine run. Blocks until the plan is terminal.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the plan is
    /// unknown or finished without results (cancelled/failed).
    pub fn results_json(&mut self, plan: PlanId) -> Result<String, NetError> {
        match self.request(&ServiceRequest::Results { plan })? {
            ServiceReply::Results { results_json, .. } => Ok(results_json),
            other => Err(Self::fail(other)),
        }
    }

    /// Retrieves and deserializes a completed plan's results.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServiceClient::results_json`].
    pub fn results(&mut self, plan: PlanId) -> Result<Vec<StudyResult>, NetError> {
        let json = self.results_json(plan)?;
        serde_json::from_str(&json).map_err(|e| NetError::Protocol(format!("bad results: {e}")))
    }

    /// Retrieves a plan's traces as the server's raw JSON payload.
    /// Blocks until the plan is terminal.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn traces_json(&mut self, plan: PlanId) -> Result<String, NetError> {
        match self.request(&ServiceRequest::Traces { plan })? {
            ServiceReply::Traces { traces_json, .. } => Ok(traces_json),
            other => Err(Self::fail(other)),
        }
    }

    /// Retrieves and deserializes a plan's traces, keyed by flat plan
    /// index.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServiceClient::traces_json`].
    pub fn traces(&mut self, plan: PlanId) -> Result<Vec<(usize, RunTrace)>, NetError> {
        let json = self.traces_json(plan)?;
        serde_json::from_str(&json).map_err(|e| NetError::Protocol(format!("bad traces: {e}")))
    }

    /// Cancels a plan; returns the phase after the cancel took effect.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn cancel(&mut self, plan: PlanId) -> Result<PlanPhase, NetError> {
        match self.request(&ServiceRequest::Cancel { plan })? {
            ServiceReply::Cancelled { phase, .. } => Ok(phase),
            other => Err(Self::fail(other)),
        }
    }

    /// Resumes an interrupted plan recovered from the daemon's spool;
    /// returns `(phase, completed, total)` after the resume took effect.
    /// Idempotent on plans that are already running or terminal.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans
    /// and unreadable journals.
    pub fn resume(&mut self, plan: PlanId) -> Result<(PlanPhase, usize, usize), NetError> {
        match self.request(&ServiceRequest::Resume { plan })? {
            ServiceReply::Resumed {
                phase,
                completed,
                total,
                ..
            } => Ok((phase, completed, total)),
            other => Err(Self::fail(other)),
        }
    }

    /// Queries a plan's phase and `(completed, total)` run counters.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn status(&mut self, plan: PlanId) -> Result<(PlanPhase, usize, usize), NetError> {
        match self.request(&ServiceRequest::Status { plan })? {
            ServiceReply::Status {
                phase,
                completed,
                total,
                ..
            } => Ok((phase, completed, total)),
            other => Err(Self::fail(other)),
        }
    }

    /// Asks the daemon to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] on an unexpected
    /// reply.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.request(&ServiceRequest::Shutdown)? {
            ServiceReply::ShuttingDown => Ok(()),
            other => Err(Self::fail(other)),
        }
    }
}

/// Reconnect policy for [`with_retries`]: how many times to re-dial a
/// daemon whose connection dropped, and how long to back off between
/// dials (linear: attempt `k` of `attempts` waits `k × backoff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the initial try. 0 = fail fast.
    pub attempts: u32,
    /// Base backoff; attempt `k` sleeps `k × backoff` before dialing.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: the initial attempt's error is final.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Up to `attempts` reconnects with linear `backoff` between dials.
    pub fn new(attempts: u32, backoff: Duration) -> Self {
        RetryPolicy { attempts, backoff }
    }
}

/// Runs `op` against a fresh [`ServiceClient`] connection, reconnecting
/// with linear backoff when the daemon hangs up mid-exchange
/// ([`NetError::Disconnected`]). Every other error — protocol rejections,
/// codec failures, non-hangup I/O — is final immediately: retrying those
/// would loop on a deterministic failure.
///
/// `op` takes the connected client by `&mut` and may be called once per
/// attempt, so it must be written to be re-runnable: idempotent requests
/// (watch-from-sequence, results, status) retry transparently, while a
/// retried `submit` re-submits and can duplicate a plan whose first
/// submission landed just before the hangup — callers resuming a watch
/// should track the last seen sequence number in captured state (see the
/// `avfi-client` CLI) so the replay starts where the dead connection
/// stopped.
///
/// # Errors
///
/// The last attempt's error once the policy is exhausted, or the first
/// non-disconnect error.
pub fn with_retries<T>(
    addr: &str,
    policy: RetryPolicy,
    op: impl FnMut(&mut ServiceClient) -> Result<T, NetError>,
) -> Result<T, NetError> {
    with_retries_authed(addr, None, policy, op)
}

/// [`with_retries`] against a daemon that may require an auth token:
/// every reconnect re-runs the hello handshake before `op`, so a dropped
/// connection retried against an authenticated daemon does not trip the
/// first-frame gate. A rejected token is a protocol error and therefore
/// final — retrying a wrong secret would loop on a deterministic failure.
///
/// # Errors
///
/// Same conditions as [`with_retries`].
pub fn with_retries_authed<T>(
    addr: &str,
    token: Option<&str>,
    policy: RetryPolicy,
    mut op: impl FnMut(&mut ServiceClient) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut attempt = 0u32;
    loop {
        let result =
            ServiceClient::connect_with_token(addr, token).and_then(|mut client| op(&mut client));
        match result {
            Err(NetError::Disconnected) if attempt < policy.attempts => {
                attempt += 1;
                std::thread::sleep(policy.backoff * attempt);
            }
            other => return other,
        }
    }
}

/// The demo plan the quickstart and the smoke tier submit: a baseline
/// study next to an output-delay study on small deterministic towns —
/// big enough to exercise multiplexed scheduling, small enough to finish
/// in seconds.
pub fn demo_plan() -> WorkPlan {
    fn scenario(seed: u64) -> Scenario {
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
    fn campaign(seed: u64, fault: FaultSpec) -> CampaignConfig {
        CampaignConfig::builder(vec![scenario(seed), scenario(seed + 1)])
            .runs_per_scenario(1)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    }
    WorkPlan::new()
        .with_study("baseline", vec![campaign(2018, FaultSpec::None)])
        .with_study(
            "output-delay",
            vec![campaign(
                2018,
                FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
            )],
        )
}

/// Executes `plan` in-process with a solo single-worker [`Engine`] and
/// returns the results serialized exactly as the server serializes them —
/// the reference artifact for the determinism gate.
///
/// # Errors
///
/// Propagates serialization failures (none occur for these types).
pub fn solo_results_json(plan: &WorkPlan) -> Result<String, serde_json::Error> {
    serde_json::to_string(&Engine::new().workers(1).execute(plan))
}
