//! Spool recovery across daemon restarts: finished plans reload
//! fetchable with byte-identical results, interrupted journals surface
//! as resumable (or restart automatically with auto-resume) and resume
//! to the same bytes an uninterrupted run produces, and retention
//! eviction deletes the spooled files while plan status survives.

use avfi_core::campaign::RunResult;
use avfi_core::engine::NullSink;
use avfi_core::{Engine, RunSink, WorkPlan};
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{demo_plan, solo_results_json, CampaignServer, ServiceClient};
use avfi_store::{Journal, JournalRecord};
use avfi_trace::TraceLevel;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fresh_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avfi-spool-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

fn spawn_daemon(
    spool: &Path,
    auto_resume: bool,
    retention: Option<Duration>,
) -> (String, std::thread::JoinHandle<()>) {
    let server = CampaignServer::bind("127.0.0.1:0", 2)
        .expect("bind")
        .with_retention(retention)
        .with_spool(Some(spool.to_path_buf()), auto_resume)
        .expect("spool recovery");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || {
        server.run().expect("daemon run");
    });
    (addr, daemon)
}

/// Writes an interrupted journal for `plan` under plan id `id`: the
/// submission record plus the first `completed` runs, no terminal — what
/// a daemon killed mid-plan leaves behind.
fn write_interrupted_journal(spool: &Path, id: u64, plan: &WorkPlan, completed: usize) {
    #[derive(Default)]
    struct Collect(parking_lot::Mutex<Vec<(usize, RunResult)>>);
    impl RunSink for Collect {
        fn run_completed(
            &self,
            flat_index: usize,
            result: &RunResult,
            _trace: Option<&avfi_trace::RunTrace>,
        ) {
            self.0.lock().push((flat_index, result.clone()));
        }
    }
    let collector = Collect::default();
    Engine::new()
        .workers(2)
        .execute_resumed(plan, Vec::new(), &NullSink, Some(&collector));
    let runs = collector.0.into_inner();
    assert!(completed <= runs.len());

    let path = spool.join(avfi_store::journal_file_name(id));
    let mut journal = Journal::create(&path).expect("create journal");
    journal
        .append(&JournalRecord::PlanSubmitted {
            plan_json: serde_json::to_string(plan).expect("plan serializes"),
            trace_level: "off".into(),
        })
        .expect("append submission");
    for (idx, result) in &runs[..completed] {
        journal
            .append(&JournalRecord::RunCompleted {
                flat_index: *idx as u64,
                result_json: serde_json::to_string(result).expect("result serializes"),
            })
            .expect("append run");
    }
}

/// A completed plan's results survive a daemon restart byte for byte,
/// served from the journal alone.
#[test]
fn completed_plan_survives_restart_byte_identical() {
    let spool = fresh_spool("restart");
    let plan = demo_plan();

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    let (id, total) = c.submit(&plan, TraceLevel::Off).expect("submit");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let before = c.results_json(id).expect("results before restart");
    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");

    // "Restart": a new daemon over the same spool directory.
    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("reconnect");
    let (phase, completed, reported_total) = c.status(id).expect("status after restart");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!(completed, total);
    assert_eq!(reported_total, total);
    let after = c.results_json(id).expect("results after restart");
    assert_eq!(after, before, "recovered results must be byte-identical");

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// An interrupted journal parks the plan as resumable: status reports
/// `interrupted` with true counters, payload fetches direct the client
/// to resume, and an explicit resume re-executes only the missing runs —
/// final bytes identical to an uninterrupted solo run.
#[test]
fn interrupted_plan_resumes_to_identical_bytes() {
    let spool = fresh_spool("resume");
    let plan = demo_plan();
    let id = 7u64;
    write_interrupted_journal(&spool, id, &plan, 2);
    let reference = solo_results_json(&plan).expect("solo reference");

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");

    let (phase, completed, total) = c.status(id).expect("status");
    assert_eq!(phase, PlanPhase::Interrupted);
    assert_eq!(completed, 2);
    assert_eq!(total, plan.total_runs());

    match c.results_json(id) {
        Err(NetError::Protocol(message)) => {
            assert!(message.contains("resume"), "unhelpful error: {message}");
        }
        other => panic!("expected interrupted protocol error, got {other:?}"),
    }

    let (phase, _, resumed_total) = c.resume(id).expect("resume");
    assert_ne!(phase, PlanPhase::Interrupted);
    assert_eq!(resumed_total, total);
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let results = c.results_json(id).expect("results after resume");
    assert_eq!(results, reference, "resumed results must be byte-identical");

    // Resume is idempotent on a finished plan.
    let (phase, completed, _) = c.resume(id).expect("idempotent resume");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!(completed, total);

    // New submissions never collide with recovered plan ids.
    let (new_id, _) = c.submit(&plan, TraceLevel::Off).expect("fresh submit");
    assert!(new_id > id, "recovered ids must be reserved, got {new_id}");

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// With `--auto-resume` the interrupted plan re-enters the pool at
/// startup — no explicit resume needed — and completes identically.
#[test]
fn auto_resume_restarts_interrupted_plans() {
    let spool = fresh_spool("auto");
    let plan = demo_plan();
    let id = 3u64;
    write_interrupted_journal(&spool, id, &plan, 1);
    let reference = solo_results_json(&plan).expect("solo reference");

    let (addr, daemon) = spawn_daemon(&spool, true, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let results = c.results_json(id).expect("results");
    assert_eq!(results, reference);

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// A short retention with a spool: the sweep deletes the plan's journal
/// (and trace directory) from the spool while status stays queryable —
/// so a later restart no longer resurrects the evicted plan.
#[test]
fn retention_sweep_deletes_spooled_files() {
    let spool = fresh_spool("evict");
    let plan = demo_plan();

    // Not zero: a plan that finishes before the server reads the watch
    // request would be swept by that very request, before the check that
    // the journal exists while retained.
    let retention = Duration::from_secs(1);
    let (addr, daemon) = spawn_daemon(&spool, false, Some(retention));
    let mut c = ServiceClient::connect(&addr).expect("connect");
    let (id, total) = c.submit(&plan, TraceLevel::Blackbox).expect("submit");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let journal_path = spool.join(avfi_store::journal_file_name(id));
    assert!(journal_path.exists(), "journal must exist while retained");

    // Any served request triggers the sweep once the plan has expired.
    std::thread::sleep(retention);
    let _ = c.results_json(id);
    let (phase, completed, reported_total) = c.status(id).expect("status after sweep");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!(completed, total);
    assert_eq!(reported_total, total);
    assert!(
        !journal_path.exists(),
        "sweep must delete the spooled journal"
    );
    assert!(
        !spool.join(avfi_store::trace_dir_name(id)).exists(),
        "sweep must delete the spooled trace directory"
    );

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}
