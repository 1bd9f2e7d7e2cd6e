//! Plans the daemon cannot run are refused at submit. A neural plan with
//! unparseable weights used to reach the pool, where building the agent
//! panicked the only worker: that plan stayed `Running 0/2` and every
//! later plan `Queued` forever.

use avfi_agent::IlNetwork;
use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::WorkPlan;
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{solo_results_json, CampaignServer, ServiceClient};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::sync::Arc;

fn scenario(seed: u64) -> Scenario {
    let mut town = TownSpec::grid(2, 2);
    town.signalized = false;
    Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(0)
        .pedestrians(0)
        .time_budget(6.0)
        .min_route_length(50.0)
        .build()
}

fn campaign(seed: u64, agent: AgentSpec) -> CampaignConfig {
    CampaignConfig::builder(vec![scenario(seed)])
        .runs_per_scenario(2)
        .agent(agent)
        .build()
}

fn bad_weights() -> AgentSpec {
    AgentSpec::Neural {
        weights: Arc::new(vec![1, 2, 3]),
    }
}

fn spool_entries(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).expect("spool dir").count()
}

#[test]
fn bad_neural_weights_are_refused_and_the_pool_survives() {
    let spool = std::env::temp_dir().join(format!("avfi-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("create spool");
    // One worker: the worker the bad plan used to kill was the only one.
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_spool(Some(spool.clone()), false)
        .expect("spool");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut c = ServiceClient::connect(&addr).expect("connect");

    // The repro plan, and the same blob hidden behind a valid campaign.
    let repro = WorkPlan::single("bad", campaign(5, bad_weights()));
    let mixed = WorkPlan::new()
        .with_study("ok", vec![campaign(6, AgentSpec::Expert)])
        .with_study("bad", vec![campaign(7, bad_weights())]);
    let before = spool_entries(&spool);
    for plan in [&repro, &mixed] {
        match c.submit(plan, TraceLevel::Off) {
            Err(NetError::Protocol(message)) => assert!(
                message.contains("invalid neural weights") && message.contains("\"bad\""),
                "unclear rejection: {message}"
            ),
            other => panic!("bad weights must be refused at submit, got {other:?}"),
        }
    }
    assert_eq!(
        spool_entries(&spool),
        before,
        "a refused plan opened a journal"
    );

    // The same connection and the single worker still serve a valid plan
    // (expert plus a parseable neural blob) byte-identical to solo.
    let mut net = IlNetwork::new(3);
    let valid = WorkPlan::new()
        .with_study("expert", vec![campaign(8, AgentSpec::Expert)])
        .with_study("neural", vec![campaign(9, AgentSpec::neural(&mut net))]);
    let (id, total) = c.submit(&valid, TraceLevel::Off).expect("valid submit");
    assert_eq!(total, valid.total_runs());
    assert_eq!(c.wait_terminal(id).expect("wait"), PlanPhase::Completed);
    assert_eq!(
        c.results_json(id).expect("results"),
        solo_results_json(&valid).expect("solo")
    );

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&spool);
}
