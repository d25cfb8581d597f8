//! Fault-injection integration tests: overload and failure drills against a
//! real server, driven by the deterministic [`FaultPlan`] schedule.
//!
//! Each test injects one failure mode — an ANN latency spike, a worker
//! panic mid-load-test, a spent deadline — and asserts the server's
//! *documented* reaction: degrade or reject, count it in `serve.*` /
//! `load.*` metrics, and keep serving the next batch.

use std::sync::Arc;
use std::time::Duration;

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_model::{ModelConfig, UnifiedCtrModel};
use zoomer_obs::MetricsRegistry;
use zoomer_serving::{
    run_load, FaultInjector, FaultPlan, FaultSite, FrozenModel, LoadTestSpec, OnlineServer, Query,
    ServingConfig, ShedPolicy,
};

fn build_server(
    config: ServingConfig,
    fault: Option<Arc<FaultInjector>>,
) -> (TaobaoData, OnlineServer) {
    let data = TaobaoData::generate(TaobaoConfig::tiny(55));
    let dd = data.graph.features().dense_dim();
    let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
    let frozen = FrozenModel::from_model(&mut model, &data.graph);
    let items = data.item_nodes();
    let mut builder = OnlineServer::builder()
        .graph(Arc::new(
            zoomer_graph::read_snapshot(zoomer_graph::write_snapshot(&data.graph))
                .expect("snapshot roundtrip"),
        ))
        .frozen(frozen)
        .item_pool(&items)
        .config(config)
        .seed(55)
        .metrics(Arc::new(MetricsRegistry::enabled()));
    if let Some(f) = fault {
        builder = builder.fault(f);
    }
    (data, builder.build().expect("server build"))
}

fn requests(data: &TaobaoData, n: usize) -> Vec<Query> {
    data.logs.iter().take(n).map(|l| Query::new(l.user, l.query)).collect()
}

#[test]
fn ann_latency_spike_triggers_degraded_fallback_and_server_recovers() {
    // Every 2nd batch hits a 20ms spike right before the ANN stage; the
    // deadline is 5ms, so those batches must answer from the inverted-index
    // fallback instead of erroring or blowing the budget on ANN work.
    let fault = Arc::new(
        FaultPlan::new(9).delay(FaultSite::AnnProbe, 2, Duration::from_millis(20)).build(),
    );
    let config =
        ServingConfig { top_k: 10, deadline: Some(Duration::from_millis(5)), ..Default::default() };
    let (data, server) = build_server(config, Some(Arc::clone(&fault)));
    let reqs = requests(&data, 8);

    let mut fallbacks = 0usize;
    for chunk in reqs.chunks(2) {
        let out = server.handle_batch(chunk).expect("an admitted batch must always answer");
        assert_eq!(out.len(), chunk.len(), "degraded batches still answer every request");
        let snap = server.metrics_snapshot();
        if snap.counter("serve.degraded.fallback").unwrap_or(0) > fallbacks as u64 {
            fallbacks = snap.counter("serve.degraded.fallback").unwrap_or(0) as usize;
        }
    }
    assert!(fault.injected(FaultSite::AnnProbe) >= 2, "period-2 rule must fire on 4 batches");
    let snap = server.metrics_snapshot();
    let degraded = snap.counter("serve.degraded.fallback").expect("counter registered");
    assert!(degraded > 0, "spiked batches must be served degraded");
    assert!(
        degraded < snap.counter("serve.requests").expect("counter registered"),
        "unspiked batches must be served normally"
    );
    // After the drill the server still serves a clean batch.
    let out = server.handle_batch(&reqs[..2]).expect("server must keep serving after faults");
    assert_eq!(out.len(), 2);
}

#[test]
fn ann_round_spike_caps_the_probe_width() {
    // A fresh server has no ANN cost history (EWMA 0), so the first bounded
    // batch takes the round-major probe; a 30ms delay injected at every
    // probe round overruns the 5ms budget and must cap nprobe mid-probe.
    let fault = Arc::new(
        FaultPlan::new(4).delay(FaultSite::AnnRound, 1, Duration::from_millis(30)).build(),
    );
    let config = ServingConfig {
        top_k: 10,
        nprobe: 4,
        deadline: Some(Duration::from_millis(5)),
        ..Default::default()
    };
    let (data, server) = build_server(config, Some(Arc::clone(&fault)));
    let out = server.handle_batch(&requests(&data, 2)).expect("capped batch still answers");
    assert_eq!(out.len(), 2);
    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.counter("serve.degraded.budget_capped"),
        Some(1),
        "overrunning the budget mid-probe must cap nprobe"
    );
    assert!(fault.injected(FaultSite::AnnRound) >= 1);
    assert!(fault.calls(FaultSite::AnnRound) < 4, "a capped probe must not have run all 4 rounds");
}

#[test]
fn zero_deadline_rejects_cleanly_and_is_counted() {
    let config = ServingConfig { top_k: 10, deadline: Some(Duration::ZERO), ..Default::default() };
    let (data, server) = build_server(config, None);
    let reqs = requests(&data, 3);
    for _ in 0..3 {
        let err = server.handle_batch(&reqs).expect_err("zero budget must reject");
        assert_eq!(err, zoomer_serving::ServingError::DeadlineExceeded { stage: "admission" });
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("serve.deadline_exceeded"), Some(3));
    assert_eq!(snap.counter("serve.batches"), Some(0));
}

#[test]
fn injected_worker_panic_is_contained_and_reported_by_the_load_harness() {
    // Every 5th batch panics at the cache-resolve boundary. The load workers
    // must contain the panic, tally its requests as errors, and finish the
    // run with the partition invariant intact.
    let fault = Arc::new(
        FaultPlan::new(2)
            .action(FaultSite::CacheResolve, 5, || panic!("injected fault: worker down"))
            .build(),
    );
    let (data, server) =
        build_server(ServingConfig { top_k: 10, ..Default::default() }, Some(fault));
    let reqs = requests(&data, 60);
    let report = run_load(&server, &reqs, &LoadTestSpec::closed().batch_size(4).num_threads(2))
        .expect("run survives injected panics");
    assert!(report.panics > 0, "period-5 panic rule must fire during 15 batches");
    assert!(report.errors > 0, "panicked batches' requests must be tallied as errors");
    assert_eq!(report.completed + report.errors + report.shed, report.offered);
    assert!(report.completed > 0, "non-panicked batches must complete");
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("load.panics"), Some(report.panics as u64));
    // The server itself is untouched: once the injected schedule moves past
    // the panic call, batches serve normally again (checked by `completed`
    // covering batches issued *after* panicked ones in the same run).
}

#[test]
fn same_seed_injects_the_same_fault_schedule() {
    let run = |seed: u64| -> (u64, u64, u64) {
        let fault = Arc::new(
            FaultPlan::new(seed)
                .delay(FaultSite::AnnProbe, 3, Duration::from_micros(10))
                .delay(FaultSite::Embed, 4, Duration::from_micros(10))
                .build(),
        );
        let (data, server) = build_server(
            ServingConfig { top_k: 10, ..Default::default() },
            Some(Arc::clone(&fault)),
        );
        let reqs = requests(&data, 24);
        for chunk in reqs.chunks(2) {
            server.handle_batch(chunk).expect("serve");
        }
        (
            fault.injected(FaultSite::AnnProbe),
            fault.injected(FaultSite::Embed),
            fault.injected_total(),
        )
    };
    assert_eq!(run(11), run(11), "same seed must produce the same injected counts");
    assert_eq!(run(11).2, 12 / 3 + 12 / 4, "12 batches at periods 3 and 4");
}

#[test]
fn overload_with_deadline_sheds_and_metrics_round_trip() {
    // The full overload demo in miniature: a tight queue, a deadline, and
    // far-beyond-capacity offered load. The run must shed, never block, and
    // every new counter must survive the text and JSON snapshot paths.
    // Every batch's ANN probe sleeps 5 ms, so one worker serves at most 4
    // requests per 5 ms: 500 000/s into a 4-slot queue is far beyond that
    // by construction, however fast the scan is.
    let fault =
        Arc::new(FaultPlan::new(8).delay(FaultSite::AnnProbe, 1, Duration::from_millis(5)).build());
    let config = ServingConfig {
        top_k: 10,
        deadline: Some(Duration::from_millis(50)),
        ..Default::default()
    };
    let (data, server) = build_server(config, Some(fault));
    let reqs = requests(&data, 80);
    let spec =
        LoadTestSpec::open(500_000.0).queue_capacity(4).shed(ShedPolicy::RejectNew).batch_size(4);
    let report = run_load(&server, &reqs, &spec).expect("overload run");
    assert!(report.shed > 0, "overload far beyond capacity must shed");
    assert_eq!(report.completed + report.errors + report.shed, report.offered);

    let snap = server.metrics_snapshot();
    for name in [
        "serve.deadline_exceeded",
        "serve.degraded.fallback",
        "serve.degraded.budget_capped",
        "load.shed",
        "load.errors",
        "load.panics",
    ] {
        assert!(snap.counter(name).is_some(), "{name} must be registered");
        assert!(snap.to_text().contains(name), "{name} missing from text rendering");
    }
    assert_eq!(snap.counter("load.shed"), Some(report.shed as u64));
    let round =
        zoomer_obs::Snapshot::from_json_lines(&snap.to_json_lines()).expect("json round trip");
    for name in ["serve.deadline_exceeded", "load.shed", "load.errors", "load.panics"] {
        assert_eq!(round.counter(name), snap.counter(name), "{name} lost in JSON round trip");
    }
}
