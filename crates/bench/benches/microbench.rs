//! Criterion micro-benchmarks for the Loki runtime and analysis paths.
//!
//! The thesis's performance analysis (§3.2.2) argues that Loki's own
//! overheads — fault-expression parsing, recording, notification handling —
//! are minimal next to OS context-switch costs; these benchmarks quantify
//! our implementation's equivalents, plus the off-line analysis and
//! measure-evaluation costs.

use criterion::{criterion_group, BatchSize, Criterion};
use loki_analysis::global::{make_global, GlobalOptions};
use loki_analysis::{accepted_timelines, analyze, analyze_one_pooled, AnalysisOptions, ShellPool};
use loki_apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki_bench::accuracy::{injection_accuracy, AccuracyConfig};
use loki_bench::report;
use loki_clock::params::{ClockParams, VirtualClock};
use loki_clock::sync::{estimate_alpha_beta, SyncOptions};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::fault::{FaultExpr, FaultParser, Trigger};
use loki_core::ids::{Id, SymbolTable};
use loki_core::recorder::Recorder;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use loki_core::view::PartialView;
use loki_measure::fig42::{fig_4_2, predicate_3};
use loki_measure::obsfn::{ImpulseStep, ObservationFn, UpDown};
use loki_measure::prelude::*;
use loki_runtime::harness::{
    run_study_with_workers, try_run_experiment, CampaignPipeline, SimHarnessConfig,
};
use loki_runtime::messages::NotifyRouting;
use loki_sim::config::HostConfig;
use std::sync::Arc;

/// Fault parser re-evaluation on a view change (the §3.5.5 hot path).
fn bench_fault_parser(c: &mut Criterion) {
    // Twenty faults over a five-machine view, mixed expressions.
    let def = (0..5).fold(StudyDef::new("s"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B", "C"])
                .events(&["go"])
                .state("A", &[], &[("go", "B")])
                .build(),
        )
    });
    let def = (0..20).fold(def, |def, i| {
        let expr = FaultExpr::atom(&format!("m{}", i % 5), "B")
            .and(FaultExpr::atom(&format!("m{}", (i + 1) % 5), "A").not())
            .or(FaultExpr::atom(&format!("m{}", (i + 2) % 5), "C"));
        def.fault("m0", &format!("f{i}"), expr, Trigger::Always)
    });
    let study = Study::compile(&def).unwrap();
    let faults = study.faults_owned_by(study.sm_id("m0").unwrap());
    let b = study.states.lookup("B").unwrap();
    let a = study.states.lookup("A").unwrap();

    c.bench_function("fault_parser/20_faults_view_change", |bencher| {
        bencher.iter_batched(
            || {
                let mut view = PartialView::new(5);
                for i in 0..5u32 {
                    view.set(Id::from_raw(i), a);
                }
                (FaultParser::new(faults.clone()), view)
            },
            |(mut parser, mut view)| {
                for i in 0..5u32 {
                    view.set(Id::from_raw(i), b);
                    criterion::black_box(parser.on_view_change(&view));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// Incremental vs. full fault-parser re-evaluation on a large study: 32
/// machines, 64 faults. A node's view changes one machine at a time, so
/// the parser indexes expressions by the machines they mention and
/// re-evaluates only those ([`FaultParser::on_machine_change`]); this
/// benchmark quantifies the win over the full `on_view_change` scan.
fn bench_fault_parser_incremental(c: &mut Criterion) {
    const MACHINES: u32 = 32;
    const FAULTS: u32 = 64;
    let def = (0..MACHINES).fold(StudyDef::new("big"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B", "C"])
                .events(&["go"])
                .state("A", &[], &[("go", "B")])
                .build(),
        )
    });
    // Each fault observes three machines; collectively they cover all 32.
    let def = (0..FAULTS).fold(def, |def, i| {
        let expr = FaultExpr::atom(&format!("m{}", i % MACHINES), "B")
            .and(FaultExpr::atom(&format!("m{}", (i + 7) % MACHINES), "A").not())
            .or(FaultExpr::atom(&format!("m{}", (i + 13) % MACHINES), "C"));
        def.fault("m0", &format!("f{i}"), expr, Trigger::Always)
    });
    let study = Study::compile(&def).unwrap();
    let faults = study.faults_owned_by(study.sm_id("m0").unwrap());
    let a = study.states.lookup("A").unwrap();
    let b = study.states.lookup("B").unwrap();

    // A primed parser; each iteration flips machine 5 between B and A —
    // two genuine single-machine view changes (with real false→true
    // edges), no parser construction or teardown inside the timed region.
    let setup = || {
        let mut view = PartialView::new(MACHINES as usize);
        for i in 0..MACHINES {
            view.set(Id::from_raw(i), a);
        }
        let mut parser = FaultParser::new(faults.clone());
        parser.on_view_change(&view); // prime
        (parser, view)
    };
    let m5 = Id::from_raw(5);

    let mut group = c.benchmark_group("fault_parser_32m_64f");
    group.bench_function("full_scan_on_one_change", |bencher| {
        let (mut parser, mut view) = setup();
        bencher.iter(|| {
            view.set(m5, b);
            criterion::black_box(parser.on_view_change(&view));
            view.set(m5, a);
            criterion::black_box(parser.on_view_change(&view));
        })
    });
    group.bench_function("indexed_scan_on_one_change", |bencher| {
        let (mut parser, mut view) = setup();
        bencher.iter(|| {
            view.set(m5, b);
            criterion::black_box(parser.on_machine_change(&view, m5));
            view.set(m5, a);
            criterion::black_box(parser.on_machine_change(&view, m5));
        })
    });
    group.finish();
}

/// Recorder append (the intrusion §3.5.6 minimizes with index tables).
fn bench_recorder(c: &mut Criterion) {
    c.bench_function("recorder/append_state_change", |bencher| {
        bencher.iter_batched(
            || Recorder::new(Id::from_raw(0), Id::from_raw(0)),
            |mut rec| {
                for i in 0..100u64 {
                    rec.record_state_change(LocalNanos(i), Id::from_raw(0), Id::from_raw(1));
                }
                rec
            },
            BatchSize::SmallInput,
        )
    });
}

/// Off-line clock synchronization: the convex-hull bound estimation.
fn bench_clock_sync(c: &mut Criterion) {
    let reference = VirtualClock::new(ClockParams::ideal());
    let machine = VirtualClock::new(ClockParams::with_drift_ppm(2e6, 80.0));
    let mut samples = Vec::new();
    for k in 0..40u64 {
        let t = k * 500_000;
        samples.push(SyncSample {
            from_reference: true,
            send: reference.read(t),
            recv: machine.read(t + 60_000 + (k * 7919) % 90_000),
        });
        samples.push(SyncSample {
            from_reference: false,
            send: machine.read(t + 250_000),
            recv: reference.read(t + 310_000 + (k * 104_729) % 80_000),
        });
    }
    c.bench_function("clock_sync/estimate_80_samples", |bencher| {
        bencher.iter(|| {
            criterion::black_box(estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap())
        })
    });

    let bounds = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
    c.bench_function("clock_sync/project_timestamp", |bencher| {
        bencher.iter(|| criterion::black_box(bounds.project(LocalNanos(123_456_789))))
    });
}

/// Predicate evaluation + observation functions on the Figure 4.2 data.
fn bench_measure(c: &mut Criterion) {
    let (study, gt) = fig_4_2();
    let compiled = predicate_3().compile(&study).unwrap();
    let window = (0.0, 50.0e6);
    c.bench_function("measure/predicate3_eval", |bencher| {
        bencher.iter(|| criterion::black_box(compiled.eval(&gt, window)))
    });
    let tl = compiled.eval(&gt, window);
    let f = ObservationFn::count(UpDown::Up, ImpulseStep::Both, 10.0, 35.0);
    c.bench_function("measure/count_observation", |bencher| {
        bencher.iter(|| criterion::black_box(f.eval(&tl, window)))
    });
}

/// One complete experiment through the whole pipeline (runtime → sync →
/// analysis): the end-to-end cost of a single Figure 3.2 data point cell.
fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("one_accuracy_experiment", |bencher| {
        let mut seed = 0u64;
        bencher.iter(|| {
            seed += 1;
            criterion::black_box(injection_accuracy(&AccuracyConfig {
                timeslice_ns: 1_000_000,
                time_in_state_ns: 5_000_000,
                experiments: 1,
                seed,
                routing: NotifyRouting::Direct,
            }))
        })
    });
    group.finish();
}

/// A large multi-host analyze-phase fixture: 32 machines over 8 hosts
/// with fleet-style FQDN names, each timeline segmented by restart churn
/// into 64 host stints, ~250 records per machine (state changes plus one
/// injection per stint).
fn make_global_fixture() -> (Study, ExperimentData) {
    const MACHINES: u32 = 32;
    const HOSTS: u32 = 8;
    const STINTS: u64 = 64;
    const CHANGES_PER_STINT: u64 = 2;

    let def = (0..MACHINES).fold(StudyDef::new("mg32"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B"])
                .events(&["GO"])
                .state("A", &[], &[("GO", "B")])
                .state("B", &[], &[("GO", "A")])
                .build(),
        )
    });
    let def = (0..MACHINES).fold(def, |def, i| {
        def.fault(
            &format!("m{i}"),
            &format!("f{i}"),
            FaultExpr::atom(&format!("m{i}"), "B"),
            Trigger::Always,
        )
    });
    let study = Study::compile(&def).expect("valid study");

    // Realistic fleet-style host names: long strings that interning keeps
    // off the per-record path.
    let symbols =
        Arc::new(SymbolTable::for_hosts((0..HOSTS).map(|h| {
            format!("worker-{h:02}.rack{}.dc1.cluster.example.com", h % 4)
        })));
    let go = study.events.lookup("GO").unwrap();
    let a_state = study.states.lookup("A").unwrap();
    let b_state = study.states.lookup("B").unwrap();

    let timelines = (0..MACHINES)
        .map(|m| {
            let sm = study.sm_id(&format!("m{m}")).unwrap();
            let fault = study.fault_names.lookup(&format!("f{m}")).unwrap();
            let first_host = Id::from_raw(m % HOSTS);
            let mut rec = Recorder::new(sm, first_host);
            let mut t = 1_000_000u64;
            for stint in 0..STINTS {
                if stint > 0 {
                    let host = Id::from_raw((m + stint as u32) % HOSTS);
                    rec = Recorder::resume(rec.finish(), LocalNanos(t), host);
                    t += 500_000;
                }
                for k in 0..CHANGES_PER_STINT {
                    let state = if k % 2 == 0 { b_state } else { a_state };
                    rec.record_state_change(LocalNanos(t), go, state);
                    t += 700_000;
                    if k == 0 {
                        rec.record_injection(LocalNanos(t), fault);
                        t += 100_000;
                    }
                }
            }
            rec.record_state_change(LocalNanos(t), go, study.reserved.exit);
            rec.finish()
        })
        .collect();

    let sync_for = |host: u32| {
        let mut samples = Vec::new();
        for k in 0..8u64 {
            let t = k * 1_000_000 + host as u64 * 37;
            samples.push(SyncSample {
                from_reference: true,
                send: LocalNanos(t),
                recv: LocalNanos(t + 45_000),
            });
            samples.push(SyncSample {
                from_reference: false,
                send: LocalNanos(t + 450_000),
                recv: LocalNanos(t + 495_000),
            });
        }
        HostSync {
            host: Id::from_raw(host),
            samples,
        }
    };
    let data = ExperimentData {
        study: "mg32".into(),
        experiment: 0,
        timelines,
        hosts: symbols.host_ids().collect(),
        reference_host: Id::from_raw(0),
        symbols,
        pre_sync: (1..HOSTS).map(sync_for).collect(),
        post_sync: (1..HOSTS).map(sync_for).collect(),
        end: Default::default(),
        warnings: vec![],
    };
    (study, data)
}

/// `make_global` on the 32-machine / 8-host / 64-stint view. The untimed
/// gauge pass records ns/op for the metrics artifact.
fn bench_make_global(c: &mut Criterion) {
    if criterion::is_filtered_out("make_global_32m/interned") {
        return;
    }
    let (study, data) = make_global_fixture();
    let opts = GlobalOptions::default();

    // Untimed gauge pass for the metrics artifact.
    const ITERS: u32 = 20;
    for _ in 0..3 {
        // Warm up caches and the allocator.
        criterion::black_box(make_global(&study, &data, &opts).unwrap());
    }
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        criterion::black_box(make_global(&study, &data, &opts).unwrap());
    }
    let interned_ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
    report::record("make_global_32m_ns_per_op", interned_ns);
    println!("make_global_32m: interned {interned_ns:.0} ns/op");

    let mut group = c.benchmark_group("make_global_32m");
    group.sample_size(20);
    group.bench_function("interned", |bencher| {
        bencher.iter(|| criterion::black_box(make_global(&study, &data, &opts).unwrap()))
    });
    group.finish();
}

/// Campaign-level throughput: the batch collect-everything path
/// (`run_study` → `analyze` → measure fold over all accepted timelines)
/// against the streaming `CampaignPipeline` + `StudyAccumulator` on the
/// identical token-ring campaign. Streaming additionally bounds raw-data
/// retention to the worker count; the gauge line printed before the timed
/// samples shows it next to the batch path's O(experiments) retention.
fn bench_campaign_pipeline(c: &mut Criterion) {
    const EXPERIMENTS: u32 = 8;
    const WORKERS: usize = 2;
    // The untimed gauge pass below runs real campaigns, so skip it (and
    // its output) entirely when the CLI name filter excludes this group.
    let bench_names = [
        "campaign_pipeline/batch_8exp_2workers",
        "campaign_pipeline/streaming_8exp_2workers",
    ];
    if bench_names.iter().all(|n| criterion::is_filtered_out(n)) {
        return;
    }
    let def = ring_study("bench-ring", 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    let cfg = SimHarnessConfig::three_hosts(0xBE7C);
    let factory = || ring_factory(RingConfig::default());
    let measure = || {
        StudyMeasure::new("token-held").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("tr2", "HAS_TOKEN"),
            observation: ObservationFn::total_true(),
        })
    };

    let run_batch = || {
        let data = run_study_with_workers(&study, factory(), &cfg, EXPERIMENTS, WORKERS)
            .expect("valid campaign config");
        let analyzed = analyze(&study, data, &AnalysisOptions::default());
        let accepted = accepted_timelines(&analyzed);
        measure()
            .apply_all(&study, accepted.iter().copied())
            .expect("measure evaluates")
    };
    let run_streaming = || {
        let pipeline = CampaignPipeline::new(study.clone(), factory(), cfg.clone());
        let mut acc = StudyAccumulator::new(measure());
        let mut compact_bytes = 0usize;
        let summary = pipeline
            .run_with_workers(EXPERIMENTS, WORKERS, |analyzed| {
                compact_bytes += analyzed.approx_size_bytes();
                acc.push(&study, &analyzed).expect("measure evaluates");
            })
            .expect("valid campaign config");
        (acc.into_values(), summary, compact_bytes)
    };

    // One untimed pass for the campaign-level gauges the timer can't show:
    // experiments/sec, peak resident raw experiments, and the compact
    // cross-channel payload per experiment (host interning shrank it; the
    // artifact tracks it from PR 4 on).
    let start = std::time::Instant::now();
    let batch_values = run_batch();
    let batch_rate = EXPERIMENTS as f64 / start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let (streaming_values, summary, compact_bytes) = run_streaming();
    let streaming_rate = EXPERIMENTS as f64 / start.elapsed().as_secs_f64();
    assert_eq!(
        batch_values, streaming_values,
        "pipeline must be unobservable"
    );
    let bytes_per_experiment = compact_bytes as f64 / EXPERIMENTS as f64;
    report::record("campaign_pipeline_streaming_exp_per_sec", streaming_rate);
    report::record("campaign_pipeline_batch_exp_per_sec", batch_rate);
    report::record("compact_result_bytes_per_experiment", bytes_per_experiment);
    println!(
        "campaign_pipeline: {EXPERIMENTS} experiments, {WORKERS} workers — \
         batch {batch_rate:.1} exp/s holding {EXPERIMENTS} raw experiments; \
         streaming {streaming_rate:.1} exp/s holding peak {} raw experiments; \
         compact result {bytes_per_experiment:.0} bytes/experiment",
        summary.peak_raw_retained
    );

    let mut group = c.benchmark_group("campaign_pipeline");
    group.sample_size(10);
    group.bench_function("batch_8exp_2workers", |bencher| {
        bencher.iter(|| criterion::black_box(run_batch()))
    });
    group.bench_function("streaming_8exp_2workers", |bencher| {
        bencher.iter(|| criterion::black_box(run_streaming().0))
    });
    group.finish();
}

/// Many-worlds batching: the per-experiment engine (a fresh world built
/// and torn down for every experiment — `try_run_experiment`, then
/// `analyze_one_pooled` into a warm shell pool) against the batched
/// `WorldSet` pipeline that interleaves K reset-reused worlds per worker,
/// on a micro-experiment campaign. The per-experiment loop commits in
/// order by construction, so its rate carries no reorder-buffer cost.
///
/// The workload is the regime batching targets: a two-host token ring with
/// millisecond phases and one pre/post sync round, so each experiment is a
/// few dozen simulation events and per-experiment world construction
/// (config build, host clones, collector and slab allocation, first-touch
/// growth) is a large fraction of each probe's cost. The untimed gauge
/// pass sweeps K ∈ {4, 8}, asserts the batched results stay byte-identical
/// to the baseline, and records the best batched rate plus its speedup and
/// K for the `BENCH_pr6.json` artifact.
fn bench_batched_worlds(c: &mut Criterion) {
    const EXPERIMENTS: u32 = 1200;
    const WORKERS: usize = 1; // same worker count both paths: the gauge
                              // isolates batching, not thread scaling.
    let bench_names = ["batched_worlds/per_experiment", "batched_worlds/batched_k8"];
    if bench_names.iter().all(|n| criterion::is_filtered_out(n)) {
        return;
    }

    let ring = RingConfig {
        init_delay_ns: 1_000_000,
        hold_ns: 1_000_000,
        loss_timeout_ns: 50_000_000,
        regen_delay_ns: 10_000_000,
        lifetime_ns: 2_000_000,
        ..Default::default()
    };
    let def = ring_study("bench-ring-micro", 2);
    let study = Study::compile_arc(&def).expect("valid study");
    let factory = ring_factory(ring);
    let mut cfg = SimHarnessConfig::three_hosts(0xBA7C);
    cfg.hosts = (1..=2)
        .map(|i| {
            HostConfig::new(&format!("host{i}")).clock(ClockParams::with_drift_ppm(
                (i as f64) * 1e5,
                ((i % 7) as f64) * 40.0 - 120.0,
            ))
        })
        .collect();
    cfg.sync_rounds = 1;

    let shells = ShellPool::default();
    let per_experiment = || {
        let opts = AnalysisOptions::default();
        (0..EXPERIMENTS)
            .map(|k| {
                let data = try_run_experiment(&study, factory.clone(), &cfg, k)
                    .expect("valid campaign config");
                analyze_one_pooled(&study, &data, &opts, &shells)
            })
            .collect::<Vec<_>>()
    };
    let batched = |batch: usize| {
        let mut cfg = cfg.clone();
        cfg.batch = Some(batch);
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg);
        let mut out = Vec::with_capacity(EXPERIMENTS as usize);
        pipeline
            .run_with_workers(EXPERIMENTS, WORKERS, |analyzed| out.push(analyzed))
            .expect("valid campaign config");
        out
    };
    // Best-of-5: micro-campaign timings jitter ±15% on a busy runner, and
    // the minimum elapsed time is the standard robust throughput estimate.
    let time = |f: &dyn Fn() -> Vec<loki_analysis::AnalyzedExperiment>| {
        criterion::black_box(f()); // warm caches and the allocator
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..5 {
            let start = std::time::Instant::now();
            out = criterion::black_box(f());
            best = best.min(start.elapsed().as_secs_f64());
        }
        (EXPERIMENTS as f64 / best, out)
    };

    let (per_exp_rate, per_exp_results) = time(&per_experiment);
    let mut best_rate = 0.0f64;
    let mut best_k = 0usize;
    for k in [4usize, 8, 16] {
        let (rate, results) = time(&|| batched(k));
        assert_eq!(
            results, per_exp_results,
            "K={k}: batched results diverged from the per-experiment engine"
        );
        if rate > best_rate {
            best_rate = rate;
            best_k = k;
        }
    }
    let speedup = best_rate / per_exp_rate;
    report::record("campaign_pipeline_per_experiment_exp_per_sec", per_exp_rate);
    report::record("campaign_pipeline_batched_exp_per_sec", best_rate);
    report::record("campaign_pipeline_batch_speedup", speedup);
    report::record("campaign_pipeline_batch_k", best_k as f64);
    println!(
        "batched_worlds: {EXPERIMENTS} micro-experiments, {WORKERS} worker — \
         per-experiment {per_exp_rate:.0} exp/s; \
         batched K={best_k} {best_rate:.0} exp/s ({speedup:.2}x)"
    );

    let mut group = c.benchmark_group("batched_worlds");
    group.sample_size(10);
    group.bench_function("per_experiment", |bencher| {
        bencher.iter(|| criterion::black_box(per_experiment()))
    });
    group.bench_function("batched_k8", |bencher| {
        bencher.iter(|| criterion::black_box(batched(8)))
    });
    group.finish();
}

/// All-in per-event overhead of the batched pipeline: wall clock per
/// simulation event across complete experiments — world reset, (pooled)
/// actor spawning, event dispatch, recording, sync phases, analysis, and
/// buffer reclaim all land in this denominator. The single-`Rc`
/// experiment context, recycled actor hulls, dense daemon tables, and
/// capacity-retaining timeline shells exist to push this number down;
/// `summary.events` (counted by the pipeline itself) makes it measurable
/// without instrumenting the hot loop.
fn bench_event_overhead(c: &mut Criterion) {
    const EXPERIMENTS: u32 = 400;
    const WORKERS: usize = 1; // isolate per-event cost, not thread scaling
    const K: usize = 8;
    if criterion::is_filtered_out("event_overhead/batched_all_in") {
        return;
    }

    // The three-host ring with full-length sync phases: event-rich enough
    // that per-experiment fixed costs amortize, faithful enough that the
    // recording/notification paths dominate like in a real campaign.
    let def = ring_study("bench-ring-events", 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    let factory = ring_factory(RingConfig::default());
    let mut cfg = SimHarnessConfig::three_hosts(0xE7E7);
    cfg.batch = Some(K);
    // Budgets set, with ceilings far above what the workload uses: the
    // gauge prices the per-event bound check, not budget trips.
    cfg.max_virtual_time = Some(30_000_000_000);
    cfg.max_events = Some(100_000_000);

    let run = || {
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
        pipeline
            .run_with_workers(EXPERIMENTS, WORKERS, |analyzed| {
                criterion::black_box(analyzed);
            })
            .expect("valid campaign config")
    };

    // Best-of-5 (plus one warm-up), the same robust estimate as the
    // batched-worlds gauge.
    let mut summary = run();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = std::time::Instant::now();
        summary = criterion::black_box(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(summary.events > 0, "pipeline must count events");
    assert!(summary.actor_reuses > 0, "pipeline must recycle hulls");
    let ns_per_event = best * 1e9 / summary.events as f64;
    let events_per_exp = summary.events as f64 / f64::from(EXPERIMENTS);
    report::record("event_overhead_ns_per_event", ns_per_event);
    report::record("event_overhead_events_per_experiment", events_per_exp);
    report::record("event_overhead_actor_reuses", summary.actor_reuses as f64);
    report::record(
        "event_overhead_timeline_reuses",
        summary.timeline_reuses as f64,
    );
    // The dropping sink above sends every `GlobalTimeline` shell back to
    // the workers, so in steady state analysis fills recycled vectors —
    // allocations stay bounded by the in-flight window, not the campaign.
    report::record(
        "event_overhead_result_shell_reuses",
        summary.result_shell_reuses as f64,
    );
    report::record(
        "event_overhead_result_shell_allocs",
        summary.result_shell_allocs as f64,
    );
    println!(
        "event_overhead: {EXPERIMENTS} experiments (K={K}, {WORKERS} worker), \
         {} events ({events_per_exp:.0}/experiment) — {ns_per_event:.0} ns/event all-in; \
         {} pooled-hull reuses, {} timeline-shell reuses, \
         {} result-shell reuses ({} fresh)",
        summary.events,
        summary.actor_reuses,
        summary.timeline_reuses,
        summary.result_shell_reuses,
        summary.result_shell_allocs
    );

    let mut group = c.benchmark_group("event_overhead");
    group.sample_size(10);
    group.bench_function("batched_all_in", |bencher| {
        bencher.iter(|| criterion::black_box(run()))
    });
    group.finish();
}

/// The `sim_event_core` storm: 32 hosts, one node per host, each driving
/// a heartbeat that fans out notification-like messages to three peers,
/// re-arms (set + cancel) a watchdog timer every round, and watches its
/// neighbour; a quarter of the nodes crash at the end, exercising the
/// peer-down path.
mod storm {
    use loki_core::small::InlineVec;

    pub const HOSTS: u32 = 32;
    pub const ROUNDS: u32 = 48;
    pub const FANOUT: u32 = 3;
    pub const TAG_TICK: u64 = 0;
    pub const TAG_DOG: u64 = 1;

    /// A notification-shaped message with an inline fan-out list.
    #[derive(Clone)]
    pub enum NewMsg {
        Note {
            seq: u64,
            hops: u8,
            targets: InlineVec<u32, 4>,
        },
    }

    /// Deterministic peer choice.
    pub fn peer(idx: u32, k: u32) -> u32 {
        (idx + k * 7 + 1) % HOSTS
    }
}

/// The storm on the real (indexed) engine.
fn run_storm_indexed(seed: u64) -> u64 {
    use loki_core::small::InlineVec;
    use loki_sim::engine::{Actor, ActorId, Ctx, Simulation, TimerId};
    use std::cell::Cell;
    use std::rc::Rc;
    use storm::{NewMsg, FANOUT, HOSTS, ROUNDS, TAG_DOG, TAG_TICK};

    struct Node {
        idx: u32,
        rounds_left: u32,
        seq: u64,
        watchdog: Option<TimerId>,
        delivered: Rc<Cell<u64>>,
    }
    impl Actor<NewMsg> for Node {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NewMsg>) {
            ctx.watch(ActorId((self.idx + 1) % HOSTS));
            ctx.set_timer(10_000 + u64::from(self.idx) * 97, TAG_TICK);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, NewMsg>, from: ActorId, msg: NewMsg) {
            let NewMsg::Note { seq, hops, targets } = msg;
            // Consume the fan-out list like a daemon routing it.
            self.delivered
                .set(self.delivered.get() + targets.len() as u64);
            if hops == 0 && seq % 4 == 0 {
                let targets: InlineVec<u32, 4> = [self.idx].into_iter().collect();
                ctx.send(
                    from,
                    NewMsg::Note {
                        seq: seq + 1,
                        hops: 1,
                        targets,
                    },
                );
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, NewMsg>, tag: u64) {
            if tag != TAG_TICK {
                return;
            }
            if let Some(old) = self.watchdog.take() {
                ctx.cancel_timer(old);
            }
            self.watchdog = Some(ctx.set_timer(5_000_000, TAG_DOG));
            for k in 0..FANOUT {
                let to = storm::peer(self.idx, k);
                let targets: InlineVec<u32, 4> = [self.idx, to, k].into_iter().collect();
                self.seq += 1;
                ctx.send(
                    ActorId(to),
                    NewMsg::Note {
                        seq: self.seq,
                        hops: 0,
                        targets,
                    },
                );
            }
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(20_000 + u64::from(self.idx * 31 % 11) * 1_000, TAG_TICK);
            } else if self.idx % 4 == 3 {
                ctx.crash_self();
            }
        }
        fn on_peer_down(
            &mut self,
            _ctx: &mut Ctx<'_, NewMsg>,
            _peer: ActorId,
            _reason: loki_sim::engine::DownReason,
        ) {
            self.delivered.set(self.delivered.get() + 1);
        }
    }

    let mut sim: Simulation<NewMsg> = Simulation::new(seed);
    sim.disable_trace();
    let delivered = Rc::new(Cell::new(0u64));
    let hosts: Vec<_> = (0..HOSTS)
        .map(|i| {
            sim.add_host(
                loki_sim::config::HostConfig::new(&format!("h{i}")).timeslice_ns(2_000_000),
            )
        })
        .collect();
    for (i, &h) in hosts.iter().enumerate() {
        sim.spawn(
            h,
            Box::new(Node {
                idx: i as u32,
                rounds_left: ROUNDS,
                seq: 0,
                watchdog: None,
                delivered: delivered.clone(),
            }),
        );
    }
    sim.run();
    delivered.get()
}

/// The event-core storm on the indexed engine. The untimed gauge pass
/// records ns/storm for the metrics artifact.
fn bench_sim_event_core(c: &mut Criterion) {
    if criterion::is_filtered_out("sim_event_core/indexed_slab_engine") {
        return;
    }

    const ITERS: u32 = 30;
    for _ in 0..10 {
        criterion::black_box(run_storm_indexed(7)); // warm caches and the allocator
    }
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        criterion::black_box(run_storm_indexed(7));
    }
    let indexed_ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
    report::record("sim_event_core_indexed_ns_per_storm", indexed_ns);
    println!("sim_event_core: indexed {indexed_ns:.0} ns/storm");

    let mut group = c.benchmark_group("sim_event_core");
    group.bench_function("indexed_slab_engine", |bencher| {
        bencher.iter(|| criterion::black_box(run_storm_indexed(7)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_parser,
    bench_fault_parser_incremental,
    bench_recorder,
    bench_clock_sync,
    bench_measure,
    bench_make_global,
    bench_sim_event_core,
    bench_pipeline,
    bench_campaign_pipeline,
    bench_batched_worlds,
    bench_event_overhead
);

// Custom main instead of `criterion_main!`: after the groups run, flush
// the collected metrics to the `$LOKI_BENCH_JSON` artifact (no-op when the
// variable is unset).
fn main() {
    benches();
    report::flush();
}
