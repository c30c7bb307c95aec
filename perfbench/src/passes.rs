//! The passes one benchmark run is made of: the untraced pipeline run,
//! the traced pipeline run (part a), the per-experiment decomposition
//! (part b) and the engine-floor ping-pong.

use crate::alloc;
use crate::workload::{Digest, Kind, Prepared, BATCH};
use loki_analysis::{
    check_experiment, detect_cascade, make_global_pooled, AnalysisOptions, AnalyzedExperiment,
    ShellPool,
};
use loki_clock::sync::estimate_alpha_beta;
use loki_core::campaign::ExperimentEnd;
use loki_measure::StudyAccumulator;
use loki_runtime::harness::{try_run_experiment, PipelineSummary};
use loki_sim::config::HostConfig;
use loki_sim::engine::{Actor, ActorId, Ctx, Simulation};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The sink's work on every committed result: fold the study measure and,
/// on the cascade workload, run cascade detection. Also keeps a cheap
/// per-experiment fingerprint so repeated runs can be compared.
struct Fold<'a> {
    prep: &'a Prepared,
    acc: StudyAccumulator,
    marks: Vec<u64>,
    violations: usize,
    failed: usize,
}

impl<'a> Fold<'a> {
    fn new(prep: &'a Prepared, n: u32) -> Self {
        Fold {
            prep,
            acc: StudyAccumulator::new(prep.measure.clone()),
            marks: Vec::with_capacity(n as usize),
            violations: 0,
            failed: 0,
        }
    }

    fn measure(&mut self, a: &AnalyzedExperiment) {
        self.acc
            .push(&self.prep.study, a)
            .expect("the benchmark's measure names exist in its studies");
    }

    /// Cascade detection (cascade workload only) plus the bookkeeping the
    /// output checks need.
    fn check(&mut self, a: &AnalyzedExperiment) {
        let storm = match (&a.global, self.prep.workload.detects_cascade()) {
            (Some(gt), true) => detect_cascade(&self.prep.study, gt, &self.prep.cascade).is_storm(),
            _ => false,
        };
        let accepted = a.accepted();
        let ok = match self.prep.workload.kind {
            Kind::RingEvents => accepted && a.injections == 1,
            Kind::RingMicro => a.end == ExperimentEnd::Completed,
            Kind::KvCascade => storm,
        };
        // A failed experiment counts once, as failed, not again as a
        // broken invariant.
        if a.end.failure().is_some() {
            self.failed += 1;
        } else {
            self.violations += usize::from(!ok);
        }
        let events = a.global.as_ref().map_or(0, |g| g.events.len() as u64);
        self.marks.push(
            events << 16 | (a.injections as u64) << 2 | u64::from(storm) << 1 | u64::from(accepted),
        );
    }

    fn finish(self) -> Outcome {
        Outcome {
            marks: self.marks,
            values: self.acc.into_values(),
            violations: self.violations,
            failed: self.failed,
        }
    }
}

/// What one pass committed, compared across passes.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Per-experiment fingerprint (events, injections, storm, accepted).
    pub marks: Vec<u64>,
    /// The measure's committed values.
    pub values: Vec<f64>,
    /// Experiments that broke the workload's invariant.
    pub violations: usize,
    /// Experiments that ended `ExperimentEnd::Failed`.
    pub failed: usize,
}

impl Outcome {
    /// Experiments whose fingerprint differs from `reference`'s, plus one if
    /// the measure's values differ anywhere.
    pub fn mismatches(&self, reference: &Outcome) -> usize {
        let differing = self
            .marks
            .iter()
            .zip(&reference.marks)
            .filter(|(a, b)| a != b)
            .count();
        let missing = self.marks.len().abs_diff(reference.marks.len());
        let values = self.values.len() != reference.values.len()
            || self
                .values
                .iter()
                .zip(&reference.values)
                .any(|(a, b)| a.to_bits() != b.to_bits());
        differing + missing + usize::from(values && differing + missing == 0)
    }
}

/// Set-up ending at the first committed result of a cold pipeline.
pub fn first_result(prep: &Prepared, start: Instant) -> Result<Duration, String> {
    let mut first = None;
    prep.pipeline
        .run_with_workers(BATCH as u32, 1, |a| {
            first.get_or_insert_with(|| start.elapsed());
            black_box(a);
        })
        .map_err(|e| e.to_string())?;
    first.ok_or_else(|| "the pipeline committed nothing".to_owned())
}

/// One untraced pipeline run of `n` experiments: the sink folds and drops.
pub fn untraced(prep: &Prepared, n: u32) -> Result<(Duration, PipelineSummary, Outcome), String> {
    let mut fold = Fold::new(prep, n);
    let start = Instant::now();
    let summary = prep
        .pipeline
        .run_with_workers(n, 1, |a| {
            fold.measure(&a);
            fold.check(&a);
        })
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    Ok((wall, summary, fold.finish()))
}

/// Part (a): the real batched pipeline with timestamps in `tap` and
/// `sink`. Sink segments and the worker segments between them tile the
/// wall time exactly.
#[derive(Debug, Default)]
pub struct PartA {
    pub wall: Duration,
    pub summary: PipelineSummary,
    pub outcome: Outcome,
    /// Time on the worker side: execution, analysis, reorder.
    pub worker: Duration,
    /// Time inside the sink: measure fold, cascade check, result drop.
    pub sink: Duration,
    /// Per-experiment `StudyAccumulator::push` durations (ns).
    pub push_ns: Vec<u64>,
    /// Per-experiment wait from `tap` (analysis done) to the sink (ns).
    pub wait_ns: Vec<u64>,
    /// Allocations inside `push`, over all experiments.
    pub push_allocs: u64,
    /// Allocations from the sink of experiment `2 * BATCH` to the end.
    pub steady_allocs: u64,
    /// Experiments the steady-state count covers.
    pub steady_experiments: u32,
    /// Per-experiment digests (filled only when asked for).
    pub digests: Vec<u64>,
    /// Mean compact result size (bytes).
    pub result_bytes: f64,
}

pub fn part_a(prep: &Prepared, n: u32, digest: bool) -> Result<PartA, String> {
    let mut fold = Fold::new(prep, n);
    let mut out = PartA {
        push_ns: Vec::with_capacity(n as usize),
        wait_ns: Vec::with_capacity(n as usize),
        digests: Vec::with_capacity(if digest { n as usize } else { 0 }),
        ..PartA::default()
    };
    let steady_from = 2 * BATCH as u32;
    let mut steady_start = None;
    let mut bytes = 0usize;
    alloc::set_counting(true);
    let start = Instant::now();
    let summary = prep
        .pipeline
        .run_tapped_with_workers(
            n,
            1,
            |_| Instant::now(),
            |a, tapped| {
                let s0 = Instant::now();
                let a0 = alloc::count();
                if a.experiment == steady_from {
                    steady_start = Some(a0);
                }
                fold.measure(&a);
                let s1 = Instant::now();
                out.push_allocs += alloc::count() - a0;
                fold.check(&a);
                if digest {
                    let mut d = Digest::default();
                    d.push(&a);
                    out.digests.push(d.value());
                    bytes += a.approx_size_bytes();
                }
                drop(a);
                let s2 = Instant::now();
                out.push_ns.push((s1 - s0).as_nanos() as u64);
                out.wait_ns.push((s0 - tapped).as_nanos() as u64);
                out.sink += s2 - s0;
            },
        )
        .map_err(|e| e.to_string())?;
    out.wall = start.elapsed();
    let end_allocs = alloc::count();
    alloc::set_counting(false);
    out.worker = out.wall - out.sink;
    if let Some(s) = steady_start {
        out.steady_allocs = end_allocs - s;
        out.steady_experiments = n - steady_from;
    }
    out.result_bytes = bytes as f64 / f64::from(n.max(1));
    out.summary = summary;
    out.outcome = fold.finish();
    Ok(out)
}

/// The spans of part (b), in the order one experiment passes them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Span {
    /// `harness::try_run_experiment` (fresh world, per-experiment path).
    Run,
    /// `clock::sync::estimate_alpha_beta` for every non-reference host: a
    /// second execution of the calibration nested in `make_global`.
    Calibrate,
    /// `analysis::make_global_pooled` (warm `ShellPool`).
    MakeGlobal,
    /// `analysis::check_experiment`.
    Check,
    /// Building the `AnalyzedExperiment` and counting its inputs.
    Assemble,
    /// `measure::StudyAccumulator::push`.
    Push,
    /// `analysis::detect_cascade` (cascade workload) and output checks.
    Cascade,
    /// Dropping the raw data and the result (shells return to the pool).
    Drop,
}

pub const SPANS: [Span; 8] = [
    Span::Run,
    Span::Calibrate,
    Span::MakeGlobal,
    Span::Check,
    Span::Assemble,
    Span::Push,
    Span::Cascade,
    Span::Drop,
];

/// Part (b): the same experiments decomposed one by one on this thread.
#[derive(Debug, Default)]
pub struct PartB {
    pub wall: Duration,
    pub outcome: Outcome,
    /// Per span, per experiment: duration (ns).
    pub span_ns: [Vec<u64>; SPANS.len()],
    /// Per span: allocations over all experiments.
    pub span_allocs: [u64; SPANS.len()],
    pub records: u64,
    pub sync_samples: u64,
    pub global_events: u64,
    pub digests: Vec<u64>,
}

impl PartB {
    /// Sum of all span durations.
    pub fn span_total(&self) -> Duration {
        let ns: u64 = self.span_ns.iter().flatten().sum();
        Duration::from_nanos(ns)
    }
}

/// Times consecutive spans: each `close` ends the open span and starts
/// the next at the same instant, so the spans tile the experiment.
struct Marker<'a> {
    at: Instant,
    allocs: u64,
    out: &'a mut PartB,
}

impl Marker<'_> {
    fn close(&mut self, span: Span) {
        let now = Instant::now();
        let allocs = alloc::count();
        self.out.span_ns[span as usize].push((now - self.at).as_nanos() as u64);
        self.out.span_allocs[span as usize] += allocs - self.allocs;
        self.at = now;
        self.allocs = allocs;
    }
}

pub fn part_b(prep: &Prepared, n: u32, pool: &ShellPool, digest: bool) -> Result<PartB, String> {
    let opts = AnalysisOptions::default();
    let mut fold = Fold::new(prep, n);
    let mut out = PartB::default();
    for v in &mut out.span_ns {
        v.reserve(n as usize);
    }
    out.digests.reserve(if digest { n as usize } else { 0 });
    let mut samples = Vec::new();
    alloc::set_counting(true);
    let start = Instant::now();
    for k in 0..n {
        let mut m = Marker {
            at: Instant::now(),
            allocs: alloc::count(),
            out: &mut out,
        };
        let data = try_run_experiment(&prep.study, prep.factory.clone(), &prep.cfg, k)
            .map_err(|e| e.to_string())?;
        m.close(Span::Run);
        if data.end == ExperimentEnd::Completed {
            for &host in data.hosts.iter().filter(|&&h| h != data.reference_host) {
                data.sync_samples_into(host, &mut samples);
                let _ = black_box(estimate_alpha_beta(&samples, &opts.global.sync));
            }
        }
        m.close(Span::Calibrate);
        let mut a = AnalyzedExperiment {
            experiment: data.experiment,
            end: data.end,
            injections: 0,
            global: None,
            verdict: None,
            error: None,
        };
        let global = (data.end == ExperimentEnd::Completed)
            .then(|| make_global_pooled(&prep.study, &data, &opts.global, pool));
        m.close(Span::MakeGlobal);
        let verdict = match &global {
            Some(Ok(gt)) => Some(check_experiment(&prep.study, gt, opts.missing)),
            _ => None,
        };
        m.close(Span::Check);
        a.injections = data.total_injections();
        match global {
            Some(Ok(gt)) => {
                a.verdict = verdict;
                a.global = Some(gt);
            }
            Some(Err(e)) => a.error = Some(e),
            None => {}
        }
        let records: usize = data.timelines.iter().map(|t| t.records.len()).sum();
        let syncs: usize = (data.pre_sync.iter().chain(&data.post_sync))
            .map(|h| h.samples.len())
            .sum();
        m.close(Span::Assemble);
        fold.measure(&a);
        m.close(Span::Push);
        fold.check(&a);
        m.close(Span::Cascade);
        let events = a.global.as_ref().map_or(0, |g| g.events.len());
        if digest {
            let mut d = Digest::default();
            d.push(&a);
            m.out.digests.push(d.value());
        }
        drop(a);
        drop(data);
        m.close(Span::Drop);
        out.records += records as u64;
        out.sync_samples += syncs as u64;
        out.global_events += events as u64;
    }
    out.wall = start.elapsed();
    alloc::set_counting(false);
    out.outcome = fold.finish();
    Ok(out)
}

/// The engine floor: two actors on two hosts bounce one message on
/// `loki_sim::Simulation` — scheduling-delay and link sampling, queue push
/// and pop, dispatch, and nothing else. Returns ns per event.
pub fn floor_ns_per_event(bounces: u64) -> f64 {
    struct Pong {
        peer: ActorId,
        serve: bool,
        left: u64,
    }
    impl Actor<u32> for Pong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.serve {
                ctx.send(self.peer, 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ActorId, msg: u32) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(from, msg.wrapping_add(1));
            }
        }
    }
    let start = Instant::now();
    let mut sim: Simulation<u32> = Simulation::new(0x5EED);
    sim.disable_trace();
    let a = sim.add_host(HostConfig::new("ping"));
    let b = sim.add_host(HostConfig::new("pong"));
    let half = bounces / 2;
    sim.spawn(
        a,
        Box::new(Pong {
            peer: ActorId(1),
            serve: true,
            left: half,
        }),
    );
    sim.spawn(
        b,
        Box::new(Pong {
            peer: ActorId(0),
            serve: false,
            left: half,
        }),
    );
    sim.run();
    let wall = start.elapsed();
    wall.as_nanos() as f64 / black_box(sim.events_processed()).max(1) as f64
}
