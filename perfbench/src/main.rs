//! Campaign benchmark for the Loki workspace.
//!
//! Runs one workload through the streaming `CampaignPipeline` and prints
//! its end-to-end metrics (`--trace 0`) or its per-layer metrics
//! (`--trace 1`), checks the committed results, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. See `README.md`
//! next to this package for the workloads, metrics and their predictions.
//!
//! ```text
//! loki-perfbench --workload ring-events [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//! ```

mod alloc;
mod calib;
mod passes;
mod workload;

use loki_analysis::ShellPool;
use passes::{Outcome, PartA, PartB, Span, SPANS};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Digest, Prepared, Workload, BATCH, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Cold set-ups per run; `setup_s` and `spec.load_us` are their medians.
const SETUP_REPS: usize = 31;
/// Least time between reference-kernel samples during the set-ups: often
/// enough to follow the host's speed, rare enough not to disturb short
/// set-ups (a sample evicts caches and churns the heap).
const KERNEL_GAP: Duration = Duration::from_millis(10);
/// Message bounces per engine-floor sample.
const FLOOR_BOUNCES: u64 = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        seed: seed.unwrap_or(workload.fixture_seed),
        workload,
        seconds,
        trace,
        work_dir,
    })
}

/// Running tally of the output checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Records `n` checked experiments of which `bad` failed a check.
    fn record(&mut self, what: &str, n: u32, bad: usize) {
        self.attempted += u64::from(n);
        self.failed += bad as u64;
        if bad > 0 {
            self.notes
                .push(format!("{what}: {bad} of {n} experiments failed"));
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (unsorted), `q` in [0, 1].
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Runs the pipeline (part a) and the decomposition (part b) over the
/// same experiments and checks both against the workload's invariants,
/// their per-experiment digests against each other, and the decomposition's
/// spans against its wall time.
fn verify(
    prep: &Prepared,
    pool: &ShellPool,
    checks: &mut Checks,
) -> Result<(PartA, PartB), String> {
    let n = prep.workload.experiments;
    let a = passes::part_a(prep, n, true)?;
    let b = passes::part_b(prep, n, pool, true)?;
    checks.record(
        "pipeline: failed or invariant-breaking",
        n,
        a.outcome.failed + a.outcome.violations,
    );
    let differing = a
        .digests
        .iter()
        .zip(&b.digests)
        .filter(|(x, y)| x != y)
        .count()
        + a.digests.len().abs_diff(b.digests.len());
    checks.record(
        "decomposition: failed, invariant-breaking or digest != pipeline",
        n,
        b.outcome.failed + b.outcome.violations + differing,
    );
    let coverage = b.span_total().as_secs_f64() / b.wall.as_secs_f64();
    if !(0.95..=1.0).contains(&coverage) {
        checks.fail(format!(
            "decomposition spans cover {coverage:.4} of its wall time"
        ));
    }
    Ok((a, b))
}

/// The pinned digest of the fixture-seed prefix.
fn verify_pinned(
    w: Workload,
    study_dir: &std::path::Path,
    checks: &mut Checks,
) -> Result<u64, String> {
    let (prep, _) = w.setup(study_dir, w.fixture_seed)?;
    let mut digest = Digest::default();
    prep.pipeline
        .run_with_workers(w.pinned_prefix, 1, |a| digest.push(&a))
        .map_err(|e| e.to_string())?;
    checks.attempted += u64::from(w.pinned_prefix);
    if digest.value() != w.pinned_digest {
        checks.fail(format!(
            "fixture-seed digest of the first {} experiments is {:#018x}, pinned {:#018x}",
            w.pinned_prefix,
            digest.value(),
            w.pinned_digest
        ));
    }
    Ok(digest.value())
}

/// Timed untraced runs; every run's outcome must match `reference`.
fn end_to_end(
    args: &Args,
    prep: &Prepared,
    reference: &Outcome,
    setup_s: &[f64],
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let n = prep.workload.experiments;
    let mut wall_rates = Vec::new();
    let mut rates = Vec::new();
    let mut accepted = 0u64;
    let mut timed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while rates.is_empty() || Instant::now() < deadline {
        let k0 = calib::ns_per_event();
        let (wall, summary, outcome) = passes::untraced(prep, n)?;
        let k1 = calib::ns_per_event();
        let wall = wall.as_secs_f64();
        wall_rates.push(f64::from(n) / wall);
        rates.push(f64::from(n) / calib::to_reference(wall, (k0 + k1) / 2.0));
        accepted += summary.accepted as u64;
        timed += u64::from(n);
        checks.record(
            "timed run: failed, invariant-breaking or differing",
            n,
            outcome.failed + outcome.violations + outcome.mismatches(reference),
        );
    }
    let clean = 1.0 - checks.failed as f64 / checks.attempted as f64;
    println!(
        "  {} timed runs of {n} experiments; at reference speed p25 {:.1} p75 {:.1} exp/s",
        rates.len(),
        quantile(&rates, 0.25),
        quantile(&rates, 0.75)
    );
    println!(
        "  wall-clock exp/s on this host: median {:.1}, p25 {:.1}, p75 {:.1}",
        median(&wall_rates),
        quantile(&wall_rates, 0.25),
        quantile(&wall_rates, 0.75)
    );
    println!("  failed_share {:.6} share", 1.0 - clean);
    Ok(vec![
        ("exp_per_ref_s", median(&rates), "1/s"),
        ("setup_s", median(setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("accepted_share", accepted as f64 / timed as f64, "share"),
        ("clean_share", clean, "share"),
    ])
}

/// Traced iterations: floor, untraced run, part (a), part (b), repeated
/// until the deadline; every pass's outcome must match `reference`.
fn per_layer(
    args: &Args,
    prep: &Prepared,
    reference: &Outcome,
    pool: &ShellPool,
    load_us: &[f64],
    result_bytes: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let n = prep.workload.experiments;
    let mut floor = Vec::new();
    let mut kernel = Vec::new();
    let mut wall_rates = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut floor_ratio = Vec::new();
    let mut overhead = Vec::new();
    let mut speedup = Vec::new();
    let mut worker_us = Vec::new();
    let mut sink_us = Vec::new();
    let mut run_us = Vec::new();
    let mut span_us: [Vec<f64>; SPANS.len()] = Default::default();
    let mut push_us = Vec::new();
    let mut wait_us = Vec::new();
    let (mut last_a, mut last_b, mut last_summary) = (None, None, None);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while last_b.is_none() || Instant::now() < deadline {
        // Floor samples bracket the untraced run they are compared with.
        let f0 = passes::floor_ns_per_event(FLOOR_BOUNCES);
        let (wall, summary, outcome) = passes::untraced(prep, n)?;
        let f1 = passes::floor_ns_per_event(FLOOR_BOUNCES);
        kernel.push(calib::ns_per_event());
        wall_rates.push(f64::from(n) / wall.as_secs_f64());
        checks.record(
            "untraced run: failed, invariant-breaking or differing",
            n,
            outcome.failed + outcome.violations + outcome.mismatches(reference),
        );
        let ns = wall.as_nanos() as f64 / summary.events.max(1) as f64;
        let f = (f0 + f1) / 2.0;
        floor.extend([f0, f1]);
        ns_per_event.push(ns);
        floor_ratio.push(ns / f);

        let a = passes::part_a(prep, n, false)?;
        checks.record(
            "traced run: failed, invariant-breaking or differing",
            n,
            a.outcome.failed + a.outcome.violations + a.outcome.mismatches(reference),
        );
        overhead.push(a.wall.as_secs_f64() / wall.as_secs_f64() - 1.0);
        worker_us.push(a.worker.as_secs_f64() * 1e6 / f64::from(n));
        sink_us.push(a.sink.as_secs_f64() * 1e6 / f64::from(n));
        push_us.extend(us(&a.push_ns));
        wait_us.extend(us(&a.wait_ns));

        let b = passes::part_b(prep, n, pool, false)?;
        checks.record(
            "decomposition: failed, invariant-breaking or differing",
            n,
            b.outcome.failed + b.outcome.violations + b.outcome.mismatches(reference),
        );
        let calibrate: u64 = b.span_ns[Span::Calibrate as usize].iter().sum();
        speedup.push((b.wall.as_secs_f64() - calibrate as f64 / 1e9) / a.wall.as_secs_f64());
        run_us.extend(us(&b.span_ns[Span::Run as usize]));
        for s in SPANS {
            span_us[s as usize].push(median(&us(&b.span_ns[s as usize])));
        }
        (last_a, last_b, last_summary) = (Some(a), Some(b), Some(summary));
    }
    let (a, b, summary) = (
        last_a.expect("loop ran"),
        last_b.expect("loop ran"),
        last_summary.expect("loop ran"),
    );
    let per_exp = |x: u64| x as f64 / f64::from(n);
    let span = |s: Span| median(&span_us[s as usize]);
    println!(
        "  {} traced iterations of {n} experiments; {} run_experiment samples",
        speedup.len(),
        run_us.len()
    );
    Ok(vec![
        ("pipeline.exp_per_s_wall", median(&wall_rates), "1/s"),
        ("calib.ns_per_event", median(&kernel), "ns"),
        ("sim.events_per_exp", per_exp(summary.events), "count"),
        ("sim.ns_per_event", median(&ns_per_event), "ns"),
        ("sim.floor_ns_per_event", median(&floor), "ns"),
        ("sim.floor_ratio", median(&floor_ratio), "ratio"),
        ("runtime.run_experiment_us_p50", median(&run_us), "us"),
        (
            "runtime.run_experiment_us_p99",
            quantile(&run_us, 0.99),
            "us",
        ),
        ("runtime.records_per_exp", per_exp(b.records), "count"),
        (
            "runtime.sync_samples_per_exp",
            per_exp(b.sync_samples),
            "count",
        ),
        (
            "runtime.allocs_per_exp",
            per_exp(b.span_allocs[Span::Run as usize]),
            "count",
        ),
        (
            "runtime.actor_reuses_per_exp",
            per_exp(summary.actor_reuses),
            "count",
        ),
        (
            "runtime.timeline_reuses_per_exp",
            per_exp(summary.timeline_reuses),
            "count",
        ),
        ("pipeline.batch_speedup", median(&speedup), "ratio"),
        (
            "pipeline.allocs_per_exp",
            a.steady_allocs as f64 / f64::from(a.steady_experiments.max(1)),
            "count",
        ),
        ("pipeline.worker_us_per_exp", median(&worker_us), "us"),
        ("pipeline.sink_us_per_exp", median(&sink_us), "us"),
        ("pipeline.reorder_wait_us", median(&wait_us), "us"),
        ("pipeline.trace_overhead", median(&overhead), "ratio"),
        (
            "pipeline.peak_raw_retained",
            a.summary.peak_raw_retained as f64,
            "count",
        ),
        ("pipeline.result_bytes_per_exp", result_bytes, "bytes"),
        ("analysis.make_global_us", span(Span::MakeGlobal), "us"),
        ("analysis.check_us", span(Span::Check), "us"),
        (
            "analysis.global_events_per_exp",
            per_exp(b.global_events),
            "count",
        ),
        (
            "analysis.allocs_per_exp",
            per_exp(b.span_allocs[Span::MakeGlobal as usize] + b.span_allocs[Span::Check as usize]),
            "count",
        ),
        (
            "analysis.result_shell_allocs",
            a.summary.result_shell_allocs as f64,
            "count",
        ),
        ("analysis.cascade_us", span(Span::Cascade), "us"),
        ("clock.calibrate_us", span(Span::Calibrate), "us"),
        (
            "clock.calibrate_share",
            span(Span::Calibrate) / span(Span::MakeGlobal),
            "ratio",
        ),
        ("measure.push_us", median(&push_us), "us"),
        ("measure.allocs_per_exp", per_exp(a.push_allocs), "count"),
        (
            "trace.span_coverage",
            b.span_total().as_secs_f64() / b.wall.as_secs_f64(),
            "ratio",
        ),
        ("spec.load_us", median(load_us), "us"),
    ])
}

fn run(args: &Args) -> Result<(Vec<Metric>, Checks), String> {
    let w = args.workload;
    let study_dir = args.work_dir.join(w.name).join("study");
    w.write_study(&study_dir)?;
    println!(
        "workload {} seed {} ({} experiments per run, 1 worker, batch {BATCH})",
        w.name, args.seed, w.experiments
    );

    // Cold set-ups: load the study directory, compile, build the pipeline,
    // and run until the first result commits. They run back to back in
    // groups of at least `KERNEL_GAP`; a reference-kernel sample closes each
    // group, and each set-up is scaled by the samples on either side of it.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut load_us = Vec::with_capacity(SETUP_REPS);
    let mut group = Vec::new();
    let mut before = calib::ns_per_event();
    let mut group_start = Instant::now();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (prep, load) = w.setup(&study_dir, args.seed)?;
        group.push(passes::first_result(&prep, start)?.as_secs_f64());
        load_us.push(load.as_secs_f64() * 1e6);
        prepared = Some(prep);
        if group_start.elapsed() >= KERNEL_GAP || rep + 1 == SETUP_REPS {
            let after = calib::ns_per_event();
            let kernel_ns = (before + after) / 2.0;
            setup_s.extend(group.drain(..).map(|s| calib::to_reference(s, kernel_ns)));
            before = after;
            group_start = Instant::now();
        }
    }
    let prep = prepared.expect("SETUP_REPS > 0");

    let mut checks = Checks::default();
    let pool = ShellPool::default();
    let (a, _) = verify(&prep, &pool, &mut checks)?;
    let pinned = verify_pinned(w, &study_dir, &mut checks)?;
    println!("  fixture-seed prefix digest {pinned:#018x}");

    let metrics = if args.trace {
        per_layer(
            args,
            &prep,
            &a.outcome,
            &pool,
            &load_us,
            a.result_bytes,
            &mut checks,
        )?
    } else {
        end_to_end(args, &prep, &a.outcome, &setup_s, &mut checks)?
    };
    std::fs::remove_dir_all(args.work_dir.join(w.name))
        .map_err(|e| format!("cannot clean the work directory: {e}"))?;
    Ok((metrics, checks))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loki-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (metrics, mut checks) = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("loki-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
        let value = if value.is_finite() {
            *value
        } else {
            checks.fail(format!("metric {name} is not finite"));
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &checks.notes {
        println!("  CHECK FAILED: {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );
}
