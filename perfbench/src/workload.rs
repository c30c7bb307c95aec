//! The three campaign workloads, how each is set up from its on-disk study
//! directory, and the digest that pins their analyzed output.

use loki_analysis::{AnalyzedExperiment, CascadeConfig, GlobalEventKind, Verdict};
use loki_apps::kvstore::{cascade_probe, cascade_study, kv_factory, storm_retry, KvConfig};
use loki_apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki_clock::params::ClockParams;
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::probe::ActionProbe;
use loki_core::spec::StudyDef;
use loki_core::study::Study;
use loki_measure::prelude::{MeasureStep, ObservationFn, Predicate, StudyMeasure, SubsetSel};
use loki_runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki_runtime::AppFactory;
use loki_sim::config::HostConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worlds interleaved per worker on every workload.
pub const BATCH: usize = 8;

/// Which campaign a workload runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 3-host token ring, `kill_holder` fault, 20-round sync, budgets armed.
    RingEvents,
    /// 2-host ring with millisecond phases and one sync round.
    RingMicro,
    /// kvstore cascade study: storm retries, state-triggered partition.
    KvCascade,
}

/// One workload: a fixed campaign shape plus the sizes the benchmark runs.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The campaign.
    pub kind: Kind,
    /// Default workload seed (the seed of the microbench fixture it mirrors).
    pub fixture_seed: u64,
    /// Experiments per timed pipeline run.
    pub experiments: u32,
    /// Experiments of the fixture-seed prefix whose digest is pinned.
    pub pinned_prefix: u32,
    /// The pinned digest of that prefix.
    pub pinned_digest: u64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ring-events",
        kind: Kind::RingEvents,
        fixture_seed: 0xE7E7,
        experiments: 1600,
        pinned_prefix: 64,
        pinned_digest: 0x08c7_7aee_a174_c2c3,
    },
    Workload {
        name: "ring-micro",
        kind: Kind::RingMicro,
        fixture_seed: 0xBA7C,
        experiments: 16000,
        pinned_prefix: 256,
        pinned_digest: 0x5746_c382_967e_d4a1,
    },
    Workload {
        name: "kv-cascade",
        kind: Kind::KvCascade,
        fixture_seed: 4242,
        experiments: 96,
        pinned_prefix: 16,
        pinned_digest: 0xf220_83e4_5a79_1f9e,
    },
];

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    fn study_name(&self) -> &'static str {
        match self.kind {
            Kind::RingEvents => "bench-ring-events",
            Kind::RingMicro => "bench-ring-micro",
            Kind::KvCascade => "bench-kv-cascade",
        }
    }

    /// The study definition and probe table written to the study directory.
    pub fn definition(&self) -> (StudyDef, ActionProbe) {
        let name = self.study_name();
        match self.kind {
            Kind::RingEvents => (
                ring_study(name, 3).fault(
                    "tr2",
                    "kill_holder",
                    FaultExpr::atom("tr2", "HAS_TOKEN"),
                    Trigger::Once,
                ),
                ActionProbe::new(),
            ),
            Kind::RingMicro => (ring_study(name, 2), ActionProbe::new()),
            Kind::KvCascade => (cascade_study(name), cascade_probe(true)),
        }
    }

    fn factory(&self, probe: ActionProbe) -> AppFactory {
        match self.kind {
            Kind::RingEvents => ring_factory(RingConfig {
                probe,
                ..RingConfig::default()
            }),
            Kind::RingMicro => ring_factory(RingConfig {
                init_delay_ns: 1_000_000,
                hold_ns: 1_000_000,
                loss_timeout_ns: 50_000_000,
                regen_delay_ns: 10_000_000,
                lifetime_ns: 2_000_000,
                probe,
            }),
            Kind::KvCascade => kv_factory(KvConfig {
                retry: Some(storm_retry()),
                probe,
                ..KvConfig::default()
            }),
        }
    }

    fn config(&self, seed: u64) -> SimHarnessConfig {
        let mut cfg = SimHarnessConfig::three_hosts(seed);
        cfg.workers = Some(1);
        cfg.batch = Some(BATCH);
        match self.kind {
            Kind::RingEvents => {
                // Containment armed with ceilings far above the workload's
                // needs: the armed admission branch is priced, never tripped.
                cfg.max_virtual_time = Some(30_000_000_000);
                cfg.max_events = Some(100_000_000);
            }
            Kind::RingMicro => {
                cfg.hosts = (1..=2)
                    .map(|i| {
                        HostConfig::new(&format!("host{i}")).clock(ClockParams::with_drift_ppm(
                            (i as f64) * 1e5,
                            ((i % 7) as f64) * 40.0 - 120.0,
                        ))
                    })
                    .collect();
                cfg.sync_rounds = 1;
            }
            Kind::KvCascade => {}
        }
        cfg
    }

    /// The study measure the sink folds: time a machine spends in the
    /// state the campaign is about.
    fn measure(&self) -> StudyMeasure {
        let predicate = match self.kind {
            Kind::RingEvents | Kind::RingMicro => Predicate::state("tr1", "HAS_TOKEN"),
            Kind::KvCascade => Predicate::state("kv2", "PRIMARY"),
        };
        StudyMeasure::new("occupancy").step(MeasureStep {
            subset: SubsetSel::All,
            predicate,
            observation: ObservationFn::total_true(),
        })
    }

    /// Whether the sink runs cascade detection (and expects a storm).
    pub fn detects_cascade(&self) -> bool {
        self.kind == Kind::KvCascade
    }

    /// Writes the study directory that [`Workload::setup`] loads.
    pub fn write_study(&self, dir: &Path) -> Result<(), String> {
        let (def, probe) = self.definition();
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        loki_spec::write_study_dir_with_actions(&def, &probe, dir).map_err(|e| e.to_string())
    }

    /// Loads the study directory, compiles the study and builds the
    /// pipeline; returns the prepared campaign and the load time alone.
    pub fn setup(&self, dir: &Path, seed: u64) -> Result<(Prepared, Duration), String> {
        let start = Instant::now();
        let (def, probe) = loki_spec::load_study_dir_with_actions(self.study_name(), dir)
            .map_err(|e| format!("loading {}: {e}", dir.display()))?;
        let load = start.elapsed();
        let study = Study::compile_arc(&def).map_err(|e| format!("compiling: {e}"))?;
        let factory = self.factory(probe);
        let cfg = self.config(seed);
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
        let prepared = Prepared {
            workload: *self,
            study,
            factory,
            cfg,
            pipeline,
            measure: self.measure(),
            cascade: CascadeConfig::default(),
        };
        Ok((prepared, load))
    }
}

/// A workload ready to run: compiled study, app factory, harness config
/// and the pipeline built over them.
pub struct Prepared {
    /// The workload this was prepared from.
    pub workload: Workload,
    /// The compiled study.
    pub study: Arc<Study>,
    /// The application factory.
    pub factory: AppFactory,
    /// The harness configuration (1 worker, batch [`BATCH`]).
    pub cfg: SimHarnessConfig,
    /// The streaming pipeline.
    pub pipeline: CampaignPipeline,
    /// The measure the sink folds.
    pub measure: StudyMeasure,
    /// Cascade detection settings.
    pub cascade: CascadeConfig,
}

/// FNV-1a over a canonical rendering of committed results, in index order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds one analyzed experiment in: every data field of the result
    /// (the pool handle riding on a pooled timeline is bookkeeping, not
    /// data, and is left out).
    pub fn push(&mut self, a: &AnalyzedExperiment) {
        self.u64(u64::from(a.experiment));
        self.str(&format!("{:?}", a.end));
        self.u64(a.injections as u64);
        match &a.global {
            None => self.u64(0),
            Some(gt) => {
                self.u64(1);
                self.f64(gt.start.as_f64());
                self.f64(gt.end.as_f64());
                self.u64(gt.reference_host.index() as u64);
                for ab in &gt.alpha_beta {
                    for v in [ab.alpha_lo, ab.alpha_hi, ab.beta_lo, ab.beta_hi] {
                        self.f64(v);
                    }
                }
                self.u64(gt.events.len() as u64);
                for e in &gt.events {
                    self.u64(e.sm.index() as u64);
                    self.u64(e.record_index as u64);
                    self.f64(e.bounds.lo.as_f64());
                    self.f64(e.bounds.hi.as_f64());
                    match &e.kind {
                        GlobalEventKind::StateChange {
                            event,
                            from_state,
                            new_state,
                        } => {
                            self.u64(1);
                            self.u64(u64::from(event.raw()));
                            self.u64(u64::from(from_state.raw()));
                            self.u64(u64::from(new_state.raw()));
                        }
                        GlobalEventKind::Injection { fault } => {
                            self.u64(2);
                            self.u64(u64::from(fault.raw()));
                        }
                        GlobalEventKind::Restart { host } => {
                            self.u64(3);
                            self.u64(u64::from(host.raw()));
                        }
                        GlobalEventKind::UserMessage(m) => {
                            self.u64(4);
                            self.str(m);
                        }
                    }
                }
                self.u64(gt.intervals.len() as u64);
                for i in &gt.intervals {
                    self.u64(i.sm.index() as u64);
                    self.u64(i.state.index() as u64);
                    self.f64(i.enter.lo.as_f64());
                    self.f64(i.enter.hi.as_f64());
                    match i.exit {
                        None => self.u64(0),
                        Some(b) => {
                            self.u64(1);
                            self.f64(b.lo.as_f64());
                            self.f64(b.hi.as_f64());
                        }
                    }
                }
            }
        }
        match &a.verdict {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(u64::from(v.accepted));
                for c in &v.checks {
                    self.u64(u64::from(c.fault.raw()));
                    self.u64(c.sm.index() as u64);
                    self.f64(c.bounds.lo.as_f64());
                    self.f64(c.bounds.hi.as_f64());
                    match &c.verdict {
                        Verdict::Correct => self.u64(1),
                        Verdict::Incorrect { reason } => self.str(reason),
                    }
                }
                for f in &v.missing {
                    self.u64(u64::from(f.raw()));
                }
            }
        }
        match &a.error {
            None => self.u64(0),
            Some(e) => self.str(&e.to_string()),
        }
    }
}
