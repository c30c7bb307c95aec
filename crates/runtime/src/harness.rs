//! The experiment harness: runs studies on a selectable execution backend.
//!
//! One experiment (§2.3) = pre-sync mini-phase → runtime phase (daemons +
//! nodes until completion or timeout) → post-sync mini-phase. The harness
//! assembles the resulting [`ExperimentData`] — local timelines plus sync
//! samples — which feeds the analysis phase.
//!
//! Campaigns pick their execution environment per study with
//! [`SimHarnessConfig::backend`]: [`Backend::Sim`] runs on the
//! deterministic simulation, [`Backend::Threads`] runs the *same*
//! applications with every node as an OS thread (the thread backend
//! derives its host/clock/timeout/restart settings from the same config).
//!
//! Every campaign runs on one worker loop: workers claim experiment
//! indices from a shared counter, drive them (the simulation interleaves
//! a batch of reset-reused worlds per worker; the thread backend runs one
//! experiment at a time under a retry policy), finish each result inside
//! the worker, and commit results in index order through one reorder
//! buffer. [`run_study`] runs that loop and returns the raw
//! [`ExperimentData`]. The streaming [`CampaignPipeline`] runs the same
//! loop but analyzes each experiment in its worker — global-timeline
//! construction and verdict checking — and drops the raw data right
//! after, so campaign memory stays O(workers × batch) instead of
//! O(experiments). [`try_run_experiment`] runs one experiment on a fresh
//! world: the reference the campaign loop is tested against.

use crate::app::AppFactory;
use crate::daemons::{
    reuse_or_box, ActorHull, CentralDaemon, ExpCtx, LocalDaemon, RestartPolicy, Supervisor,
};
use crate::messages::{NotifyRouting, RtMsg};
use crate::store::WarningSink;
use crate::syncer::{SyncEcho, Syncer};
use crate::thread_backend::{run_thread_experiment_with, ThreadHarnessConfig};
use loki_analysis::{analyze_one_pooled, AnalysisOptions, AnalyzedExperiment, ShellPool};
use loki_clock::params::fastest_reference;
use loki_core::campaign::{ExperimentData, ExperimentEnd, ExperimentFailure, HostSync};
use loki_core::ids::{HostId, SymbolTable};
use loki_core::study::Study;
use loki_sim::batch::WorldSet;
use loki_sim::config::{HostConfig, NetworkConfig};
use loki_sim::engine::{BudgetExceeded, HostId as SimHostId, Simulation, WorldConfig};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The execution backend a study runs on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic simulation: virtual time, modelled OS scheduling
    /// and link delays, byte-identical results per `(seed, experiment)`.
    #[default]
    Sim,
    /// Real concurrency: every node an OS thread with a virtual per-host
    /// clock; wall-clock time, genuinely nondeterministic interleavings.
    Threads,
}

/// A campaign misconfiguration, detected before any experiment runs.
///
/// Campaign entry points ([`run_study`], [`CampaignPipeline::run`] and
/// friends) return these instead of panicking, so a campaign driver — a
/// CLI loading a hand-written campaign file, say — can report the problem
/// and keep going. The per-experiment convenience wrapper
/// [`run_experiment`] still panics, documented as such.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The host list is empty or invalid (duplicate names).
    Hosts(String),
    /// The worker-count configuration is invalid
    /// ([`SimHarnessConfig::workers`] / `LOKI_WORKERS`).
    Workers(String),
    /// The batch-size configuration is invalid
    /// ([`SimHarnessConfig::batch`] / `LOKI_BATCH`).
    Batch(String),
    /// The analysis options are invalid (a degenerate analysis window).
    Analysis(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Hosts(m)
            | CampaignError::Workers(m)
            | CampaignError::Batch(m)
            | CampaignError::Analysis(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Bounded-retry policy for transient experiment failures on the
/// *threads* backend, where a failure (panic, watchdog expiry) can be a
/// scheduling accident rather than a property of the experiment. The
/// deterministic simulation never retries: a replay of `(seed, k)` is
/// byte-identical, so a failed experiment would fail identically again.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExperimentRetry {
    /// Re-runs allowed per failed experiment (0 disables retry).
    pub max_retries: u32,
    /// Base delay before the first re-run; doubles per attempt
    /// (exponential backoff), giving a wedged machine time to recover.
    pub backoff: Duration,
}

impl Default for ExperimentRetry {
    fn default() -> Self {
        ExperimentRetry {
            max_retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Configuration of the experiment harness.
///
/// The host list, seed, timeout, sync rounds, and restart policy apply to
/// every backend; `network`, `routing`, `kill_daemon`, and
/// `sync_interval_ns` are simulation-only knobs (the thread backend routes
/// notifications directly and paces its sync exchanges in real time).
#[derive(Clone, Debug)]
pub struct SimHarnessConfig {
    /// The simulated hosts. Their order defines host indices; placements in
    /// the study refer to these names.
    pub hosts: Vec<HostConfig>,
    /// Network latency models.
    pub network: NetworkConfig,
    /// Experiment timeout (central daemon aborts after this, §3.5.1).
    pub timeout_ns: u64,
    /// Rounds per sync mini-phase (each round yields two samples).
    pub sync_rounds: u32,
    /// Spacing between sync rounds.
    pub sync_interval_ns: u64,
    /// Notification routing design (§3.4.1).
    pub routing: NotifyRouting,
    /// Restart policy of the system under study, if any.
    pub restart: Option<RestartPolicy>,
    /// Fault injection on the *injector itself*: crash the local daemon of
    /// host index `.0` at simulation offset `.1` (ns) into the runtime
    /// phase. The central daemon must detect the abnormality and abort the
    /// experiment (§3.5.1).
    pub kill_daemon: Option<(u32, u64)>,
    /// Base RNG seed; experiment `k` of a study uses `seed + k`.
    pub seed: u64,
    /// Worker threads for [`run_study`] and the [`CampaignPipeline`]:
    /// `Some(n)` forces `n` workers (`Some(1)` runs sequentially on the
    /// calling thread); `None` uses the `LOKI_WORKERS` environment
    /// variable if set, otherwise the machine's available parallelism.
    /// `Some(0)` and unparseable `LOKI_WORKERS` values make the campaign
    /// entry points return [`CampaignError::Workers`] — a silent fallback
    /// would hide a misconfigured campaign. Simulation results are
    /// identical for every worker count — each experiment is fully
    /// determined by `(seed, experiment_index)`.
    pub workers: Option<usize>,
    /// Experiments interleaved per worker on the simulation backend, by
    /// [`run_study`] and the [`CampaignPipeline`] alike: each worker
    /// claims chunks of this many experiments and drives them through one
    /// [`loki_sim::batch::WorldSet`] (FoundationDB-style many-worlds
    /// batching). `Some(k)` forces a batch of `k`; `None` uses the
    /// `LOKI_BATCH` environment variable if set, otherwise 1. `Some(0)`
    /// and unparseable `LOKI_BATCH` values make the campaign entry points
    /// return [`CampaignError::Batch`], exactly like `workers`. Study
    /// results are byte-identical for every batch size — batching only
    /// changes how worlds share a thread.
    pub batch: Option<usize>,
    /// Deterministic virtual-time budget: an experiment whose next event
    /// would be scheduled after this many simulated nanoseconds ends as
    /// [`ExperimentFailure::BudgetVirtualTime`] instead of running on. The
    /// trip point depends only on `(seed, experiment)` — never on worker
    /// count or batch size — so budgeted campaigns stay byte-identical
    /// across pool shapes. `None` (the default) disarms the budget
    /// entirely; a disarmed world pays one predictable branch per event.
    /// Simulation-only; the thread backend's equivalent is the wall-clock
    /// watchdog derived from [`SimHarnessConfig::timeout_ns`].
    pub max_virtual_time: Option<u64>,
    /// Deterministic event-count budget: an experiment that has processed
    /// this many simulation events ends as
    /// [`ExperimentFailure::BudgetEvents`]. Counts every event of the
    /// experiment (sync mini-phases included); same determinism contract
    /// and default as [`SimHarnessConfig::max_virtual_time`].
    pub max_events: Option<u64>,
    /// Retry policy for failed experiments on the threads backend (the
    /// default retries nothing); ignored by the deterministic simulation.
    pub retry: ExperimentRetry,
    /// The execution backend experiments run on.
    pub backend: Backend,
}

impl Default for SimHarnessConfig {
    fn default() -> Self {
        SimHarnessConfig {
            hosts: Vec::new(),
            network: NetworkConfig::default(),
            timeout_ns: 60_000_000_000, // 60 s
            sync_rounds: 20,
            sync_interval_ns: 2_000_000, // 2 ms
            routing: NotifyRouting::default(),
            restart: None,
            kill_daemon: None,
            seed: 0,
            workers: None,
            batch: None,
            max_virtual_time: None,
            max_events: None,
            retry: ExperimentRetry::default(),
            backend: Backend::Sim,
        }
    }
}

impl SimHarnessConfig {
    /// A convenient three-host cluster with distinct clock drifts, the
    /// usual setup of the thesis's example campaign (§5.3).
    pub fn three_hosts(seed: u64) -> Self {
        use loki_clock::params::ClockParams;
        SimHarnessConfig {
            hosts: vec![
                HostConfig::new("host1").clock(ClockParams::with_drift_ppm(0.0, 120.0)),
                HostConfig::new("host2").clock(ClockParams::with_drift_ppm(2e6, -35.0)),
                HostConfig::new("host3").clock(ClockParams::with_drift_ppm(5e5, 60.0)),
            ],
            seed,
            ..Default::default()
        }
    }

    /// The reference host for off-line synchronization: the fastest clock
    /// (§5.7).
    pub fn reference_host(&self) -> &str {
        fastest_reference(self.hosts.iter().map(|h| (h.name.as_str(), &h.clock)))
            .expect("at least one host")
    }

    /// Selects the execution backend (builder-style).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the study-run [`SymbolTable`]: every host interned in
    /// configuration order, so [`HostId`]s are dense, deterministic, and
    /// double as simulation host indices. Every campaign builds this once
    /// per study and `Arc`-shares it into every worker; per-experiment
    /// data then carries ids, not strings.
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::new(SymbolTable::for_hosts(self.hosts.iter().map(|h| &h.name)))
    }

    /// Derives the thread backend's configuration from this one: same
    /// hosts (names + clock models), sync rounds, timeout, seed, and — as
    /// the closest thread-backend equivalent of the supervisor — the
    /// restart probability.
    pub fn thread_config(&self) -> ThreadHarnessConfig {
        ThreadHarnessConfig {
            hosts: self
                .hosts
                .iter()
                .map(|h| (h.name.clone(), h.clock))
                .collect(),
            sync_rounds: self.sync_rounds,
            timeout: Duration::from_nanos(self.timeout_ns),
            restart_probability: self.restart.map(|p| p.probability),
            seed: self.seed,
        }
    }
}

/// Runs one experiment of `study` on the configured backend and returns
/// its raw data.
///
/// # Panics
///
/// Panics if the configuration has no hosts or two hosts share a name —
/// this is the one-off convenience wrapper; [`try_run_experiment`] and
/// the campaign entry points return the same condition as a typed
/// [`CampaignError`] instead.
pub fn run_experiment(
    study: &Arc<Study>,
    factory: AppFactory,
    cfg: &SimHarnessConfig,
    experiment: u32,
) -> ExperimentData {
    match try_run_experiment(study, factory, cfg, experiment) {
        Ok(data) => data,
        Err(e) => panic!("loki: invalid harness config: {e}"),
    }
}

/// [`run_experiment`], returning configuration problems as a typed
/// [`CampaignError`] instead of panicking.
///
/// On the simulation backend this pays the full world construction —
/// config build, host clones, slab growth — for the one experiment. It is
/// the reference the campaign loop's reset-reused, batched worlds are
/// tested against: [`run_study`] returns exactly this data for every `k`.
pub fn try_run_experiment(
    study: &Arc<Study>,
    factory: AppFactory,
    cfg: &SimHarnessConfig,
    experiment: u32,
) -> Result<ExperimentData, CampaignError> {
    validate_hosts(cfg)?;
    Ok(match cfg.backend {
        Backend::Sim => {
            let sim_study = SimStudy::new(study, &factory, cfg);
            let mut sim = Simulation::with_config(sim_study.world.clone(), 0);
            sim_study.run_one(&mut sim, experiment)
        }
        Backend::Threads => run_thread_experiment_with(
            study,
            factory,
            &cfg.thread_config(),
            &cfg.symbols(),
            experiment,
        ),
    })
}

/// Rejects configurations the world build would reject, without building
/// one: an empty host list or duplicate host names.
fn validate_hosts(cfg: &SimHarnessConfig) -> Result<(), CampaignError> {
    if cfg.hosts.is_empty() {
        return Err(CampaignError::Hosts(
            "loki: harness config needs at least one host".to_owned(),
        ));
    }
    for (idx, host) in cfg.hosts.iter().enumerate() {
        if cfg.hosts[..idx].iter().any(|h| h.name == host.name) {
            return Err(CampaignError::Hosts(format!(
                "loki: invalid harness config: duplicate host name {:?}",
                host.name
            )));
        }
    }
    Ok(())
}

/// One study compiled for the simulation backend: the shared immutable
/// [`WorldConfig`] (`Arc`-shared by every world of the study, across
/// workers) plus everything needed to script an experiment through its
/// three phases on any world.
///
/// The experiment itself is a small state machine ([`ExpScript`]): *begin*
/// resets a world to the experiment's seed and spawns the pre-sync actors;
/// each time the world's event queue drains, [`SimStudy::on_drained`]
/// advances the phase — spawning the runtime daemons/nodes, then the
/// post-sync actors, then assembling the [`ExperimentData`]. Driving the
/// machine via one `sim.run()` per phase (the [`SimStudy::run_one`]
/// reference) or via interleaved [`WorldSet::run_world`] calls (the
/// campaign loop) produces byte-identical results: a world only reaches
/// `on_drained` when it has no events left, and worlds never interact.
struct SimStudy<'a> {
    study: &'a Arc<Study>,
    factory: &'a AppFactory,
    cfg: &'a SimHarnessConfig,
    symbols: Arc<SymbolTable>,
    world: Arc<WorldConfig>,
    ref_idx: usize,
}

/// Where an in-flight experiment is in its pre-sync → runtime → post-sync
/// progression.
enum ExpPhase {
    PreSync,
    Runtime,
    PostSync,
}

/// The per-experiment state riding alongside a world: phase progress plus
/// the single shared [`ExpCtx`] the runtime actors write into.
///
/// Every store drains (in deterministic order) into [`ExperimentData`] at
/// assembly, so a script's context is empty again when its experiment
/// finishes — the campaign loop recycles the whole script for the next
/// experiment, keeping the context's `Rc` block, its stores' capacities,
/// and its pooled actor hulls instead of reallocating them. Drain orders
/// are index-determined and lookups are key-addressed, so recycling is
/// unobservable in results.
struct ExpScript {
    experiment: u32,
    phase: ExpPhase,
    pre_sync: Vec<HostSync>,
    ctx: Rc<ExpCtx>,
}

impl Drop for ExpScript {
    fn drop(&mut self) {
        // Pooled hulls hold `Rc<ExpCtx>` while the pool lives *inside* the
        // context — clear the pool here or the cycle leaks the context.
        self.ctx.pool.clear();
    }
}

impl<'a> SimStudy<'a> {
    /// Compiles `cfg` into the shared world description and builds the
    /// study-run symbol table. The host list must have passed
    /// [`validate_hosts`].
    fn new(study: &'a Arc<Study>, factory: &'a AppFactory, cfg: &'a SimHarnessConfig) -> Self {
        let mut world = WorldConfig::new();
        world.set_network(cfg.network);
        for host in &cfg.hosts {
            world.add_host(host.clone()).expect("host list validated");
        }
        let reference = cfg.reference_host();
        let ref_idx = cfg
            .hosts
            .iter()
            .position(|h| h.name == reference)
            .expect("reference host exists");
        SimStudy {
            study,
            factory,
            cfg,
            symbols: cfg.symbols(),
            world: Arc::new(world),
            ref_idx,
        }
    }

    /// Rewinds `sim` to experiment `experiment`'s seed and spawns the
    /// pre-sync actors. The caller drives the world until it drains, then
    /// calls [`SimStudy::on_drained`].
    ///
    /// A finished experiment's `recycled` script is reused when one is
    /// available: the context's `Rc` block, store capacities, and pooled
    /// actor hulls survive, the *contents* are reset (an aborted
    /// experiment can leave directory entries and control flags behind).
    fn begin(
        &self,
        sim: &mut Simulation<RtMsg>,
        experiment: u32,
        recycled: Option<ExpScript>,
    ) -> ExpScript {
        sim.reset(self.cfg.seed.wrapping_add(experiment as u64));
        // Arm the deterministic experiment budgets (`reset` disarmed the
        // recycled world's). The trip point depends only on the event
        // stream, which depends only on `(seed, experiment)`.
        sim.set_budget(self.cfg.max_virtual_time, self.cfg.max_events);
        sim.disable_trace();
        // Park killed actors' boxes for hull recycling instead of
        // dropping them (drained into the pool at every phase boundary).
        sim.set_reclaim_dead(true);
        // Sync phases run on an otherwise idle system (§2.5: messages are
        // exchanged before and after the experiment), so endpoints are
        // dispatched without scheduling delay.
        sim.set_sched_enabled(false);
        let script = match recycled {
            Some(mut script) => {
                script.experiment = experiment;
                script.phase = ExpPhase::PreSync;
                script.ctx.control.reset();
                script.ctx.directory.clear();
                script.ctx.wiring.reset();
                script
            }
            None => ExpScript {
                experiment,
                phase: ExpPhase::PreSync,
                pre_sync: Vec::new(),
                ctx: Rc::new(ExpCtx::new(
                    self.study.clone(),
                    self.symbols.clone(),
                    self.factory.clone(),
                    self.cfg.routing,
                )),
            },
        };
        self.spawn_sync_actors(sim, &script.ctx);
        script
    }

    /// Advances a drained world to its next phase. Returns the finished
    /// experiment's data once the post-sync phase has drained; `None`
    /// while the experiment needs more driving. A phase may drain
    /// instantly (a one-host study has no sync partners), so callers loop
    /// while the world is still drained.
    fn on_drained(
        &self,
        sim: &mut Simulation<RtMsg>,
        script: &mut ExpScript,
    ) -> Option<ExperimentData> {
        // A drained phase means every actor killed during it sits in the
        // engine's graveyard: file the corpses into the typed hull pool so
        // the next phase (or experiment) respawns without boxing.
        for corpse in sim.drain_dead() {
            script.ctx.pool.recycle(corpse);
        }
        // A tripped budget reports the world as drained with events still
        // pending — end the experiment right here, whatever its phase. The
        // campaign loop quarantines the world afterwards, so the undelivered
        // events can never leak into another experiment.
        if let Some(exceeded) = sim.budget_exceeded() {
            let failure = match exceeded {
                BudgetExceeded::VirtualTime => ExperimentFailure::BudgetVirtualTime,
                BudgetExceeded::Events => ExperimentFailure::BudgetEvents,
            };
            script.ctx.control.mark_failed(failure);
            let (events, now) = (sim.events_processed(), sim.now());
            script
                .ctx
                .warnings
                .warn_with(|| format!("{failure} after {events} events at virtual time {now} ns"));
            return Some(self.assemble(sim, script));
        }
        match script.phase {
            ExpPhase::PreSync => {
                sim.set_sched_enabled(true);
                script.pre_sync = script.ctx.collector.drain();
                self.spawn_runtime(sim, script);
                script.phase = ExpPhase::Runtime;
                None
            }
            ExpPhase::Runtime => {
                sim.set_sched_enabled(false);
                // The post-sync mini-phase runs on the injector's own
                // (healthy) network: drop whatever faults the experiment
                // left armed. Belt to the central daemon's braces — it
                // already heals on every teardown path.
                sim.clear_net_faults();
                self.spawn_sync_actors(sim, &script.ctx);
                script.phase = ExpPhase::PostSync;
                None
            }
            ExpPhase::PostSync => {
                sim.set_sched_enabled(true);
                Some(self.assemble(sim, script))
            }
        }
    }

    /// Runs one experiment to completion on `sim` (which may be fresh or
    /// reset-reused), driving the phase machine with one `sim.run()` per
    /// phase.
    fn run_one(&self, sim: &mut Simulation<RtMsg>, experiment: u32) -> ExperimentData {
        let mut script = self.begin(sim, experiment, None);
        loop {
            sim.run();
            if let Some(data) = self.on_drained(sim, &mut script) {
                return data;
            }
        }
    }

    /// Advances drained world `idx` of `set` through every phase that has
    /// drained — a phase can drain instantly (a one-host study has no
    /// sync partners) — and returns the experiment's data once it
    /// finishes; `None` while the world still has events to run.
    fn pump(
        &self,
        set: &mut WorldSet<RtMsg>,
        idx: usize,
        script: &mut ExpScript,
    ) -> Option<ExperimentData> {
        while set.drained(idx) {
            if let Some(data) = set.with_world_mut(idx, |sim| self.on_drained(sim, script)) {
                return Some(data);
            }
        }
        None
    }

    /// Spawns one `SyncEcho`/`Syncer` pair per non-reference host (a sync
    /// mini-phase, §2.5/§5.7), reusing pooled syncer hulls.
    fn spawn_sync_actors(&self, sim: &mut Simulation<RtMsg>, ctx: &Rc<ExpCtx>) {
        for idx in 0..self.cfg.hosts.len() {
            if idx == self.ref_idx {
                continue;
            }
            let echo = sim.spawn(SimHostId(self.ref_idx as u32), Box::new(SyncEcho));
            let host = HostId::from_raw(idx as u32);
            let rounds = self.cfg.sync_rounds;
            let interval = self.cfg.sync_interval_ns;
            let syncer = reuse_or_box(
                ctx.pool.take_syncer(),
                |s: &mut Syncer| s.reinit(echo, host, rounds, interval),
                || Syncer::new(ctx.clone(), echo, host, rounds, interval),
            );
            sim.spawn(SimHostId(idx as u32), syncer);
        }
    }

    /// Spawns the runtime phase: local daemons per the routing design,
    /// optional supervisor, the central daemon, and the optional saboteur.
    fn spawn_runtime(&self, sim: &mut Simulation<RtMsg>, script: &mut ExpScript) {
        let ref_host = SimHostId(self.ref_idx as u32);
        let ctx = &script.ctx;

        match self.cfg.routing {
            NotifyRouting::Centralized => {
                // One global daemon, placed on the reference host.
                let d = sim.spawn(ref_host, pooled_daemon(ctx, self.ref_idx as u32));
                ctx.wiring
                    .fill_daemons((0..self.cfg.hosts.len()).map(|_| d));
            }
            _ => {
                ctx.wiring.fill_daemons(
                    (0..self.cfg.hosts.len()).map(|idx| {
                        sim.spawn(SimHostId(idx as u32), pooled_daemon(ctx, idx as u32))
                    }),
                );
            }
        }

        if let Some(policy) = self.cfg.restart {
            let supervisor = sim.spawn(ref_host, pooled_supervisor(ctx, policy));
            ctx.wiring.set_supervisor(supervisor);
        }

        let central = sim.spawn(
            ref_host,
            pooled_central(ctx, self.cfg.timeout_ns, 100_000_000), // 100 ms shutdown grace
        );
        ctx.wiring.set_central(central);

        if let Some((host, after_ns)) = self.cfg.kill_daemon {
            let victim = ctx.wiring.daemon_for(host as usize);
            sim.spawn(
                ref_host,
                Box::new(crate::daemons::Saboteur { victim, after_ns }),
            );
        }
    }

    /// Packs a finished experiment's stores into [`ExperimentData`] and
    /// adds its events to the context's counter. A recorded containment
    /// failure trumps every other end — a run that panicked *and*
    /// "completed" during teardown is still a failed run.
    fn assemble(&self, sim: &Simulation<RtMsg>, script: &mut ExpScript) -> ExperimentData {
        let ctx = &script.ctx;
        ctx.events.set(ctx.events.get() + sim.events_processed());
        let post_sync = ctx.collector.drain();
        let end = if let Some(failure) = ctx.control.failure() {
            ExperimentEnd::Failed(failure)
        } else if ctx.control.completed() {
            ExperimentEnd::Completed
        } else if ctx.control.timed_out() {
            ExperimentEnd::TimedOut
        } else {
            ExperimentEnd::Aborted
        };
        ExperimentData {
            study: self.study.name.clone(),
            experiment: script.experiment,
            timelines: ctx.store.drain(),
            hosts: self.symbols.host_ids().collect(),
            reference_host: HostId::from_raw(self.ref_idx as u32),
            symbols: self.symbols.clone(),
            pre_sync: std::mem::take(&mut script.pre_sync),
            post_sync,
            end,
            warnings: ctx.warnings.drain(),
        }
    }

    /// A stand-in result for an experiment whose scaffolding died before
    /// (or instead of) assembling real data: an unwind escaped the
    /// engine or the harness itself. There are no timelines to report —
    /// only the typed end and the panic note.
    fn failed_data(&self, experiment: u32, note: String) -> ExperimentData {
        ExperimentData {
            study: self.study.name.clone(),
            experiment,
            timelines: Vec::new(),
            hosts: self.symbols.host_ids().collect(),
            reference_host: HostId::from_raw(self.ref_idx as u32),
            symbols: self.symbols.clone(),
            pre_sync: Vec::new(),
            post_sync: Vec::new(),
            end: ExperimentEnd::Failed(ExperimentFailure::Harness),
            warnings: vec![format!("harness error: {note}")],
        }
    }
}

/// A (possibly pooled) local-daemon hull for `my_host`.
fn pooled_daemon(ctx: &Rc<ExpCtx>, my_host: u32) -> ActorHull {
    reuse_or_box(
        ctx.pool.take_daemon(),
        |d: &mut LocalDaemon| d.reinit(my_host),
        || LocalDaemon::new(ctx.clone(), my_host),
    )
}

/// A (possibly pooled) central-daemon hull.
fn pooled_central(ctx: &Rc<ExpCtx>, timeout_ns: u64, grace_ns: u64) -> ActorHull {
    reuse_or_box(
        ctx.pool.take_central(),
        |c: &mut CentralDaemon| c.reinit(timeout_ns, grace_ns),
        || CentralDaemon::new(ctx.clone(), timeout_ns, grace_ns),
    )
}

/// A (possibly pooled) supervisor hull.
fn pooled_supervisor(ctx: &Rc<ExpCtx>, policy: RestartPolicy) -> ActorHull {
    reuse_or_box(
        ctx.pool.take_supervisor(),
        |s: &mut Supervisor| s.reinit(policy),
        || Supervisor::new(ctx.clone(), policy),
    )
}

/// Resolves the worker count for a study: explicit config, then the
/// `LOKI_WORKERS` environment variable, then the machine's available
/// parallelism. Never more workers than experiments.
fn resolve_workers(cfg: &SimHarnessConfig, experiments: u32) -> Result<usize, CampaignError> {
    let env = std::env::var("LOKI_WORKERS").ok();
    worker_count(cfg.workers, env.as_deref(), experiments).map_err(CampaignError::Workers)
}

/// The pure worker-count resolution; see [`resolve_workers`].
fn worker_count(
    explicit: Option<usize>,
    env: Option<&str>,
    experiments: u32,
) -> Result<usize, String> {
    let requested = positive_setting(explicit, env, "worker count", "workers", "LOKI_WORKERS")?
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    Ok(requested.min(experiments.max(1) as usize))
}

/// Resolves the per-worker batch size on the simulation backend: explicit
/// config, then the `LOKI_BATCH` environment variable, then 1.
fn resolve_batch(cfg: &SimHarnessConfig) -> Result<usize, CampaignError> {
    let env = std::env::var("LOKI_BATCH").ok();
    batch_size(cfg.batch, env.as_deref()).map_err(CampaignError::Batch)
}

/// The pure batch-size resolution; see [`resolve_batch`].
fn batch_size(explicit: Option<usize>, env: Option<&str>) -> Result<usize, String> {
    Ok(positive_setting(explicit, env, "batch size", "batch", "LOKI_BATCH")?.unwrap_or(1))
}

/// One positive campaign setting (`what`): the explicit config `field`,
/// then the environment variable `var`; `None` when neither is set.
/// `Some(0)` and an unparseable or zero `var` are errors — a silent
/// fallback would run a misconfigured campaign with a surprise setting.
fn positive_setting(
    explicit: Option<usize>,
    env: Option<&str>,
    what: &str,
    field: &str,
    var: &str,
) -> Result<Option<usize>, String> {
    match (explicit, env) {
        (Some(0), _) => Err(format!(
            "loki: {what} must be at least 1 (config has `{field}: Some(0)`); \
             use `None` for the default"
        )),
        (Some(n), _) => Ok(Some(n)),
        (None, Some(raw)) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "loki: {var} must be a positive integer, got {raw:?}"
            )),
        },
        (None, None) => Ok(None),
    }
}

/// Rejects an explicit worker count of 0 and clamps the rest to the
/// experiment count.
fn clamp_workers(workers: usize, experiments: u32) -> Result<usize, CampaignError> {
    if workers == 0 {
        return Err(CampaignError::Workers(
            "loki: worker count must be at least 1".to_owned(),
        ));
    }
    Ok(workers.min(experiments.max(1) as usize))
}

/// Runs `experiments` experiments of `study` on the backend selected by
/// [`SimHarnessConfig::backend`], with per-experiment seeds, and returns
/// their raw data in experiment order.
///
/// This is the [`CampaignPipeline`]'s worker loop without the analysis:
/// workers claim experiment indices from one shared counter — chunks of
/// [`SimHarnessConfig::batch`] interleaved worlds on [`Backend::Sim`] —
/// and results commit by index. On [`Backend::Sim`] experiment `k` is
/// fully determined by `(cfg.seed, k)`, so the returned data — order,
/// timelines, sync samples, verdict-relevant fields, everything — is
/// byte-identical whatever the worker count, batch size or scheduling,
/// and equal to [`try_run_experiment`]`(k)`. On [`Backend::Threads`] the
/// per-experiment *fault-injection semantics* are the same (the node core
/// is shared), but timing and interleavings are genuinely
/// nondeterministic.
///
/// Misconfigurations — an empty or duplicated host list, an invalid
/// worker count or batch size — come back as a typed [`CampaignError`]
/// before any experiment runs.
pub fn run_study(
    study: &Arc<Study>,
    factory: AppFactory,
    cfg: &SimHarnessConfig,
    experiments: u32,
) -> Result<Vec<ExperimentData>, CampaignError> {
    run_study_with_workers(
        study,
        factory,
        cfg,
        experiments,
        resolve_workers(cfg, experiments)?,
    )
}

/// [`run_study`] with an explicit worker count (`workers == 1` runs
/// entirely on the calling thread); `workers == 0` is
/// [`CampaignError::Workers`].
pub fn run_study_with_workers(
    study: &Arc<Study>,
    factory: AppFactory,
    cfg: &SimHarnessConfig,
    experiments: u32,
    workers: usize,
) -> Result<Vec<ExperimentData>, CampaignError> {
    let workers = clamp_workers(workers, experiments)?;
    let driver = Driver::new(study, &factory, cfg)?;
    let mut out = Vec::with_capacity(experiments as usize);
    run_campaign(
        &driver,
        experiments,
        workers,
        &PoolStats::default(),
        |data, _| data,
        |data| out.push(data),
    );
    Ok(out)
}

/// Aggregate counters of one [`CampaignPipeline`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Experiments executed.
    pub experiments: u32,
    /// Experiments that completed normally ([`ExperimentEnd::Completed`]).
    pub completed: usize,
    /// Experiments that ended as [`ExperimentEnd::Failed`] — contained
    /// application panics, harness errors, and budget trips. Failed
    /// experiments still reach the sink (typed, in index order); they are
    /// never counted accepted.
    pub failed: usize,
    /// Thread-backend re-runs performed under the
    /// [`SimHarnessConfig::retry`] policy (0 on the deterministic
    /// simulation, which never retries).
    pub retried: usize,
    /// Worlds rebuilt from scratch after a failed experiment: the world
    /// slot *and* its pooled scaffolding (actor hulls, timeline shells,
    /// the experiment context) are discarded rather than recycled, so
    /// whatever state a panic or budget trip left behind cannot reach a
    /// later experiment.
    pub quarantined_worlds: usize,
    /// Experiments whose injections were provably correct (usable for
    /// measures).
    pub accepted: usize,
    /// Total fault injections recorded across all experiments.
    pub injections: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Experiments interleaved per worker ([`SimHarnessConfig::batch`]);
    /// 1 on the threads backend.
    pub batch: usize,
    /// Peak number of in-flight experiments (raw [`ExperimentData`] plus
    /// live world state) inside the pipeline — at most
    /// `workers × batch`, by construction. This is the bounded retention
    /// the streaming design exists for; tests assert on it.
    pub peak_raw_retained: usize,
    /// Actor spawns served from the recycled-hull pool instead of a fresh
    /// box (0 on the threads backend, whose nodes are threads, not pooled
    /// actors).
    pub actor_reuses: u64,
    /// Timeline shells begun on a recycled capacity-retaining buffer
    /// instead of a fresh allocation (0 on the threads backend, like
    /// [`PipelineSummary::actor_reuses`]).
    pub timeline_reuses: u64,
    /// Simulation events processed across all experiments (0 on the
    /// threads backend); the all-in ns/event bench divides by this.
    pub events: u64,
    /// Analyzed-result shells (the `GlobalTimeline` events/intervals/
    /// `alpha_beta` vectors) served from the recycling pool: sinks that
    /// drop their results return the vectors to the workers, so in steady
    /// state `make_global` fills recycled shells instead of allocating.
    pub result_shell_reuses: u64,
    /// Analyzed-result shells that had to be freshly allocated. Bounded by
    /// the in-flight result window (≈ workers × batch + channel + reorder
    /// depth) when the sink drops its results, not by the experiment
    /// count; a retaining sink (e.g. [`CampaignPipeline::collect`]) keeps
    /// shells alive and pays one alloc per experiment instead.
    pub result_shell_allocs: u64,
}

/// The campaign's reorder buffer: holds finished experiments whose
/// predecessors are still running and commits them in strictly increasing
/// index order. A sorted `Vec` (descending, so the next index to commit
/// sits at the tail) instead of a `BTreeMap`: the buffer holds at most
/// `workers × batch` entries, and the `Vec` reuses its capacity across the
/// whole campaign where a map allocates a node per experiment — visible
/// overhead when experiments are tiny.
struct Reorder<V> {
    pending: Vec<(u32, V)>,
    /// The next index to commit — also the number committed so far.
    next: u32,
}

impl<V> Reorder<V> {
    /// Buffers the result of experiment `k`, then commits every result
    /// that is now next in index order.
    fn deliver(&mut self, k: u32, value: V, commit: &mut impl FnMut(V)) {
        let at = self.pending.partition_point(|&(index, _)| index > k);
        self.pending.insert(at, (k, value));
        while self
            .pending
            .last()
            .is_some_and(|&(index, _)| index == self.next)
        {
            let (_, value) = self.pending.pop().expect("checked non-empty");
            commit(value);
            self.next += 1;
        }
    }
}

/// Cross-worker counters of one campaign run, reported in
/// [`PipelineSummary`]. Workers absorb each experiment context's cheap
/// `Cell` counters once, when the context retires — not per experiment.
#[derive(Default)]
struct PoolStats {
    /// In-flight experiments: raised when an experiment begins, lowered
    /// when its raw data is dropped.
    live: AtomicUsize,
    /// High-water mark of `live` ([`PipelineSummary::peak_raw_retained`]).
    peak: AtomicUsize,
    actor_reuses: AtomicU64,
    timeline_reuses: AtomicU64,
    events: AtomicU64,
    /// World slots rebuilt fresh after a failed experiment (bumped at
    /// quarantine time, when the poisoned context retires early).
    quarantined: AtomicU64,
    /// Threads-backend re-runs under [`ExperimentRetry`].
    retried: AtomicU64,
}

impl PoolStats {
    fn begin(&self) {
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(live, Ordering::SeqCst);
    }

    fn end(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    fn absorb(&self, ctx: &ExpCtx) {
        self.actor_reuses
            .fetch_add(ctx.pool.reuses(), Ordering::Relaxed);
        self.timeline_reuses
            .fetch_add(ctx.store.shell_reuses(), Ordering::Relaxed);
        self.events.fetch_add(ctx.events.get(), Ordering::Relaxed);
    }
}

/// How campaign workers execute experiments: the one part of the worker
/// loop ([`run_campaign`]) that differs between backends.
enum Driver<'a> {
    /// The simulation, batched: a worker claims `batch` consecutive
    /// indices and interleaves them through its reused worlds
    /// ([`Worlds::drive`]).
    Sim { study: SimStudy<'a>, batch: usize },
    /// The threads backend, one experiment at a time.
    Threads(ThreadDriver<'a>),
}

impl<'a> Driver<'a> {
    /// Validates the host list and, on the simulation, the batch size.
    fn new(
        study: &'a Arc<Study>,
        factory: &'a AppFactory,
        cfg: &'a SimHarnessConfig,
    ) -> Result<Self, CampaignError> {
        validate_hosts(cfg)?;
        Ok(match cfg.backend {
            Backend::Sim => Driver::Sim {
                batch: resolve_batch(cfg)?,
                study: SimStudy::new(study, factory, cfg),
            },
            Backend::Threads => Driver::Threads(ThreadDriver {
                study,
                factory,
                symbols: cfg.symbols(),
                cfg: cfg.thread_config(),
                retry: cfg.retry,
            }),
        })
    }

    /// Experiments a worker claims at once.
    fn batch(&self) -> usize {
        match self {
            Driver::Sim { batch, .. } => *batch,
            Driver::Threads(_) => 1,
        }
    }
}

/// The threads backend's experiment driver.
struct ThreadDriver<'a> {
    study: &'a Arc<Study>,
    factory: &'a AppFactory,
    symbols: Arc<SymbolTable>,
    cfg: ThreadHarnessConfig,
    retry: ExperimentRetry,
}

impl ThreadDriver<'_> {
    /// Runs experiment `k`. A failed run re-runs under the bounded
    /// [`ExperimentRetry`] policy with exponential backoff — a real
    /// machine's failure can be a scheduling accident; the simulation's
    /// cannot, so it never retries.
    fn run(&self, k: u32, stats: &PoolStats) -> ExperimentData {
        stats.begin();
        let mut attempt = 0u32;
        loop {
            let data = run_thread_experiment_with(
                self.study,
                self.factory.clone(),
                &self.cfg,
                &self.symbols,
                k,
            );
            if !matches!(data.end, ExperimentEnd::Failed(_)) || attempt >= self.retry.max_retries {
                return data;
            }
            std::thread::sleep(self.retry.backoff * (1u32 << attempt.min(16)));
            attempt += 1;
            stats.retried.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One simulation worker's state, kept across the chunks it claims: a
/// [`WorldSet`] of up to K worlds, the script of each world's in-flight
/// experiment, and finished scripts waiting to be recycled. Worlds and
/// their slabs persist across chunks — after the first chunk a worker's
/// steady state allocates almost nothing per experiment.
#[derive(Default)]
struct Worlds {
    set: WorldSet<RtMsg>,
    scripts: Vec<Option<ExpScript>>,
    /// Finished experiments' (drained-empty) scripts; `begin`
    /// recycles them, so in steady state a worker reallocates none of the
    /// per-experiment scaffolding.
    spare: Vec<ExpScript>,
}

impl Worlds {
    /// Drives the chunk `ks` (at most K experiments) to completion: load
    /// one world per experiment, then always step the world with the
    /// earliest next event; when a world drains, advance its phase or
    /// hand its finished experiment to `process`. Returns `false` as soon
    /// as `process` does (the coordinator hung up), abandoning the chunk.
    ///
    /// # Failure containment
    ///
    /// An experiment that ends as [`ExperimentEnd::Failed`] — a contained
    /// application panic, a budget trip — or whose scaffolding unwinds out
    /// of the engine entirely (reported as [`ExperimentFailure::Harness`])
    /// poisons its world and its pooled scaffolding. Both are
    /// **quarantined** ([`Worlds::settle`]). Sibling worlds never notice —
    /// worlds don't interact, and the claim counter hands out each index
    /// exactly once — so the surviving experiments' results are
    /// byte-identical to a failure-free campaign's.
    fn drive(
        &mut self,
        sim: &SimStudy<'_>,
        ks: Range<u32>,
        stats: &PoolStats,
        process: &mut impl FnMut(u32, ExperimentData, Option<&ExpCtx>) -> bool,
    ) -> bool {
        let mut inflight = 0usize;
        for (slot, k) in ks.enumerate() {
            if slot == self.set.len() {
                self.set.push(Simulation::with_config(sim.world.clone(), 0));
                self.scripts.push(None);
            }
            stats.begin();
            let recycled = self.spare.pop();
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                let mut script = self.set.with_world_mut(slot, |w| sim.begin(w, k, recycled));
                let finished = sim.pump(&mut self.set, slot, &mut script);
                (script, finished)
            }));
            let (script, data) = match loaded {
                Ok((script, None)) => {
                    self.scripts[slot] = Some(script);
                    inflight += 1;
                    continue;
                }
                Ok((script, Some(data))) => (Some(script), data),
                // The unwind consumed the script (and possibly a recycled
                // one); the half-loaded world is rebuilt.
                Err(payload) => (
                    None,
                    sim.failed_data(k, crate::contain::panic_note(payload.as_ref())),
                ),
            };
            if !self.settle(sim, stats, slot, script, data, process) {
                return false;
            }
        }

        while inflight > 0 {
            let (idx, horizon) = self
                .set
                .earliest()
                .expect("worlds with in-flight experiments have events");
            let ran = catch_unwind(AssertUnwindSafe(|| self.set.run_world(idx, horizon)));
            if ran.is_ok() && !self.set.drained(idx) {
                continue;
            }
            let mut script = self.scripts[idx]
                .take()
                .expect("drained world has a script");
            let pumped = ran.and_then(|()| {
                catch_unwind(AssertUnwindSafe(|| {
                    sim.pump(&mut self.set, idx, &mut script)
                }))
            });
            let data = match pumped {
                Ok(None) => {
                    self.scripts[idx] = Some(script);
                    continue;
                }
                Ok(Some(data)) => data,
                // The engine or the harness unwound: the world is
                // unusable and its experiment produced nothing.
                Err(payload) => sim.failed_data(
                    script.experiment,
                    crate::contain::panic_note(payload.as_ref()),
                ),
            };
            inflight -= 1;
            if !self.settle(sim, stats, idx, Some(script), data, process) {
                return false;
            }
        }
        true
    }

    /// Hands a finished experiment to `process` and retires its world
    /// slot. A healthy script joins the recycling list; a failed
    /// experiment is quarantined — its script (context, hull pool, store
    /// shells) is dropped and the world rebuilt fresh from the shared
    /// [`WorldConfig`].
    fn settle(
        &mut self,
        sim: &SimStudy<'_>,
        stats: &PoolStats,
        idx: usize,
        script: Option<ExpScript>,
        data: ExperimentData,
        process: &mut impl FnMut(u32, ExperimentData, Option<&ExpCtx>) -> bool,
    ) -> bool {
        let failed = matches!(data.end, ExperimentEnd::Failed(_));
        let keep_going = process(data.experiment, data, script.as_ref().map(|s| &*s.ctx));
        match script {
            Some(script) if !failed => self.spare.push(script),
            script => {
                if let Some(script) = script {
                    stats.absorb(&script.ctx);
                }
                self.set
                    .replace(idx, Simulation::with_config(sim.world.clone(), 0));
                stats.quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
        keep_going
    }

    /// Folds every remaining context's recycling counters into `stats`
    /// when the worker exits (in-flight scripts only remain after an early
    /// bail-out; quarantined contexts were absorbed when they retired).
    fn retire(self, stats: &PoolStats) {
        for script in self.scripts.iter().flatten().chain(&self.spare) {
            stats.absorb(&script.ctx);
        }
    }
}

/// One worker of [`run_campaign`]: claims chunks of `driver.batch()`
/// consecutive experiment indices from the shared counter until it passes
/// `experiments`, drives each chunk, and hands every finished experiment
/// through `finish` to `deliver`. `deliver` returns `false` to stop the
/// worker early (the coordinator hung up).
fn work<R>(
    driver: &Driver<'_>,
    claim: &AtomicU32,
    experiments: u32,
    stats: &PoolStats,
    finish: &impl Fn(ExperimentData, Option<&ExpCtx>) -> R,
    mut deliver: impl FnMut(u32, R) -> bool,
) {
    let chunk = driver.batch() as u32;
    let mut worlds = None;
    let mut process = |k, data, ctx: Option<&ExpCtx>| deliver(k, finish(data, ctx));
    loop {
        // Relaxed suffices: the claim is the only shared state, and the
        // result hand-off orders everything else.
        let base = claim.fetch_add(chunk, Ordering::Relaxed);
        if base >= experiments {
            break;
        }
        let mut ks = base..experiments.min(base.saturating_add(chunk));
        let keep_going = match driver {
            Driver::Sim { study, .. } => {
                worlds
                    .get_or_insert_with(Worlds::default)
                    .drive(study, ks, stats, &mut process)
            }
            Driver::Threads(threads) => ks.all(|k| process(k, threads.run(k, stats), None)),
        };
        if !keep_going {
            break;
        }
    }
    if let Some(worlds) = worlds {
        worlds.retire(stats);
    }
}

/// The one campaign worker loop behind [`run_study`] and every
/// [`CampaignPipeline`] entry point.
///
/// Workers claim experiments dynamically from one shared atomic index
/// counter (work stealing, in chunks of the batch size): whichever worker
/// finishes first takes the next unstarted experiments, so a heavy-tailed
/// study keeps the whole pool busy. Each finished experiment goes through
/// `finish` inside its worker, and the result reaches `commit` exactly
/// once, in strictly increasing index order, through one reorder buffer.
///
/// With one worker everything runs on the calling thread — no thread hop,
/// no channel. With more, workers send `(k, result)` through one bounded
/// channel (capacity = workers, real backpressure) and the calling thread
/// drains it into the reorder buffer. The buffer holds only results whose
/// predecessors are still running — at worst the skew the stealing exists
/// to absorb.
fn run_campaign<R: Send>(
    driver: &Driver<'_>,
    experiments: u32,
    workers: usize,
    stats: &PoolStats,
    finish: impl Fn(ExperimentData, Option<&ExpCtx>) -> R + Sync,
    mut commit: impl FnMut(R),
) {
    let claim = AtomicU32::new(0);
    let mut reorder = Reorder {
        pending: Vec::new(),
        next: 0,
    };
    if workers == 1 {
        work(driver, &claim, experiments, stats, &finish, |k, result| {
            reorder.deliver(k, result, &mut commit);
            true
        });
    } else {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<(u32, R)>(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                let (claim, finish) = (&claim, &finish);
                // A failed send means the coordinator is gone (the commit
                // or a sibling panicked): stop claiming and bail out.
                scope.spawn(move || {
                    work(driver, claim, experiments, stats, finish, |k, result| {
                        tx.send((k, result)).is_ok()
                    })
                });
            }
            // All senders are worker-owned, so the drain ends once every
            // worker has finished or died; a dead worker's panic then
            // propagates out of the scope.
            drop(tx);
            for (k, result) in rx {
                reorder.deliver(k, result, &mut commit);
            }
        });
    }
    // After the scope: a worker panic has already propagated, so an
    // undelivered experiment here is a genuine harness bug.
    assert_eq!(reorder.next, experiments, "campaign lost experiments");
}

/// The streaming campaign pipeline: execution, global-timeline
/// construction, and verdict checking fused into a single per-experiment
/// flow on the same worker loop as [`run_study`].
///
/// On the simulation backend each worker drives a **batch** of
/// [`SimHarnessConfig::batch`] independent worlds at once through one
/// [`WorldSet`] (FoundationDB-style many-worlds interleaving: always step
/// the world with the earliest next event), reusing the worlds — and
/// their event/timer slab allocations — across chunks via
/// [`loki_sim::engine::Simulation::reset`]. The moment an experiment
/// finishes, the worker analyzes it in place (`loki_analysis::analyze_one`:
/// clock calibration → `make_global` → `check_experiment`) and **drops
/// the raw [`ExperimentData`]**. Only the compact [`AnalyzedExperiment`]
/// crosses the (bounded) channel to the caller, so campaign memory is
/// O(workers × batch) in raw experiments and analysis overlaps execution
/// instead of trailing it as a batch phase.
///
/// # Scheduling and determinism contract
///
/// Workers claim experiments dynamically from a shared atomic index
/// counter (work stealing, in chunks of the batch size), exactly as in
/// [`run_study`]. Results are merged **by experiment index**: the sink
/// closure is invoked exactly once per experiment, in strictly increasing
/// index order `0, 1, …, experiments − 1`, whatever the worker count or
/// completion order (out-of-order compact results wait in a reorder
/// buffer; raw data never crosses a channel). On [`Backend::Sim`],
/// experiment `k` is fully determined by `(cfg.seed, k)` — a reset world
/// replays exactly like a fresh one, and interleaved worlds never
/// interact — so everything the sink observes — timelines, verdicts,
/// measure folds — is byte-identical across worker counts *and batch
/// sizes* and identical to the batch `run_study` + `analyze` path.
///
/// # Examples
///
/// ```no_run
/// use loki_runtime::harness::{CampaignPipeline, SimHarnessConfig};
/// # fn demo(study: std::sync::Arc<loki_core::study::Study>,
/// #         factory: loki_runtime::AppFactory) {
/// let pipeline = CampaignPipeline::new(study, factory, SimHarnessConfig::three_hosts(7));
/// let mut accepted = 0;
/// let summary = pipeline
///     .run(1_000, |analyzed| {
///         // Called in experiment order; raw data is already gone.
///         if analyzed.accepted() {
///             accepted += 1;
///         }
///     })
///     .expect("valid campaign config");
/// assert!(summary.peak_raw_retained <= summary.workers * summary.batch);
/// # }
/// ```
pub struct CampaignPipeline {
    study: Arc<Study>,
    factory: AppFactory,
    cfg: SimHarnessConfig,
    analysis: AnalysisOptions,
    /// Deduplicated per-run failure reports: one line per distinct
    /// [`ExperimentFailure`] kind, recorded on the coordinator as results
    /// commit in index order (so "first experiment" is deterministic).
    failure_log: Mutex<WarningSink>,
}

impl CampaignPipeline {
    /// Creates a pipeline over `study` with default [`AnalysisOptions`].
    pub fn new(study: Arc<Study>, factory: AppFactory, cfg: SimHarnessConfig) -> Self {
        CampaignPipeline {
            study,
            factory,
            cfg,
            analysis: AnalysisOptions::default(),
            failure_log: Mutex::new(WarningSink::new()),
        }
    }

    /// Sets the analysis options (builder-style).
    pub fn analysis(mut self, analysis: AnalysisOptions) -> Self {
        self.analysis = analysis;
        self
    }

    /// The harness configuration the pipeline runs with.
    pub fn config(&self) -> &SimHarnessConfig {
        &self.cfg
    }

    /// Runs `experiments` experiments through the fused pipeline, feeding
    /// each compact result to `sink` in experiment-index order. The worker
    /// count resolves exactly like [`run_study`]'s.
    ///
    /// Campaign misconfigurations — an invalid worker or batch
    /// configuration (see [`SimHarnessConfig::workers`] /
    /// [`SimHarnessConfig::batch`]), an invalid host list, or invalid
    /// analysis options (a degenerate analysis window) — come back as a
    /// typed [`CampaignError`] before any experiment runs.
    pub fn run(
        &self,
        experiments: u32,
        sink: impl FnMut(AnalyzedExperiment),
    ) -> Result<PipelineSummary, CampaignError> {
        self.run_with_workers(experiments, resolve_workers(&self.cfg, experiments)?, sink)
    }

    /// [`CampaignPipeline::run`] with an explicit worker count
    /// (`workers == 1` runs entirely on the calling thread);
    /// `workers == 0` is [`CampaignError::Workers`].
    pub fn run_with_workers(
        &self,
        experiments: u32,
        workers: usize,
        mut sink: impl FnMut(AnalyzedExperiment),
    ) -> Result<PipelineSummary, CampaignError> {
        self.run_tapped_with_workers(experiments, workers, |_| (), |analyzed, ()| sink(analyzed))
    }

    /// [`CampaignPipeline::run`] with a raw-data *tap*: `tap` runs inside
    /// the worker on the raw [`ExperimentData`] (right before it is
    /// dropped) and its output rides along to the sink. This keeps
    /// campaigns that need a raw extract — e.g. notification latencies
    /// from record timestamps — on the bounded-memory path.
    pub fn run_tapped<T: Send>(
        &self,
        experiments: u32,
        tap: impl Fn(&ExperimentData) -> T + Sync,
        sink: impl FnMut(AnalyzedExperiment, T),
    ) -> Result<PipelineSummary, CampaignError> {
        self.run_tapped_with_workers(
            experiments,
            resolve_workers(&self.cfg, experiments)?,
            tap,
            sink,
        )
    }

    /// The fully general pipeline entry point; see
    /// [`CampaignPipeline::run`] and [`CampaignPipeline::run_tapped`].
    ///
    /// Returns a typed [`CampaignError`] on any campaign
    /// misconfiguration; still panics if a *sink* or coordinator-side
    /// closure panics (worker-side panics are contained per experiment).
    pub fn run_tapped_with_workers<T: Send>(
        &self,
        experiments: u32,
        workers: usize,
        tap: impl Fn(&ExperimentData) -> T + Sync,
        mut sink: impl FnMut(AnalyzedExperiment, T),
    ) -> Result<PipelineSummary, CampaignError> {
        let workers = clamp_workers(workers, experiments)?;
        let driver = Driver::new(&self.study, &self.factory, &self.cfg)?;
        if let Err(e) = self.analysis.global.validate() {
            return Err(CampaignError::Analysis(format!(
                "loki: invalid analysis options: {e}"
            )));
        }
        let mut summary = PipelineSummary {
            experiments,
            workers,
            batch: driver.batch(),
            ..Default::default()
        };
        let stats = PoolStats::default();
        // Result shells cycle sink→pool→worker across the whole pipeline
        // (timelines route themselves back on drop wherever they die).
        let shell_pool = ShellPool::default();

        // The back half of the fused flow: analyze (into a recycled result
        // shell) → tap → reclaim the raw data's buffers into the worker's
        // context (simulation backend) → drop. The retention gauge (raised
        // when an experiment begins) brackets the raw data's whole
        // lifetime. Analysis runs contained: a panicking analysis
        // (conceivable on a failed experiment's partial timelines)
        // downgrades that one result to a harness failure instead of
        // killing the campaign.
        let finish = |mut data: ExperimentData, ctx: Option<&ExpCtx>| {
            let analyzed = catch_unwind(AssertUnwindSafe(|| {
                analyze_one_pooled(&self.study, &data, &self.analysis, &shell_pool)
            }))
            .unwrap_or_else(|_| AnalyzedExperiment {
                experiment: data.experiment,
                end: ExperimentEnd::Failed(ExperimentFailure::Harness),
                injections: data.total_injections(),
                global: None,
                verdict: None,
                error: None,
            });
            let tapped = tap(&data);
            if let Some(ctx) = ctx {
                ctx.store.reclaim(std::mem::take(&mut data.timelines));
                ctx.collector.reclaim(std::mem::take(&mut data.pre_sync));
                ctx.collector.reclaim(std::mem::take(&mut data.post_sync));
            }
            drop(data);
            stats.end();
            (analyzed, tapped)
        };
        let commit = |(analyzed, tapped): (AnalyzedExperiment, T)| {
            if analyzed.end == ExperimentEnd::Completed {
                summary.completed += 1;
            }
            if analyzed.accepted() {
                summary.accepted += 1;
            }
            if let Some(failure) = analyzed.end.failure() {
                summary.failed += 1;
                // Commits run on the coordinator in strictly increasing
                // index order, so "first exhibiting experiment" is
                // deterministic. One report per failure kind per run.
                let k = analyzed.experiment;
                self.failure_log
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .warn_once(failure_key(failure), || {
                        format!("experiment {k}: {failure} (first of its kind this run)")
                    });
            }
            summary.injections += analyzed.injections;
            sink(analyzed, tapped);
        };
        run_campaign(&driver, experiments, workers, &stats, finish, commit);

        summary.peak_raw_retained = stats.peak.load(Ordering::SeqCst);
        summary.actor_reuses = stats.actor_reuses.load(Ordering::Relaxed);
        summary.timeline_reuses = stats.timeline_reuses.load(Ordering::Relaxed);
        summary.events = stats.events.load(Ordering::Relaxed);
        summary.retried = stats.retried.load(Ordering::Relaxed) as usize;
        summary.quarantined_worlds = stats.quarantined.load(Ordering::Relaxed) as usize;
        summary.result_shell_reuses = shell_pool.shell_reuses();
        summary.result_shell_allocs = shell_pool.shell_allocs();
        Ok(summary)
    }

    /// Drains the deduplicated failure reports of the most recent run:
    /// one line per distinct [`ExperimentFailure`] kind, stamped with the
    /// first experiment index that exhibited it. Empty for a failure-free
    /// campaign (or when called twice).
    pub fn take_failure_reports(&self) -> Vec<String> {
        self.failure_log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain()
    }

    /// Convenience: runs the pipeline and collects every compact result
    /// (in experiment order). The *raw* data is still dropped per
    /// experiment — this collects analyses, not timeline stores.
    pub fn collect(
        &self,
        experiments: u32,
    ) -> Result<(Vec<AnalyzedExperiment>, PipelineSummary), CampaignError> {
        let mut out = Vec::with_capacity(experiments as usize);
        let summary = self.run(experiments, |analyzed| out.push(analyzed))?;
        Ok((out, summary))
    }
}

/// Stable dedup key for one failure kind: the pipeline's failure log
/// records one line per kind per run.
fn failure_key(failure: ExperimentFailure) -> u64 {
    match failure {
        ExperimentFailure::AppPanic => 1,
        ExperimentFailure::Harness => 2,
        ExperimentFailure::BudgetVirtualTime => 3,
        ExperimentFailure::BudgetEvents => 4,
        ExperimentFailure::BudgetWallClock => 5,
        _ => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_prefers_explicit_config() {
        assert_eq!(worker_count(Some(3), Some("7"), 100), Ok(3));
        // Clamped to the experiment count.
        assert_eq!(worker_count(Some(64), None, 4), Ok(4));
        assert_eq!(worker_count(Some(2), None, 0), Ok(1));
    }

    #[test]
    fn worker_count_rejects_zero_config() {
        let err = worker_count(Some(0), None, 8).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn worker_count_parses_env() {
        assert_eq!(worker_count(None, Some("5"), 100), Ok(5));
        assert_eq!(worker_count(None, Some(" 2 "), 100), Ok(2));
    }

    #[test]
    fn worker_count_rejects_bad_env() {
        for bad in ["0", "-1", "many", "", "3.5"] {
            let err = worker_count(None, Some(bad), 8).unwrap_err();
            assert!(err.contains("LOKI_WORKERS"), "{bad:?}: {err}");
            assert!(err.contains(bad), "{bad:?}: {err}");
        }
    }

    #[test]
    fn worker_count_defaults_to_available_parallelism() {
        let n = worker_count(None, None, 1_000_000).unwrap();
        assert!(n >= 1);
    }

    #[test]
    fn batch_size_prefers_explicit_config() {
        assert_eq!(batch_size(Some(4), Some("7")), Ok(4));
        assert_eq!(batch_size(Some(1), None), Ok(1));
    }

    #[test]
    fn batch_size_rejects_zero_config() {
        let err = batch_size(Some(0), None).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    fn batch_size_parses_env_and_defaults_to_one() {
        assert_eq!(batch_size(None, Some("8")), Ok(8));
        assert_eq!(batch_size(None, Some(" 2 ")), Ok(2));
        assert_eq!(batch_size(None, None), Ok(1));
    }

    #[test]
    fn batch_size_rejects_bad_env() {
        for bad in ["0", "-1", "many", "", "3.5"] {
            let err = batch_size(None, Some(bad)).unwrap_err();
            assert!(err.contains("LOKI_BATCH"), "{bad:?}: {err}");
            assert!(err.contains(bad), "{bad:?}: {err}");
        }
    }

    #[test]
    fn thread_config_derives_from_sim_config() {
        let mut cfg = SimHarnessConfig::three_hosts(99);
        cfg.timeout_ns = 5_000_000_000;
        cfg.restart = Some(RestartPolicy {
            probability: 0.5,
            ..Default::default()
        });
        let t = cfg.thread_config();
        assert_eq!(t.hosts.len(), 3);
        assert_eq!(t.hosts[0].0, "host1");
        assert_eq!(t.timeout, Duration::from_secs(5));
        assert_eq!(t.restart_probability, Some(0.5));
        assert_eq!(t.seed, 99);
    }
}
