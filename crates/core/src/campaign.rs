//! Experiment-level data containers and clock-sync sample records.
//!
//! Each *experiment* is one run of the distributed application plus the
//! fault injections of its study (§2.2.3). The runtime produces one
//! [`ExperimentData`] per experiment: the local timelines of every state
//! machine plus the synchronization samples gathered in the mini-phases
//! before and after the run (§2.3). The analysis phase consumes these.

use crate::ids::{HostId, SmId, SymbolTable};
use crate::recorder::LocalTimeline;
use crate::time::LocalNanos;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One synchronization message exchanged between a host and the reference
/// host during a sync mini-phase.
///
/// Both timestamps are *local clock readings*: `send` on the sending
/// machine's clock and `recv` on the receiving machine's clock. The
/// off-line synchronization (in `loki-clock`) turns a set of these into
/// bounds on the clock offset α and drift β.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncSample {
    /// `true` when the reference host sent and the calibrated host
    /// received; `false` for the opposite direction.
    pub from_reference: bool,
    /// Sender's local clock at transmission.
    pub send: LocalNanos,
    /// Receiver's local clock at reception.
    pub recv: LocalNanos,
}

/// All sync samples between one host and the reference host.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSync {
    /// The calibrated (non-reference) host.
    pub host: HostId,
    /// The samples, in exchange order.
    pub samples: Vec<SyncSample>,
}

/// Why an experiment *failed* — a containment outcome of the injector
/// itself, distinct from the study outcomes ([`ExperimentEnd::Completed`]
/// / [`ExperimentEnd::TimedOut`] / [`ExperimentEnd::Aborted`]) that the
/// analysis phase reasons about.
///
/// A failed experiment never produces a usable global timeline; the
/// campaign pipeline records the failure, quarantines any pooled state the
/// experiment touched, and moves on. The variants are deliberately
/// *shapes*, not messages: human-readable detail (a panic payload, the
/// exhausted budget's value) travels in [`ExperimentData::warnings`], so
/// two experiments failing the same way compare equal and campaign-level
/// reporting can deduplicate them.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ExperimentFailure {
    /// The application panicked inside a callback. The node was crashed in
    /// place and the experiment torn down through the normal daemon
    /// machinery.
    AppPanic,
    /// The harness itself misbehaved (a panic while driving the world, or
    /// an internal invariant violation). The world is unconditionally
    /// quarantined.
    Harness,
    /// The per-experiment virtual-time budget
    /// (`SimHarnessConfig::max_virtual_time`) was exhausted.
    BudgetVirtualTime,
    /// The per-experiment event-count budget
    /// (`SimHarnessConfig::max_events`, or the engine's default ceiling
    /// when it is unset) was exhausted.
    BudgetEvents,
    /// The wall-clock watchdog expired (thread backend only): one or more
    /// node threads never finished and were detached.
    BudgetWallClock,
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExperimentFailure::AppPanic => "application panic",
            ExperimentFailure::Harness => "harness error",
            ExperimentFailure::BudgetVirtualTime => "virtual-time budget exceeded",
            ExperimentFailure::BudgetEvents => "event-count budget exceeded",
            ExperimentFailure::BudgetWallClock => "wall-clock watchdog expired",
        })
    }
}

/// Why an experiment ended.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentEnd {
    /// Every node exited or crashed: normal completion (§3.6.1).
    #[default]
    Completed,
    /// The central daemon's timeout elapsed; the experiment was aborted and
    /// all state machines were killed (§3.5.1).
    TimedOut,
    /// A runtime abnormality (e.g. a local daemon crash) forced an abort.
    Aborted,
    /// The injector contained a per-experiment failure (panic, budget
    /// blow-up, harness error) instead of letting it take down the
    /// campaign. Carries the failure shape; detail rides in
    /// [`ExperimentData::warnings`].
    Failed(ExperimentFailure),
}

impl ExperimentEnd {
    /// The contained failure, when this end is [`ExperimentEnd::Failed`].
    pub fn failure(&self) -> Option<ExperimentFailure> {
        match self {
            ExperimentEnd::Failed(f) => Some(*f),
            _ => None,
        }
    }
}

/// The raw output of one experiment run.
///
/// Hosts are interned [`HostId`]s; the study-wide [`SymbolTable`] that
/// resolves them rides along behind an `Arc` (one shared table per study
/// run, not one per experiment), so cloning an `ExperimentData` clones no
/// host strings and the analysis phase indexes hosts instead of hashing
/// names.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentData {
    /// The study this experiment instantiates.
    pub study: String,
    /// Experiment index within the study.
    pub experiment: u32,
    /// One local timeline per state machine that ever ran.
    pub timelines: Vec<LocalTimeline>,
    /// All hosts that participated.
    pub hosts: Vec<HostId>,
    /// The reference host for the global timeline (the fastest machine,
    /// §5.7).
    pub reference_host: HostId,
    /// The study-run symbol table resolving every [`HostId`] above.
    pub symbols: Arc<SymbolTable>,
    /// Sync samples from the mini-phase before the run.
    pub pre_sync: Vec<HostSync>,
    /// Sync samples from the mini-phase after the run.
    pub post_sync: Vec<HostSync>,
    /// How the experiment ended.
    pub end: ExperimentEnd,
    /// Runtime warnings (e.g. notifications dropped for dead machines).
    pub warnings: Vec<String>,
}

impl ExperimentData {
    /// All sync samples (pre- and post-phase) for `host`, in order.
    pub fn sync_samples_for(&self, host: HostId) -> Vec<SyncSample> {
        let mut out = Vec::new();
        self.sync_samples_into(host, &mut out);
        out
    }

    /// Appends `host`'s sync samples (pre- then post-phase, in order) into
    /// `out` after clearing it. Callers iterating many hosts reuse one
    /// buffer instead of allocating per host.
    pub fn sync_samples_into(&self, host: HostId, out: &mut Vec<SyncSample>) {
        out.clear();
        for phase in [&self.pre_sync, &self.post_sync] {
            for hs in phase.iter().filter(|hs| hs.host == host) {
                out.extend_from_slice(&hs.samples);
            }
        }
    }

    /// The timeline of machine `sm`, if present.
    pub fn timeline_for(&self, sm: SmId) -> Option<&LocalTimeline> {
        self.timelines.iter().find(|t| t.sm == sm)
    }

    /// The name of `host`, resolved through the study-run symbol table.
    pub fn host_name(&self, host: HostId) -> &str {
        self.symbols.host_name(host)
    }

    /// Total number of fault injections across all timelines.
    pub fn total_injections(&self) -> usize {
        self.timelines.iter().map(|t| t.injection_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Id;
    use crate::recorder::Recorder;

    fn data() -> ExperimentData {
        let symbols = Arc::new(SymbolTable::for_hosts(["h1", "h2", "h3"]));
        let h1 = symbols.lookup_host("h1").unwrap();
        let h2 = symbols.lookup_host("h2").unwrap();
        let mut rec = Recorder::new(Id::from_raw(0), h1);
        rec.record_injection(LocalNanos(5), Id::from_raw(0));
        ExperimentData {
            study: "s1".into(),
            experiment: 0,
            timelines: vec![rec.finish()],
            hosts: vec![h1, h2],
            reference_host: h1,
            symbols,
            pre_sync: vec![HostSync {
                host: h2,
                samples: vec![SyncSample {
                    from_reference: true,
                    send: LocalNanos(1),
                    recv: LocalNanos(2),
                }],
            }],
            post_sync: vec![HostSync {
                host: h2,
                samples: vec![SyncSample {
                    from_reference: false,
                    send: LocalNanos(9),
                    recv: LocalNanos(10),
                }],
            }],
            end: ExperimentEnd::Completed,
            warnings: vec![],
        }
    }

    #[test]
    fn sync_samples_concatenate_phases() {
        let d = data();
        let h2 = d.symbols.lookup_host("h2").unwrap();
        let h3 = d.symbols.lookup_host("h3").unwrap();
        let samples = d.sync_samples_for(h2);
        assert_eq!(samples.len(), 2);
        assert!(samples[0].from_reference);
        assert!(!samples[1].from_reference);
        assert!(d.sync_samples_for(h3).is_empty());
    }

    #[test]
    fn lookup_and_counting() {
        let d = data();
        assert!(d.timeline_for(Id::from_raw(0)).is_some());
        assert!(d.timeline_for(Id::from_raw(9)).is_none());
        assert_eq!(d.host_name(d.reference_host), "h1");
        assert_eq!(d.total_injections(), 1);
        assert_eq!(d.end, ExperimentEnd::Completed);
    }
}
