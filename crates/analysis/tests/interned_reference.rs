//! Reference test for the host-interning refactor: the interned
//! `make_global` must produce — record for record, bound for bound —
//! exactly what the PR 3 string-based implementation produced on the same
//! recorded fixture.
//!
//! The reference below *is* that implementation, ported verbatim to operate
//! on resolved host-name strings: a `HashMap<String, AlphaBetaBounds>`
//! keyed by host name for the `alphabeta` phase, and a per-record
//! stint-scan (`host_of_record`) for the projection. Running both over a
//! multi-host fixture with restarts pins the refactor to the old
//! semantics.

use loki_analysis::global::{make_global, GlobalEventKind, GlobalOptions};
use loki_analysis::AnalysisError;
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::ids::{StateId, SymbolTable};
use loki_core::recorder::{RecordKind, Recorder};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::{LocalNanos, TimeBounds};
use std::collections::HashMap;
use std::sync::Arc;

fn study() -> Study {
    let def = StudyDef::new("ref")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["INIT", "WORK"])
                .events(&["GO", "DONE"])
                .state("INIT", &[], &[("GO", "WORK")])
                .state("WORK", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("b")
                .states(&["INIT", "WORK"])
                .events(&["GO", "DONE"])
                .state("INIT", &[], &[("GO", "WORK")])
                .state("WORK", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault(
            "b",
            "f",
            loki_core::fault::FaultExpr::atom("a", "WORK"),
            loki_core::fault::Trigger::Once,
        );
    Study::compile(&def).unwrap()
}

fn sync_for(host: loki_core::ids::HostId, skew_ns: u64) -> HostSync {
    let mut samples = Vec::new();
    for k in 0..12u64 {
        let t = k * 1_000_000 + skew_ns;
        samples.push(SyncSample {
            from_reference: true,
            send: LocalNanos(t),
            recv: LocalNanos(t + 40_000),
        });
        samples.push(SyncSample {
            from_reference: false,
            send: LocalNanos(t + 400_000),
            recv: LocalNanos(t + 440_000),
        });
    }
    HostSync { host, samples }
}

/// A fixture exercising every record kind: two machines over three hosts,
/// a mid-experiment restart onto a different host, an injection, and a
/// user message.
fn fixture(study: &Study) -> ExperimentData {
    let symbols = Arc::new(SymbolTable::for_hosts(["h1", "h2", "h3"]));
    let h1 = symbols.lookup_host("h1").unwrap();
    let h2 = symbols.lookup_host("h2").unwrap();
    let h3 = symbols.lookup_host("h3").unwrap();
    let a = study.sm_id("a").unwrap();
    let b = study.sm_id("b").unwrap();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    let f = study.fault_names.lookup("f").unwrap();

    // `a` starts on h2, crashes, restarts on h3.
    let mut rec_a = Recorder::new(a, h2);
    rec_a.record_state_change(LocalNanos::from_millis(5), go, init);
    rec_a.record_state_change(LocalNanos::from_millis(12), go, work);
    rec_a.record_state_change(
        LocalNanos::from_millis(20),
        study.reserved.crash_event,
        study.reserved.crash,
    );
    let mut rec_a = Recorder::resume(rec_a.finish(), LocalNanos::from_millis(22), h3);
    rec_a.record_state_change(LocalNanos::from_millis(25), go, init);
    rec_a.record_user_message(LocalNanos::from_millis(26), "back up");
    rec_a.record_state_change(LocalNanos::from_millis(30), done, study.reserved.exit);

    // `b` watches from h2 and injects.
    let mut rec_b = Recorder::new(b, h2);
    rec_b.record_state_change(LocalNanos::from_millis(5), go, init);
    rec_b.record_injection(LocalNanos::from_millis(15), f);
    rec_b.record_state_change(LocalNanos::from_millis(30), done, study.reserved.exit);

    ExperimentData {
        study: "ref".into(),
        experiment: 0,
        timelines: vec![rec_a.finish(), rec_b.finish()],
        hosts: vec![h1, h2, h3],
        reference_host: h1,
        symbols,
        pre_sync: vec![sync_for(h2, 0), sync_for(h3, 137)],
        post_sync: vec![sync_for(h2, 50_000_000), sync_for(h3, 50_000_137)],
        end: Default::default(),
        warnings: vec![],
    }
}

/// One event of the string-based reference output.
#[derive(Debug, PartialEq)]
enum RefKind {
    StateChange {
        event: String,
        from_state: String,
        new_state: String,
    },
    Injection {
        fault: String,
    },
    Restart {
        host: String,
    },
    UserMessage(String),
}

#[derive(Debug, PartialEq)]
struct RefEvent {
    sm: String,
    kind: RefKind,
    bounds: TimeBounds,
    record_index: usize,
}

/// `(machine, state, enter, exit)` of one reference occupancy interval.
type RefInterval = (String, String, TimeBounds, Option<TimeBounds>);

/// The complete string-based reference output.
type RefOutput = (
    Vec<RefEvent>,
    Vec<RefInterval>,
    HashMap<String, AlphaBetaBounds>,
);

/// The PR 3 `make_global`, string-based: host names resolved up front,
/// `alpha_beta` a name-keyed `HashMap`, hosts looked up by hashing the
/// name once per record.
fn make_global_strings(study: &Study, data: &ExperimentData) -> Result<RefOutput, AnalysisError> {
    let opts = GlobalOptions::default();
    let mut alpha_beta: HashMap<String, AlphaBetaBounds> = HashMap::new();
    alpha_beta.insert(
        data.host_name(data.reference_host).to_owned(),
        AlphaBetaBounds::identity(),
    );
    for &host in &data.hosts {
        if host == data.reference_host {
            continue;
        }
        let samples = data.sync_samples_for(host);
        let bounds = estimate_alpha_beta(&samples, &opts.sync).unwrap();
        alpha_beta.insert(data.host_name(host).to_owned(), bounds);
    }

    let mut events = Vec::new();
    let mut intervals = Vec::new();
    for timeline in &data.timelines {
        let sm_name = study.sms.name(timeline.sm).to_owned();
        let mut current_state = study.reserved.begin;
        let mut open: Option<(StateId, TimeBounds)> = None;
        for (idx, record) in timeline.records.iter().enumerate() {
            // The PR 3 shape: a stint scan per record, then a string-keyed
            // map lookup.
            let host = data.host_name(timeline.host_of_record(idx));
            let ab = &alpha_beta[host];
            let bounds = ab.project(record.time);
            let kind = match &record.kind {
                RecordKind::StateChange { event, new_state } => {
                    let from_state = current_state;
                    if let Some((state, enter)) = open.take() {
                        intervals.push((
                            sm_name.clone(),
                            study.states.name(state).to_owned(),
                            enter,
                            Some(bounds),
                        ));
                    }
                    open = Some((*new_state, bounds));
                    current_state = *new_state;
                    RefKind::StateChange {
                        event: study.events.name(*event).to_owned(),
                        from_state: study.states.name(from_state).to_owned(),
                        new_state: study.states.name(*new_state).to_owned(),
                    }
                }
                RecordKind::FaultInjection { fault } => RefKind::Injection {
                    fault: study.fault_names.name(*fault).to_owned(),
                },
                RecordKind::Restart { host } => {
                    if let Some((state, enter)) = open.take() {
                        intervals.push((
                            sm_name.clone(),
                            study.states.name(state).to_owned(),
                            enter,
                            Some(bounds),
                        ));
                    }
                    open = Some((study.reserved.begin, bounds));
                    current_state = study.reserved.begin;
                    RefKind::Restart {
                        host: data.host_name(*host).to_owned(),
                    }
                }
                RecordKind::UserMessage(m) => RefKind::UserMessage(m.to_string()),
            };
            events.push(RefEvent {
                sm: sm_name.clone(),
                kind,
                bounds,
                record_index: idx,
            });
        }
        if let Some((state, enter)) = open.take() {
            intervals.push((
                sm_name.clone(),
                study.states.name(state).to_owned(),
                enter,
                None,
            ));
        }
    }
    events.sort_by(|a, b| a.bounds.mid().total_cmp(&b.bounds.mid()));
    Ok((events, intervals, alpha_beta))
}

#[test]
fn interned_make_global_matches_the_string_based_reference() {
    let study = study();
    let data = fixture(&study);

    let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
    let (ref_events, ref_intervals, ref_alpha_beta) = make_global_strings(&study, &data).unwrap();

    // Events: same order, same bounds, same resolved identities.
    assert_eq!(gt.events.len(), ref_events.len());
    for (got, want) in gt.events.iter().zip(&ref_events) {
        assert_eq!(study.sms.name(got.sm), want.sm);
        assert_eq!(got.bounds, want.bounds);
        assert_eq!(got.record_index, want.record_index);
        let got_kind = match &got.kind {
            GlobalEventKind::StateChange {
                event,
                from_state,
                new_state,
            } => RefKind::StateChange {
                event: study.events.name(*event).to_owned(),
                from_state: study.states.name(*from_state).to_owned(),
                new_state: study.states.name(*new_state).to_owned(),
            },
            GlobalEventKind::Injection { fault } => RefKind::Injection {
                fault: study.fault_names.name(*fault).to_owned(),
            },
            GlobalEventKind::Restart { host } => RefKind::Restart {
                host: gt.host_name(*host).to_owned(),
            },
            GlobalEventKind::UserMessage(m) => RefKind::UserMessage(m.to_string()),
        };
        assert_eq!(got_kind, want.kind);
    }

    // Intervals: same occupancy history per machine.
    assert_eq!(gt.intervals.len(), ref_intervals.len());
    for (got, (sm, state, enter, exit)) in gt.intervals.iter().zip(&ref_intervals) {
        assert_eq!(study.sms.name(got.sm), sm);
        assert_eq!(study.states.name(got.state), state);
        assert_eq!(&got.enter, enter);
        assert_eq!(&got.exit, exit);
    }

    // Calibration: the dense vector holds exactly the map's bounds.
    assert_eq!(ref_alpha_beta.len(), 3);
    for (name, want) in &ref_alpha_beta {
        let host = data.symbols.lookup_host(name).unwrap();
        assert_eq!(&gt.alpha_beta[host.index()], want, "host {name}");
    }
    assert_eq!(gt.host_name(gt.reference_host), "h1");

    // The fixture exercised what it claims: a restart stint and an
    // injection both made it onto the global timeline.
    assert!(gt
        .events
        .iter()
        .any(|e| matches!(e.kind, GlobalEventKind::Restart { .. })));
    assert_eq!(gt.injections().count(), 1);
}
