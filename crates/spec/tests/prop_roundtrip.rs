//! Property tests: every writer round-trips through its parser.

use loki_core::fault::{FaultExpr, Trigger};
use loki_core::ids::SymbolTable;
use loki_core::recorder::Recorder;
use loki_core::spec::{NodePlacement, StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use loki_spec::{expr, files, sm_spec, timeline_file, timestamps_file};
use proptest::prelude::*;

/// Identifier-ish names that survive whitespace-based parsing.
fn name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,11}".prop_map(|s| s)
}

/// Arbitrary message strings: any Unicode scalar, weighted towards the
/// characters a line- and whitespace-based format can mangle (separators,
/// line breaks, the escape character and the letters it escapes).
fn message() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        (0usize..12).prop_map(|i| {
            [
                ' ', '\\', '\n', '\r', '\t', 'n', 'r', '0', '1', '3', 'é', '\u{85}',
            ][i]
        }),
        (0u32..0x80).prop_map(|c| char::from_u32(c).unwrap()),
        (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ];
    prop::collection::vec(ch, 0..40).prop_map(|chars| chars.into_iter().collect())
}

/// One budget-file line: free text, or a known key followed by free text
/// or a number (so values reach the per-key parsing, overflow included).
fn budget_line() -> impl Strategy<Value = String> {
    fn key() -> impl Strategy<Value = &'static str> {
        (0usize..4).prop_map(|i| {
            [
                "max_virtual_time_ns",
                "max_events",
                "max_retries",
                "retry_backoff_ms",
            ][i]
        })
    }
    prop_oneof![
        message(),
        (key(), message()).prop_map(|(k, v)| format!("{k} {v}")),
        (key(), any::<u64>()).prop_map(|(k, v)| format!("{k} {v}")),
    ]
}

fn fault_expr(depth: u32) -> BoxedStrategy<FaultExpr> {
    let atom = (name(), name()).prop_map(|(sm, st)| FaultExpr::atom(&sm, &st));
    if depth == 0 {
        atom.boxed()
    } else {
        let inner = fault_expr(depth - 1);
        prop_oneof![
            atom,
            (fault_expr(depth - 1), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (fault_expr(depth - 1), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_expr_roundtrip(e in fault_expr(3)) {
        let text = e.to_string();
        let parsed = expr::parse_expr(&text).unwrap();
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn sm_spec_roundtrip(
        states in prop::collection::vec(name(), 1..6),
        events in prop::collection::vec(name(), 0..6),
    ) {
        // Build a spec whose blocks reference only declared names.
        let state_refs: Vec<&str> = states.iter().map(String::as_str).collect();
        let event_refs: Vec<&str> = events.iter().map(String::as_str).collect();
        let mut builder = StateMachineSpec::builder("m")
            .states(&state_refs)
            .events(&event_refs);
        for (i, s) in state_refs.iter().enumerate() {
            let transitions: Vec<(&str, &str)> = event_refs
                .iter()
                .map(|e| (*e, state_refs[i % state_refs.len()]))
                .collect();
            builder = builder.state(s, &[], &transitions);
        }
        let spec = builder.build();
        let text = sm_spec::write(&spec);
        let parsed = sm_spec::parse("m", &text).unwrap();
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn node_file_roundtrip(
        entries in prop::collection::vec((name(), prop::option::of(name())), 0..8)
    ) {
        let placements: Vec<NodePlacement> = entries
            .into_iter()
            .map(|(sm, host)| NodePlacement { sm, host })
            .collect();
        let text = files::write_node_file(&placements);
        prop_assert_eq!(files::parse_node_file(&text).unwrap(), placements);
    }

    #[test]
    fn timeline_roundtrip(
        times in prop::collection::vec(0u64..u64::MAX / 2, 1..20),
        inject_at in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("m")
                    .states(&["A", "B"])
                    .events(&["GO"])
                    .state("A", &[], &[("GO", "B")])
                    .state("B", &[], &[("GO", "A")])
                    .build(),
            )
            .fault("m", "f", FaultExpr::atom("m", "B"), Trigger::Always);
        let study = Study::compile(&def).unwrap();
        let m = study.sm_id("m").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let b = study.states.lookup("B").unwrap();
        let f = study.fault_names.lookup("f").unwrap();

        let mut symbols = SymbolTable::for_hosts(["host1"]);
        let mut rec = Recorder::new(m, symbols.lookup_host("host1").unwrap());
        for (i, t) in times.iter().enumerate() {
            if *inject_at.get(i % inject_at.len()).unwrap_or(&false) {
                rec.record_injection(LocalNanos(*t), f);
            } else {
                rec.record_state_change(LocalNanos(*t), go, b);
            }
        }
        let timeline = rec.finish();
        let text = timeline_file::write(&study, &symbols, &timeline);
        let parsed = timeline_file::parse(&study, &mut symbols, &text).unwrap();
        prop_assert_eq!(parsed, timeline);
    }

    /// User messages of any content survive write → parse unchanged, one
    /// record each, whatever whitespace, line breaks or backslashes they
    /// hold.
    #[test]
    fn timeline_user_messages_roundtrip(
        messages in prop::collection::vec(message(), 1..6),
    ) {
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("m")
                .states(&["A"])
                .events(&["GO"])
                .state("A", &[], &[("GO", "A")])
                .build(),
        );
        let study = Study::compile(&def).unwrap();
        let m = study.sm_id("m").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let a = study.states.lookup("A").unwrap();
        let mut symbols = SymbolTable::for_hosts(["host1"]);
        let mut rec = Recorder::new(m, symbols.lookup_host("host1").unwrap());
        for (i, message) in messages.iter().enumerate() {
            rec.record_user_message(LocalNanos(2 * i as u64), message.as_str());
            rec.record_state_change(LocalNanos(2 * i as u64 + 1), go, a);
        }
        let timeline = rec.finish();
        let text = timeline_file::write(&study, &symbols, &timeline);
        let parsed = timeline_file::parse(&study, &mut symbols, &text).unwrap();
        prop_assert_eq!(parsed, timeline);
    }

    #[test]
    fn budget_file_roundtrip(
        max_virtual_time_ns in prop::option::of(any::<u64>()),
        max_events in prop::option::of(any::<u64>()),
        max_retries in prop::option::of(any::<u32>()),
        retry_backoff_ms in prop::option::of(any::<u64>()),
        lines in prop::collection::vec(budget_line(), 0..6),
    ) {
        let spec = files::BudgetSpec {
            max_virtual_time_ns,
            max_events,
            max_retries,
            retry_backoff_ms,
        };
        let text = files::write_budget_file(&spec);
        prop_assert_eq!(files::parse_budget_file(&text).unwrap(), spec);

        // Arbitrary text parses or returns a `ParseError`, never panics;
        // whatever parses writes back to the same spec.
        if let Ok(parsed) = files::parse_budget_file(&lines.join("\n")) {
            let rewritten = files::write_budget_file(&parsed);
            prop_assert_eq!(files::parse_budget_file(&rewritten).unwrap(), parsed);
        }
    }

    #[test]
    fn timestamps_roundtrip(
        sends in prop::collection::vec((any::<bool>(), 0u64..1u64<<62, 0u64..1u64<<62), 1..30)
    ) {
        use loki_core::campaign::{HostSync, SyncSample};
        let mut symbols = SymbolTable::for_hosts(["h1", "h2"]);
        let h1 = symbols.lookup_host("h1").unwrap();
        let syncs = vec![HostSync {
            host: symbols.lookup_host("h2").unwrap(),
            samples: sends
                .into_iter()
                .map(|(d, s, r)| SyncSample {
                    from_reference: d,
                    send: LocalNanos(s),
                    recv: LocalNanos(r),
                })
                .collect(),
        }];
        let text = timestamps_file::write(&symbols, h1, &syncs);
        let (reference, parsed) = timestamps_file::parse(&mut symbols, &text).unwrap();
        prop_assert_eq!(reference, h1);
        prop_assert_eq!(parsed, syncs);
    }
}
