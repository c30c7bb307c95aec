//! Property tests for the discrete-event engine and its event core.

use loki_sim::batch::WorldSet;
use loki_sim::config::{HostConfig, LatencyModel, NetworkConfig};
use loki_sim::engine::{Actor, ActorId, Ctx, Simulation, WorldConfig};
use loki_sim::queue::{EventQueue, TimerKey, TimerSlab};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Sends a burst of numbered messages to a sink.
struct Burst {
    target: ActorId,
    count: u32,
}
impl Actor<u32> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for i in 0..self.count {
            ctx.send(self.target, i);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: ActorId, _: u32) {}
}

struct Sink {
    log: Rc<RefCell<Vec<(u64, u32)>>>,
}
impl Actor<u32> for Sink {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: ActorId, msg: u32) {
        self.log.borrow_mut().push((ctx.physical_now(), msg));
    }
}

/// One operation against both the index-heap queue and the reference
/// model (the engine's previous structures: a full-payload `BinaryHeap`
/// plus a cancelled-timer tombstone set).
#[derive(Clone, Debug)]
enum QOp {
    /// Schedule a message `dt % horizon` ns ahead (a small horizon forces
    /// time ties, a large one keeps far-future keys queued).
    Push(u16),
    /// Arm a timer `dt % horizon` ns ahead.
    Timer(u16),
    /// Cancel the n-th currently live timer (mod the live count).
    Cancel(u8),
    /// Pop the next live entry.
    Pop,
}

fn qop_strategy() -> impl Strategy<Value = QOp> {
    prop_oneof![
        any::<u16>().prop_map(QOp::Push),
        any::<u16>().prop_map(QOp::Timer),
        any::<u8>().prop_map(QOp::Cancel),
        Just(QOp::Pop),
    ]
}

/// Pushes and timer arms only: builds up a deep queue.
fn fill_strategy() -> impl Strategy<Value = QOp> {
    prop_oneof![
        any::<u16>().prop_map(QOp::Push),
        any::<u16>().prop_map(QOp::Timer),
    ]
}

/// A queued entry on the new side: either a plain message or a timer
/// carrying its slab key (the engine stores `TimerId`s the same way).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Item {
    Msg(u32),
    Timer(u32, TimerKey),
}

/// What one run of [`check_against_reference`] saw of the queue's shape.
#[derive(Default)]
struct QueueShape {
    /// Most entries pending at once.
    peak: usize,
    /// Whether the heap held ≥ 500 keys while its last sibling group was
    /// partial (`len % 4 != 1`).
    deep_partial_group: bool,
}

/// Applies `ops`, then drains, against both the index-heap queue plus
/// timer slab and the reference model, and checks that they pop the
/// identical sequence. Op `k` happens at time `k + 1`; scheduled times lie
/// `dt % horizon` ahead.
fn check_against_reference(ops: &[QOp], horizon: u64) -> Result<QueueShape, TestCaseError> {
    // New core.
    let mut queue: EventQueue<Item> = EventQueue::new();
    let mut timers = TimerSlab::new();
    // Reference model (the pre-index-heap structures).
    let mut ref_heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut ref_seq = 0u64;
    let mut ref_cancelled: HashSet<u32> = HashSet::new();

    // Shared bookkeeping so both sides cancel the *same* timer.
    let mut live: Vec<(u32, TimerKey)> = Vec::new();
    let mut label = 0u32;
    let mut now = 0u64;
    let mut popped_new: Vec<Option<(u64, u32)>> = Vec::new();
    let mut popped_ref: Vec<Option<(u64, u32)>> = Vec::new();
    let mut shape = QueueShape::default();
    let mut observe = |len: usize| {
        shape.peak = shape.peak.max(len);
        shape.deep_partial_group |= len >= 500 && len % 4 != 1;
    };

    let pop_new = |queue: &mut EventQueue<Item>,
                   timers: &mut TimerSlab,
                   live: &mut Vec<(u32, TimerKey)>|
     -> Option<(u64, u32)> {
        loop {
            match queue.pop() {
                None => return None,
                Some((t, Item::Msg(l))) => return Some((t, l)),
                Some((t, Item::Timer(l, key))) => {
                    if timers.fire(key) {
                        live.retain(|&(ll, _)| ll != l);
                        return Some((t, l));
                    }
                    // Cancelled while queued: skip, like the engine.
                }
            }
        }
    };
    let pop_ref = |ref_heap: &mut BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
                   ref_cancelled: &mut HashSet<u32>|
     -> Option<(u64, u32)> {
        loop {
            match ref_heap.pop() {
                None => return None,
                Some(std::cmp::Reverse((t, _, l))) => {
                    if ref_cancelled.remove(&l) {
                        continue;
                    }
                    return Some((t, l));
                }
            }
        }
    };

    for op in ops {
        now += 1;
        match *op {
            QOp::Push(dt) => {
                let t = now + u64::from(dt) % horizon;
                queue.push(t, Item::Msg(label));
                ref_heap.push(std::cmp::Reverse((t, ref_seq, label)));
                ref_seq += 1;
                label += 1;
            }
            QOp::Timer(dt) => {
                let t = now + u64::from(dt) % horizon;
                let key = timers.alloc();
                queue.push(t, Item::Timer(label, key));
                ref_heap.push(std::cmp::Reverse((t, ref_seq, label)));
                ref_seq += 1;
                live.push((label, key));
                label += 1;
            }
            QOp::Cancel(i) => {
                if !live.is_empty() {
                    let (l, key) = live.remove(i as usize % live.len());
                    prop_assert!(timers.cancel(key));
                    ref_cancelled.insert(l);
                }
            }
            QOp::Pop => {
                popped_new.push(pop_new(&mut queue, &mut timers, &mut live));
                popped_ref.push(pop_ref(&mut ref_heap, &mut ref_cancelled));
            }
        }
        observe(queue.len());
    }
    // Drain both completely: the full pop sequence must match.
    loop {
        let a = pop_new(&mut queue, &mut timers, &mut live);
        let b = pop_ref(&mut ref_heap, &mut ref_cancelled);
        observe(queue.len());
        let done = a.is_none() && b.is_none();
        popped_new.push(a);
        popped_ref.push(b);
        if done {
            break;
        }
    }
    prop_assert_eq!(popped_new, popped_ref);
    // Slot recycling: the slab never exceeds the number of timers that
    // were ever live at once (bounded by total arms, unaffected by
    // cancel volume).
    prop_assert!(timers.slots() <= label as usize);
    Ok(shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index-heap queue plus the generation-stamped timer slab pop in
    /// exactly the order of the engine's previous core — a full-payload
    /// `BinaryHeap` ordered by `(time, seq)` with a `HashSet` of cancelled
    /// timer ids — under arbitrary interleavings of push, timer arm,
    /// cancel, and pop, including time ties and cancels of queued timers.
    #[test]
    fn event_core_matches_reference_heap_model(
        ops in prop::collection::vec(qop_strategy(), 1..120),
    ) {
        check_against_reference(&ops, 4)?;
    }

    /// The same equivalence on deep queues: a fill phase of 500–700
    /// far-future pushes, then 1,000–1,400 mixed operations with horizons
    /// up to 65,536 ns, so the 4-ary heap reaches ≥ 500 keys (four levels
    /// and more) and every sift path — full and partial last sibling
    /// groups, long walks to a leaf — is exercised, not just the shallow
    /// heaps of the tie-heavy case above.
    #[test]
    fn event_core_matches_reference_heap_model_deep(
        fill in prop::collection::vec(fill_strategy(), 500..700),
        mixed in prop::collection::vec(qop_strategy(), 1000..1400),
    ) {
        let ops: Vec<QOp> = fill.into_iter().chain(mixed).collect();
        let shape = check_against_reference(&ops, 1 << 16)?;
        prop_assert!(shape.peak >= 500, "peak {} pending keys", shape.peak);
        prop_assert!(shape.deep_partial_group);
    }

    /// FIFO per sender-receiver pair: messages sent in order arrive in
    /// order, whatever the sampled delays.
    #[test]
    fn per_pair_delivery_is_fifo(
        seed in any::<u64>(),
        count in 1u32..40,
        timeslice in 0u64..20_000_000,
        jitter in 0u64..1_000_000,
    ) {
        let mut sim: Simulation<u32> = Simulation::new(seed);
        sim.set_network(NetworkConfig {
            ipc: LatencyModel { base_ns: 10_000, jitter_ns: jitter },
            tcp: LatencyModel { base_ns: 100_000, jitter_ns: jitter },
        });
        let h1 = sim.add_host(HostConfig::new("h1").timeslice_ns(timeslice));
        let h2 = sim.add_host(HostConfig::new("h2").timeslice_ns(timeslice));
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.spawn(h2, Box::new(Sink { log: log.clone() }));
        sim.spawn(h1, Box::new(Burst { target: sink, count }));
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), count as usize);
        for (i, (_, msg)) in log.iter().enumerate() {
            prop_assert_eq!(*msg, i as u32, "out-of-order delivery");
        }
        // Delivery times strictly increase (FIFO tie-breaking).
        for w in log.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// Identical seeds give identical traces; the engine is deterministic.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), count in 1u32..20) {
        let run = |seed: u64| {
            let mut sim: Simulation<u32> = Simulation::new(seed);
            let h1 = sim.add_host(HostConfig::new("h1").timeslice_ns(5_000_000));
            let h2 = sim.add_host(HostConfig::new("h2").timeslice_ns(5_000_000));
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.spawn(h2, Box::new(Sink { log: log.clone() }));
            sim.spawn(h1, Box::new(Burst { target: sink, count }));
            sim.run();
            let v = log.borrow().clone();
            (v, sim.now())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// `WorldSet` interleaving of random independent event schedules is
    /// behaviour-preserving: each world ends in exactly the state it
    /// reaches when run to completion alone.
    #[test]
    fn worldset_interleaving_matches_isolated_runs(
        worlds in prop::collection::vec(
            (any::<u64>(), 1u32..30, 0u64..20_000_000, 0u64..1_000_000),
            1..8,
        ),
    ) {
        let mut config = WorldConfig::new();
        config.set_network(NetworkConfig {
            ipc: LatencyModel { base_ns: 10_000, jitter_ns: 500_000 },
            tcp: LatencyModel { base_ns: 100_000, jitter_ns: 500_000 },
        });
        // Give every world the max timeslice drawn so the shared config is
        // fixed while seeds/counts still vary per world.
        let slice = worlds.iter().map(|w| w.2).max().unwrap_or(0);
        let h1 = config.add_host(HostConfig::new("h1").timeslice_ns(slice)).unwrap();
        let h2 = config.add_host(HostConfig::new("h2").timeslice_ns(slice)).unwrap();
        let config = Arc::new(config);

        let build = |&(seed, count, _, _): &(u64, u32, u64, u64)| {
            let mut sim: Simulation<u32> = Simulation::with_config(config.clone(), seed);
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.spawn(h2, Box::new(Sink { log: log.clone() }));
            sim.spawn(h1, Box::new(Burst { target: sink, count }));
            (sim, log)
        };

        let isolated: Vec<_> = worlds
            .iter()
            .map(|w| {
                let (mut sim, log) = build(w);
                sim.run();
                let delivered = log.borrow().clone();
                (sim.now(), sim.events_processed(), delivered)
            })
            .collect();

        let mut set = WorldSet::new();
        let logs: Vec<_> = worlds
            .iter()
            .map(|w| {
                let (sim, log) = build(w);
                set.push(sim);
                log
            })
            .collect();
        set.run();
        for (i, log) in logs.iter().enumerate() {
            prop_assert!(set.drained(i));
            let sim = set.world(i);
            let delivered = log.borrow().clone();
            prop_assert_eq!(
                &(sim.now(), sim.events_processed(), delivered),
                &isolated[i],
                "world {} diverged under interleaving", i
            );
        }
    }

    /// Virtual clocks are monotone along simulation time.
    #[test]
    fn clocks_are_monotone(
        offset in 0.0f64..1e9,
        ppm in -500.0f64..500.0,
        instants in prop::collection::vec(0u64..10_000_000_000, 2..20),
    ) {
        use loki_clock::params::{ClockParams, VirtualClock};
        let clock = VirtualClock::new(ClockParams::with_drift_ppm(offset, ppm));
        let mut sorted = instants.clone();
        sorted.sort_unstable();
        let mut last = None;
        for t in sorted {
            let reading = clock.read(t);
            if let Some(prev) = last {
                prop_assert!(reading >= prev);
            }
            last = Some(reading);
        }
    }
}
