//! The engine's one bound: the per-experiment budgets of
//! `Simulation::set_budget`, with `DEFAULT_MAX_EVENTS` when none is set.

use loki_sim::config::HostConfig;
use loki_sim::engine::{
    Actor, ActorId, BudgetExceeded, Ctx, Simulation, TimerId, DEFAULT_MAX_EVENTS,
};

/// Re-arms a 1 µs timer forever and pings a peer every tick: a runaway
/// that only a budget ends.
struct Spinner {
    peer: ActorId,
}
impl Actor<u32> for Spinner {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(1_000, 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: ActorId, _: u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, tag: u64) {
        ctx.send(self.peer, tag as u32);
        ctx.set_timer(1_000, tag + 1);
    }
}

/// Arms a far-future timer and a near one; the near one either cancels
/// the far timer or exits the actor. Either way the far timer is left
/// queued as garbage after two live events.
struct LeavesGarbage {
    exit: bool,
    far: Option<TimerId>,
}
impl Actor<u32> for LeavesGarbage {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.far = Some(ctx.set_timer(1_000_000, 1));
        ctx.set_timer(1_000, 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: ActorId, _: u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, tag: u64) {
        assert_eq!(tag, 0, "the far timer never fires");
        if self.exit {
            ctx.exit_self();
        } else if let Some(far) = self.far.take() {
            ctx.cancel_timer(far);
        }
    }
}

/// Two spinners pinging each other across hosts `h1` and `h2`.
fn spawn_spinners(sim: &mut Simulation<u32>) {
    for (host, peer) in [("h1", 1), ("h2", 0)] {
        let h = sim.world_config().find_host(host).unwrap();
        sim.spawn(
            h,
            Box::new(Spinner {
                peer: ActorId(peer),
            }),
        );
    }
}

fn runaway(seed: u64) -> Simulation<u32> {
    let mut sim = Simulation::new(seed);
    sim.add_host(HostConfig::new("h1"));
    sim.add_host(HostConfig::new("h2"));
    spawn_spinners(&mut sim);
    sim
}

fn garbage(exit: bool) -> Simulation<u32> {
    let mut sim = Simulation::new(3);
    let h = sim.add_host(HostConfig::new("h").timeslice_ns(0));
    sim.spawn(h, Box::new(LeavesGarbage { exit, far: None }));
    sim
}

/// `(trip, events processed, clock)` once `drive` has ended the world.
fn outcome(
    seed: u64,
    budget: (Option<u64>, Option<u64>),
    drive: impl Fn(&mut Simulation<u32>),
) -> (Option<BudgetExceeded>, u64, u64) {
    let mut sim = runaway(seed);
    sim.set_budget(budget.0, budget.1);
    drive(&mut sim);
    (sim.budget_exceeded(), sim.events_processed(), sim.now())
}

#[test]
fn trip_point_is_identical_under_run_step_and_run_ready() {
    for (budget, kind) in [
        ((None, Some(5_000)), BudgetExceeded::Events),
        ((Some(2_000_000), None), BudgetExceeded::VirtualTime),
        ((Some(1_000_000_000), Some(5_000)), BudgetExceeded::Events),
        ((Some(200_000), Some(5_000)), BudgetExceeded::VirtualTime),
    ] {
        let run = outcome(11, budget, |sim| sim.run());
        let stepped = outcome(11, budget, |sim| while sim.step() {});
        let bursts = outcome(11, budget, |sim| {
            while let Some(t) = sim.next_event_time() {
                sim.run_ready(t + 7_777);
            }
        });
        assert_eq!(run.0, Some(kind), "{budget:?}");
        if kind == BudgetExceeded::Events {
            assert_eq!(run.1, budget.1.unwrap(), "trips at exactly the ceiling");
        } else {
            assert!(run.2 <= budget.0.unwrap(), "no event past the ceiling ran");
        }
        assert_eq!(stepped, run, "{budget:?}");
        assert_eq!(bursts, run, "{budget:?}");
    }
}

#[test]
fn a_tripped_world_reads_as_drained_and_refuses_events() {
    let mut sim = runaway(5);
    sim.set_budget(None, Some(100));
    sim.run();
    assert_eq!(sim.budget_exceeded(), Some(BudgetExceeded::Events));
    assert!(sim.pending_events() > 0, "the runaway left events queued");
    assert_eq!(sim.next_event_time(), None);
    assert!(!sim.step());
    assert!(sim.run_until(u64::MAX), "stops with events still pending");
    // An event queued after the trip is refused too.
    let h = sim.add_host(HostConfig::new("late"));
    sim.spawn(h, Box::new(Spinner { peer: ActorId(0) }));
    assert!(!sim.step());
    assert_eq!(sim.events_processed(), 100);
    assert_eq!(sim.next_event_time(), None);
}

#[test]
fn garbage_heads_past_a_ceiling_are_discarded_not_tripped() {
    // Two live events (start, near timer), then the far timer: cancelled
    // or addressed to an exited actor, past both kinds of ceiling.
    for exit in [false, true] {
        for budget in [(Some(500_000), None), (None, Some(2))] {
            let mut sim = garbage(exit);
            sim.set_budget(budget.0, budget.1);
            sim.run();
            assert_eq!(sim.budget_exceeded(), None, "exit={exit} {budget:?}");
            assert_eq!(sim.events_processed(), 2);
            assert_eq!(sim.pending_events(), 0, "the garbage head was discarded");
        }
    }
    // A live head past the same ceiling does trip.
    let mut sim = runaway(1);
    sim.set_budget(None, Some(2));
    sim.run();
    assert_eq!(sim.budget_exceeded(), Some(BudgetExceeded::Events));
}

#[test]
fn reset_clears_the_trip_and_restores_the_default_ceilings() {
    let mut sim = runaway(9);
    sim.set_budget(Some(5_000), Some(10));
    sim.run();
    assert!(sim.budget_exceeded().is_some());

    sim.reset(9);
    assert_eq!(sim.budget_exceeded(), None);
    spawn_spinners(&mut sim);
    // Past both old ceilings, nowhere near the defaults.
    assert!(sim.run_until(5_000_000));
    assert_eq!(sim.budget_exceeded(), None);
    assert!(sim.now() > 5_000 && sim.events_processed() > 10);
    assert!(sim.events_processed() < DEFAULT_MAX_EVENTS);

    // The reset world replays exactly like a fresh one under a budget.
    sim.reset(9);
    spawn_spinners(&mut sim);
    sim.set_budget(None, Some(1_000));
    sim.run();
    let fresh = outcome(9, (None, Some(1_000)), |sim| sim.run());
    assert_eq!(
        (sim.budget_exceeded(), sim.events_processed(), sim.now()),
        fresh
    );
}

#[test]
fn default_budget_then_an_event_ceiling_trips_at_exactly_n() {
    let mut sim = runaway(2);
    sim.set_budget(None, None);
    assert!(sim.run_until(100_000));
    assert_eq!(sim.budget_exceeded(), None);
    let done = sim.events_processed();
    let n = done + 333;
    sim.set_budget(Some(u64::MAX), Some(n));
    sim.run();
    assert_eq!(sim.budget_exceeded(), Some(BudgetExceeded::Events));
    assert_eq!(sim.events_processed(), n);
}

/// Re-arms a 1 ns timer forever: the cheapest possible runaway.
struct Tick;
impl Actor<u32> for Tick {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(1, 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: ActorId, _: u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: u64) {
        ctx.set_timer(1, 0);
    }
}

#[test]
fn a_runaway_with_no_budget_trips_the_default_ceiling() {
    let mut sim = Simulation::new(1);
    let h = sim.add_host(HostConfig::new("h"));
    sim.disable_trace();
    sim.spawn(h, Box::new(Tick));
    sim.run(); // ends in a typed trip, never a panic
    assert_eq!(sim.budget_exceeded(), Some(BudgetExceeded::Events));
    assert_eq!(sim.events_processed(), DEFAULT_MAX_EVENTS);
    assert_eq!(sim.next_event_time(), None);
}
