//! Steady-state allocation guard for a message-heavy campaign.
//!
//! The kvstore retry storm (`cascade_study` with `storm_retry` and the
//! partition armed) runs ~6.6k simulated events and ~1.2k timeline records
//! per experiment. Once the batched pipeline's pools are warm, the message
//! path — event queue, inline notification lists, inline user messages,
//! re-sent `Arc` payloads — should allocate almost nothing per event. This
//! test counts every allocation the process makes after the first batch
//! and fails if the per-experiment average climbs back towards one
//! allocation per event.
//!
//! The counter is process-wide, so this file holds a single test and the
//! pipeline runs on one worker on the test thread.

use loki::apps::kvstore::{cascade_probe, cascade_study, kv_factory, storm_retry, KvConfig};
use loki::core::study::Study;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus a count of allocations and reallocations.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Worlds interleaved per worker.
const BATCH: usize = 8;
/// Experiments counted after the first batch.
const STEADY: u32 = 24;
/// Allocation budget per steady-state experiment (about 6.6k events each).
const MAX_ALLOCS_PER_EXPERIMENT: u64 = 400;

#[test]
fn kv_cascade_batched_steady_state_allocates_little_per_experiment() {
    let study = Study::compile_arc(&cascade_study("alloc-steady-state")).expect("valid study");
    let factory = kv_factory(KvConfig {
        retry: Some(storm_retry()),
        probe: cascade_probe(true),
        ..KvConfig::default()
    });
    let mut cfg = SimHarnessConfig::three_hosts(4242);
    cfg.workers = Some(1);
    cfg.batch = Some(BATCH);
    let pipeline = CampaignPipeline::new(study, factory, cfg);

    let experiments = BATCH as u32 + STEADY;
    let mut steady_start = None;
    let mut records = 0usize;
    let summary = pipeline
        .run_with_workers(experiments, 1, |analyzed| {
            if analyzed.experiment == BATCH as u32 {
                steady_start = Some(ALLOCS.load(Ordering::Relaxed));
            }
            records += analyzed
                .global
                .as_ref()
                .map_or(0, |global| global.events.len());
        })
        .expect("valid campaign config");
    let steady_allocs = ALLOCS.load(Ordering::Relaxed) - steady_start.expect("sink saw batch 2");

    assert_eq!(summary.failed, 0);
    // The storm really ran: ~1.2k records per experiment, so a regression
    // to one allocation per record or event cannot hide under the budget.
    assert!(
        records > 1000 * experiments as usize,
        "only {records} records in {experiments} experiments"
    );
    let per_experiment = steady_allocs / u64::from(STEADY);
    assert!(
        per_experiment <= MAX_ALLOCS_PER_EXPERIMENT,
        "{per_experiment} allocations per steady-state experiment \
         (budget {MAX_ALLOCS_PER_EXPERIMENT})"
    );
}
