//! A machine-speed reference that shares no code with the repository.
//!
//! The benchmark host's speed drifts by up to 2x over seconds (other
//! tenants on shared cores and caches), far more than any bound a
//! regression gate could use. This kernel is a miniature discrete-event
//! loop written here — a binary-heap event queue, dynamic dispatch to 64
//! boxed nodes, one small heap-allocated payload per event — so it feels
//! the same contention as the simulation engine does, but no change to the
//! repository can make it faster or slower. Timed next to each workload
//! run, it turns wall-clock throughput into throughput at a fixed
//! reference speed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events per reference sample (a few milliseconds of work).
const EVENTS: u64 = 100_000;
const NODES: u32 = 64;

/// The nominal reference speed: a machine on which this kernel takes
/// exactly 100 ns per event. Normalised figures are what the workload would
/// show on such a machine (a 2-vCPU 2.0 GHz Xeon guest measures 90-135).
pub const REFERENCE_NS_PER_EVENT: f64 = 100.0;

/// Scales a duration measured next to a kernel sample of `kernel_ns` per
/// event to the reference speed.
pub fn to_reference(seconds: f64, kernel_ns: f64) -> f64 {
    seconds * REFERENCE_NS_PER_EVENT / kernel_ns
}

struct Node {
    id: u8,
    handled: u64,
    log: Vec<u64>,
}

trait Handler {
    fn handle(&mut self, now: u64, rng: &mut u64, out: &mut Vec<(u64, u32, Vec<u8>)>);
}

impl Handler for Node {
    fn handle(&mut self, now: u64, rng: &mut u64, out: &mut Vec<(u64, u32, Vec<u8>)>) {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        self.handled += 1;
        if self.log.len() < 256 {
            self.log.push(now);
        } else {
            self.log.clear();
        }
        let to = (*rng % u64::from(NODES)) as u32;
        let delay = 1 + (*rng >> 40) % 5_000;
        let body = vec![self.id; 1 + (*rng % 24) as usize];
        out.push((now + delay, to, body));
    }
}

/// One reference sample: ns per event of the kernel, measured now.
pub fn ns_per_event() -> f64 {
    let start = Instant::now();
    let mut nodes: Vec<Box<dyn Handler>> = (0..NODES)
        .map(|i| {
            Box::new(Node {
                id: i as u8,
                handled: 0,
                log: Vec::new(),
            }) as Box<dyn Handler>
        })
        .collect();
    let mut queue = BinaryHeap::new();
    for i in 0..NODES {
        queue.push(Reverse((u64::from(i), i, vec![0u8; 8])));
    }
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::new();
    let mut events = 0u64;
    let mut bytes = 0usize;
    while let Some(Reverse((now, to, body))) = queue.pop() {
        events += 1;
        if events >= EVENTS {
            break;
        }
        bytes += body.len();
        nodes[to as usize].handle(now, &mut rng, &mut out);
        queue.extend(out.drain(..).map(Reverse));
    }
    black_box(bytes);
    start.elapsed().as_nanos() as f64 / events as f64
}
