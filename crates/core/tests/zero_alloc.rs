//! Allocation regression test: after warmup, the simulation hot loop must
//! run entirely out of reused scratch state — pooled packet buffers,
//! incrementally maintained ready queues, pre-sized telemetry vectors.
//!
//! A counting global allocator measures exactly one simulated second of
//! steady state — once for the healthy scenario and once under the
//! Figure 7 UDP flood (locking in the shared-payload flood fast-path) —
//! and demands **zero** heap allocations. If any future change sneaks a
//! per-tick allocation back into the machine/network/runner path, these
//! tests name the regression immediately.
//!
//! The fleet-level twin of this gate lives in
//! `crates/fleet/tests/zero_alloc.rs` (it must sit in the `cd-fleet`
//! crate, which depends on this one): same counting allocator, measuring
//! flooded and healthy multi-vehicle fleets on the stepped and the leap
//! executor, shared machine schedules included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use containerdrone_core::runner::Scenario;
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::SimTime;

/// The allocation counter is process-global, so the two measurement
/// windows must never overlap: each test serializes on this lock.
static MEASUREMENT: Mutex<()> = Mutex::new(());

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's exact
// layout/pointer arguments, so `System`'s contract is upheld verbatim;
// the only addition is a relaxed atomic increment, which allocates
// nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn healthy_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    let mut run = Scenario::new(ScenarioConfig::healthy()).start();

    // Warmup: scratch vectors grow to steady-state capacity, the packet
    // pool fills, the parser buffers settle.
    run.advance_to(SimTime::from_secs(3));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > 0, "counter must have registered setup allocations");
    run.advance_to(SimTime::from_secs(4)); // one simulated second
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state loop allocated {} times in one simulated second",
        after - before
    );

    // The run is still healthy, not silently degenerate.
    let result = run.finish();
    assert!(!result.crashed());
    assert!(result.sim_steps >= 4 * 20_000, "4 s at 50 µs quanta");
}

/// The time-leap executor's counterpart of the healthy gate: one
/// simulated second advanced span-by-span ([`RunningScenario::
/// advance_to_leap`]) must also be allocation-free. The leap path has
/// its own scratch state beyond the stepped loop's — the pinned
/// assignment's demand set, the replayed memory progress, the captured
/// fair dispatch order — all of which must come from pre-sized,
/// persistent buffers.
#[test]
fn healthy_leap_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    let mut run = Scenario::new(ScenarioConfig::healthy()).start();

    // Warmup on the same executor the window measures, so every
    // leap-path scratch vector has reached steady-state capacity.
    run.advance_to_leap(SimTime::from_secs(3));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > 0, "counter must have registered setup allocations");
    run.advance_to_leap(SimTime::from_secs(4)); // one simulated second
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "leap steady-state loop allocated {} times in one simulated second",
        after - before
    );

    // The window really ran the leap executor, not a degenerate step loop.
    let result = run.finish();
    assert!(!result.crashed());
    assert!(result.sim_steps >= 4 * 20_000, "4 s at 50 µs quanta");
    assert!(
        result.quanta_leaped * 2 > result.sim_steps,
        "a healthy leap run must leap most quanta: {} of {}",
        result.quanta_leaped,
        result.sim_steps
    );
}

/// The flood fast-path counterpart: one simulated second of the Figure 7
/// UDP flood in steady state must also be allocation-free. The warmup is
/// pool-aware — it runs well past the 8 s attack onset and the Simplex
/// switch, so the link queues have grown to their flood depth, the
/// receive queue has filled to capacity, the shared flood payload is
/// armed, and the one-off switch/violation records have been written.
#[test]
fn udp_flood_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    let mut run = Scenario::new(ScenarioConfig::fig7()).start();

    // fig7: flood onset at 8 s, monitor switch shortly after. By 12 s the
    // attack has been in steady state for seconds.
    run.advance_to(SimTime::from_secs(12));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > 0, "counter must have registered setup allocations");
    run.advance_to(SimTime::from_secs(13)); // one simulated flood second
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "flood steady-state loop allocated {} times in one simulated second",
        after - before
    );

    // The window really was under attack and the framework really did
    // its thing — not a silently degenerate run.
    let result = run.finish();
    assert!(!result.crashed());
    assert!(result.switch_time.is_some(), "monitor never switched");
    assert!(
        result.flood_sent > 4 * 20_000,
        "flood offered only {} packets",
        result.flood_sent
    );
    assert!(
        result.rx_socket_stats.dropped_ratelimit > 0,
        "iptables limit never engaged"
    );
}

/// The bulk flood-span counterpart: one simulated second of the Figure 7
/// flood advanced span-by-span — closed-form machine leaps, batched
/// emission replay ([`AttackDriver::span_emit`]), run-length-encoded
/// link entries and closed-form token-bucket settlement — must also be
/// allocation-free. This is the gate the PR's O(1)-per-span flood
/// arithmetic has to clear: a span that materialized its packets (or a
/// memo that grew per datagram) would show up here as per-quantum heap
/// traffic.
#[test]
fn udp_flood_leap_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    let mut run = Scenario::new(ScenarioConfig::fig7()).start();

    // Warmup on the leap executor itself, well past onset and switch:
    // flood-span scratch (the driver's replay cursor, the RLE front,
    // the machine's captured fair order) reaches steady capacity.
    run.advance_to_leap(SimTime::from_secs(12));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let leaped_before = run.vehicle().sched_obs().leaped_quanta;
    assert!(before > 0, "counter must have registered setup allocations");
    run.advance_to_leap(SimTime::from_secs(13)); // one simulated flood second
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let leaped_in_window = run.vehicle().sched_obs().leaped_quanta - leaped_before;

    assert_eq!(
        after - before,
        0,
        "bulk flood-span loop allocated {} times in one simulated second",
        after - before
    );
    // The window really took flood spans — the gate must cover the bulk
    // path, not a degenerate per-quantum fallback.
    assert!(
        leaped_in_window * 2 > 20_000,
        "the flood window must leap most of its quanta: {leaped_in_window} of 20000"
    );

    let result = run.finish();
    assert!(!result.crashed());
    assert!(result.switch_time.is_some(), "monitor never switched");
    assert!(
        result.flood_sent > 4 * 20_000,
        "flood offered only {} packets",
        result.flood_sent
    );
}
