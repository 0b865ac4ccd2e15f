//! Shared machine schedules at the vehicle level.
//!
//! Vehicles on one [`SchedTape`] advance one machine between them for as
//! long as their machine operations agree. These tests put vehicles whose
//! inputs diverge on one tape on purpose — a driver that leaves
//! mid-window, a follower that takes over as driver, a follower that
//! leaves mid-tape and rebuilds from the snapshot, a follower whose
//! operations stop matching, a member that finishes early — and demand
//! that each one ends byte-for-byte as if it had flown alone.

use attacks::membw_hog::BandwidthHog;
use attacks::script::AttackEvent;
use containerdrone_core::runner::{
    LeaveReason, Scenario, ScenarioResult, SchedTape, SpanEnd, VehicleInstance,
};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::{SimDuration, SimTime};
use virt_net::net::Network;

const DURATION: SimDuration = SimDuration::from_secs(3);

/// Poll-like windows, as the fleet executor carves them.
const WINDOW: SimDuration = SimDuration::from_millis(100);

fn healthy(seed: u64) -> ScenarioConfig {
    ScenarioConfig::healthy()
        .with_duration(DURATION)
        .with_seed(seed)
}

/// Attacked at an onset inside a window: leaves its class at arming.
fn armed(seed: u64, at_ms: u64, event: AttackEvent) -> ScenarioConfig {
    let mut cfg = healthy(seed);
    cfg.attacks = cfg.attacks.at(SimTime::from_millis(at_ms), event);
    cfg
}

/// A monitor so twitchy that wind alone trips the attitude rule, at a
/// time only this vehicle's physics decides: its Simplex switch kills the
/// rx thread where the rest of the class does not.
fn twitchy(seed: u64) -> ScenarioConfig {
    let mut cfg = healthy(seed);
    cfg.framework.thresholds.max_attitude_error = 0.4f64.to_radians();
    cfg.framework.thresholds.attitude_persistence = SimDuration::from_millis(5);
    cfg
}

/// A cage so tight that hover drift hits a wall: the vehicle finishes
/// 1 s after its crash, before the rest of the class.
fn caged(seed: u64) -> ScenarioConfig {
    let mut cfg = healthy(seed);
    cfg.world.cage.half_x = 0.02;
    cfg.world.cage.half_y = 0.02;
    cfg
}

/// Flies `configs` window by window, all on one tape in the given order
/// (members that left advance alone), and returns each result with the
/// reason its vehicle left the tape.
fn fly_on_one_tape(configs: &[ScenarioConfig]) -> Vec<(ScenarioResult, Option<LeaveReason>)> {
    let mut members: Vec<(Network, VehicleInstance, Option<LeaveReason>)> = configs
        .iter()
        .map(|cfg| {
            let mut net = Network::new();
            let vehicle = VehicleInstance::build(cfg.clone(), Vec::new(), &mut net);
            (net, vehicle, None)
        })
        .collect();
    let mut tape = SchedTape::new(&members[0].1);
    let mut target = SimTime::ZERO + WINDOW;
    loop {
        tape.begin_window();
        let mut flying = false;
        for (net, vehicle, left) in &mut members {
            let mut seat = left.is_none().then(|| vehicle.join_window());
            loop {
                let end = match &mut seat {
                    Some(seat) => vehicle.advance_span_shared(net, target, &mut tape, seat),
                    None => vehicle.advance_span_deferred(net, target),
                };
                match end {
                    SpanEnd::Short => {}
                    SpanEnd::Done => break,
                    SpanEnd::AtTarget | SpanEnd::AtTargetDeferred => {
                        let now = vehicle.now();
                        vehicle.world_mut().advance_to(now);
                        vehicle.post_step();
                        flying = true;
                        break;
                    }
                }
            }
            if let Some(reason) = seat.and_then(|s| s.left()) {
                *left = Some(reason);
            }
        }
        if !flying {
            break;
        }
        target += WINDOW;
    }
    members
        .into_iter()
        .map(|(net, vehicle, left)| (vehicle.finish(&net), left))
        .collect()
}

fn fingerprint(r: &ScenarioResult) -> String {
    format!("{r:?}")
}

fn assert_each_flies_as_alone(configs: &[ScenarioConfig], expected: &[Option<LeaveReason>]) {
    let shared = fly_on_one_tape(configs);
    for (i, (cfg, (result, left))) in configs.iter().zip(&shared).enumerate() {
        let alone = Scenario::new(cfg.clone()).run();
        assert!(
            fingerprint(result) == fingerprint(&alone),
            "member {i}: shared-schedule result diverged from its solo flight"
        );
        assert_eq!(*left, expected[i], "member {i}: leave reason");
    }
}

/// A class with one attack script arms together mid-window: the driver
/// publishes its machine and leaves, each follower follows to the end of
/// the tape and leaves there.
#[test]
fn class_arming_together_flies_as_alone() {
    let hog = || AttackEvent::MemoryHog(BandwidthHog::isolbench());
    let configs = [
        armed(11, 1234, hog()),
        armed(12, 1234, hog()),
        armed(13, 1234, hog()),
    ];
    assert_each_flies_as_alone(&configs, &[Some(LeaveReason::Arming); 3]);
}

/// Followers whose physics diverge from the driver's leave mid-tape and
/// rebuild from the window-start snapshot plus the matched prefix: one
/// whose Simplex switch the rest never make (the kill mismatches), one
/// that crashes (its crash deadline clamps a span target the driver's
/// span did not have).
#[test]
fn diverging_followers_fly_as_alone() {
    let configs = [healthy(21), twitchy(22), caged(23), healthy(24)];
    assert_each_flies_as_alone(
        &configs,
        &[
            None,
            Some(LeaveReason::Mismatch),
            Some(LeaveReason::Mismatch),
            None,
        ],
    );
}

/// A diverging driver: the followers leave at its first divergent
/// operation, and it drives on alone.
#[test]
fn diverging_driver_flies_as_alone() {
    let configs = [twitchy(22), healthy(21), healthy(24)];
    assert_each_flies_as_alone(
        &configs,
        &[
            None,
            Some(LeaveReason::Mismatch),
            Some(LeaveReason::Mismatch),
        ],
    );
}

/// The driver's flight ends mid-window exactly where the followers'
/// telemetry record falls due (records land one quantum past each 20 ms
/// step here), so every operation it recorded still matches theirs. The first
/// follower to run past the end of the tape takes over as driver from
/// the published end state, and the rest follow it to the window end.
#[test]
fn follower_takes_over_when_the_driver_ends_mid_window() {
    let mut short = healthy(31);
    short.duration = SimDuration::from_micros(2_040_050);
    let configs = [short, healthy(32), healthy(33)];
    assert_each_flies_as_alone(&configs, &[None; 3]);
}

/// The scenarios above are not vacuous: the twitchy monitor really
/// switches and the caged vehicle really crashes before the end.
#[test]
fn divergent_members_really_diverge() {
    let twitchy = Scenario::new(twitchy(22)).run();
    assert!(
        twitchy.switch_time.is_some(),
        "the twitchy monitor never tripped"
    );
    let caged = Scenario::new(caged(23)).run();
    let crash = caged.crash.expect("the caged vehicle never crashed");
    assert!(
        crash.time + SimDuration::from_secs(1) < SimTime::ZERO + DURATION,
        "the caged vehicle must finish early, not at the flight end"
    );
}
