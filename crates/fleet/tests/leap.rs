//! Fleet-level time-leap equivalence: the event-driven executor
//! (`FleetConfig::leap`, the default) must reproduce the quantum-stepped
//! reference (`--no-leap`) **byte-for-byte** on the full adversarial
//! matrix — onboard rolling floods, V2V swarm streams under jam, and
//! external attacker nodes — at every thread count. The single-vehicle
//! counterpart lives in `tests/time_leap.rs` at the workspace root.

use attacks::fleet::{FleetScript, FleetTarget};
use attacks::script::AttackEvent;
use attacks::udp_flood::UdpFlood;
use cd_fleet::{Fleet, FleetConfig, FleetReport, SwarmConfig};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::{SimDuration, SimTime};

fn flood() -> AttackEvent {
    AttackEvent::UdpFlood(UdpFlood::against_motor_port())
}

/// The parallel-suite mixed campaign: rolling onboard floods plus a
/// targeted controller kill, no airspace attackers.
fn mixed_config(n: usize) -> FleetConfig {
    let script = FleetScript::new()
        .at(
            SimTime::from_secs(1),
            FleetTarget::Rolling {
                period: SimDuration::from_millis(500),
            },
            flood(),
        )
        .at(
            SimTime::from_secs(2),
            FleetTarget::Vehicle(3),
            AttackEvent::KillComplex,
        );
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3));
    FleetConfig::new(base, n).with_script(script)
}

/// The full adversarial airspace: V2V swarm on a ring, rolling onboard
/// flood, an external attacker node flooding vehicle 3's GCS uplink and
/// another jamming vehicle 5's swarm port.
fn adversarial_config(n: usize) -> FleetConfig {
    let script = FleetScript::new()
        .at(
            SimTime::from_secs(1),
            FleetTarget::Rolling {
                period: SimDuration::from_millis(500),
            },
            flood(),
        )
        .at(SimTime::from_secs(1), FleetTarget::GcsUplink(3), flood())
        .at(
            SimTime::from_millis(1500),
            FleetTarget::SwarmJam(5),
            flood(),
        )
        .at(
            SimTime::from_millis(2500),
            FleetTarget::GcsUplink(3),
            AttackEvent::CeaseFire,
        );
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3));
    FleetConfig::new(base, n)
        .with_script(script)
        .with_swarm(SwarmConfig::default())
}

/// Every simulated quantity must match; only the executor diagnostics
/// (`quanta_leaped`, `wall_clock`) may differ.
fn assert_leap_equivalent(leap: &FleetReport, noleap: &FleetReport, label: &str) {
    assert_eq!(
        leap.to_csv(),
        noleap.to_csv(),
        "{label}: fleet CSV diverged between executors"
    );
    assert_eq!(leap.sim_steps, noleap.sim_steps, "{label}: sim_steps");
    assert_eq!(leap.net_packets, noleap.net_packets, "{label}: net packets");
    assert_eq!(
        leap.attacker_packets, noleap.attacker_packets,
        "{label}: attacker packets"
    );
    assert_eq!(leap.duration, noleap.duration, "{label}: duration");
    for (a, b) in leap.outcomes.iter().zip(&noleap.outcomes) {
        assert_eq!(
            a.result.telemetry.to_csv(),
            b.result.telemetry.to_csv(),
            "{label}: vehicle {} telemetry diverged",
            a.index
        );
        assert_eq!(a.gcs, b.gcs, "{label}: vehicle {} GCS view", a.index);
        assert_eq!(a.swarm, b.swarm, "{label}: vehicle {} swarm view", a.index);
        assert_eq!(
            a.result.task_report, b.result.task_report,
            "{label}: vehicle {} task report",
            a.index
        );
    }
    assert_eq!(
        noleap.quanta_leaped, 0,
        "{label}: the reference executor must never leap"
    );
    assert!(
        leap.quanta_leaped > 0,
        "{label}: the campaign has idle spans the leap executor must take"
    );
    assert_eq!(
        leap.quanta_stepped() + leap.quanta_leaped,
        leap.sim_steps,
        "{label}: leap/step accounting must partition sim_steps"
    );
}

#[test]
fn mixed_campaign_leap_matches_no_leap() {
    let leap = Fleet::new(mixed_config(8)).run();
    let noleap = Fleet::new(mixed_config(8).with_leap(false)).run();
    assert_leap_equivalent(&leap, &noleap, "mixed serial");
}

#[test]
fn adversarial_campaign_leap_matches_no_leap_at_every_thread_count() {
    let noleap = Fleet::new(adversarial_config(8).with_leap(false)).run();
    // Non-degeneracy: the campaign really exercised every surface.
    assert!(noleap.attacker_packets > 0, "attacker nodes never fired");
    assert!(
        noleap.outcomes[5].swarm.dropped_jam > 0,
        "the jam never pressured vehicle 5's swarm port"
    );
    for threads in [1usize, 4] {
        let leap = Fleet::new(adversarial_config(8).with_threads(threads)).run();
        assert_leap_equivalent(&leap, &noleap, &format!("adversarial {threads}-thread"));
    }
}

/// `--no-bulk` (per-packet flood-span settlement in the virtual
/// network) must be byte-identical to the bulk default across the
/// adversarial matrix — **including** the executor stats: bulk changes
/// delivery mechanics only, never a counter or a leap decision, so
/// nothing gets stripped from this comparison (unlike the leap/no-leap
/// diff, which strips the executor-stat columns).
#[test]
fn bulk_and_per_packet_settlement_agree_byte_for_byte() {
    type ConfigFn = fn(usize) -> FleetConfig;
    let cases: [(&str, ConfigFn); 2] =
        [("mixed", mixed_config), ("adversarial", adversarial_config)];
    for (label, config) in cases {
        let bulk = Fleet::new(config(8)).run();
        let nobulk = Fleet::new(config(8).with_bulk(false)).run();
        assert_eq!(
            bulk.to_csv(),
            nobulk.to_csv(),
            "{label}: fleet CSV diverged between settlement paths"
        );
        assert_eq!(
            bulk.quanta_leaped, nobulk.quanta_leaped,
            "{label}: bulk must not change what the executor leaps"
        );
        assert_eq!(bulk.sim_steps, nobulk.sim_steps, "{label}: sim_steps");
        assert_eq!(bulk.net_packets, nobulk.net_packets, "{label}: packets");
        for (a, b) in bulk.outcomes.iter().zip(&nobulk.outcomes) {
            assert_eq!(
                a.result.telemetry.to_csv(),
                b.result.telemetry.to_csv(),
                "{label}: vehicle {} telemetry diverged",
                a.index
            );
            assert_eq!(
                a.result.rx_socket_stats, b.result.rx_socket_stats,
                "{label}: vehicle {} socket stats",
                a.index
            );
            assert_eq!(
                a.result.hce_parser_stats, b.result.hce_parser_stats,
                "{label}: vehicle {} parser stats",
                a.index
            );
        }
        assert!(
            bulk.quanta_leaped > 0,
            "{label}: degenerate case — nothing leaped, the pin is vacuous"
        );
    }
}

/// A healthy fleet's machines are mostly waiting between task events, so
/// the executor should leap well over two thirds of all quanta (measured:
/// ~73% — the stepped remainder is the genuine event quanta: ~2 200
/// completions plus ~2 200 releases per simulated second against 20 000
/// quanta, which can never be leaped).
#[test]
fn healthy_fleet_leaps_most_quanta() {
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3));
    let report = Fleet::new(FleetConfig::new(base, 4)).run();
    assert!(
        report.quanta_leaped * 3 > report.sim_steps * 2,
        "a healthy fleet should leap >2/3 of its quanta: {} of {}",
        report.quanta_leaped,
        report.sim_steps
    );
}

/// Several links feeding one rate-limited port (an external attacker
/// flooding the GCS uplink a radio also reports on): the batch executor
/// admits same-window packets in one fixed order, so the schedule is
/// deterministic, the leap and no-leap executors agree byte-for-byte,
/// and carving the run into [`Fleet::run_until`] windows changes
/// nothing.
#[test]
fn multi_link_rate_limited_port_is_pinned() {
    let config = || {
        let script =
            FleetScript::new().at(SimTime::from_secs(1), FleetTarget::GcsUplink(1), flood());
        let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3));
        FleetConfig::new(base, 3).with_script(script)
    };

    let batch_a = Fleet::new(config()).run();
    let batch_b = Fleet::new(config()).run();
    assert_eq!(batch_a.to_csv(), batch_b.to_csv(), "batch schedule drifted");
    let batch_noleap = Fleet::new(config().with_leap(false)).run();
    assert_leap_equivalent(&batch_a, &batch_noleap, "multi-link uplink flood");

    let mut windowed = Fleet::new(config());
    for ms in (500..=3500).step_by(500) {
        windowed.run_until(SimTime::from_millis(ms));
    }
    let windowed = windowed.finish();
    assert_eq!(batch_a.to_csv(), windowed.to_csv(), "windowed run drifted");
    for (a, b) in batch_a.outcomes.iter().zip(&windowed.outcomes) {
        assert_eq!(
            a.result.telemetry.to_csv(),
            b.result.telemetry.to_csv(),
            "vehicle {}: flight diverged between run and run_until",
            a.index
        );
    }
    assert!(
        batch_a.outcomes[1].gcs.dropped_ratelimit > 0,
        "the attacker never contended the uplink: the pin is vacuous"
    );
}
