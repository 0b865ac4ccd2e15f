//! The sharded executor's determinism guarantee: a fleet run is a pure
//! function of its configuration — the thread count (and the batch
//! granularity behind [`Fleet::run`]) must never leak into a single byte
//! of the report.

use attacks::fleet::{FleetScript, FleetTarget};
use attacks::script::AttackEvent;
use attacks::udp_flood::UdpFlood;
use cd_fleet::{Fleet, FleetConfig, FleetReport, Partition, SwarmConfig};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::{SimDuration, SimTime};

fn mixed_config(n: usize) -> FleetConfig {
    let script = FleetScript::new()
        .at(
            SimTime::from_secs(1),
            FleetTarget::Rolling {
                period: SimDuration::from_millis(500),
            },
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
        .at(
            SimTime::from_secs(2),
            FleetTarget::Vehicle(3),
            AttackEvent::KillComplex,
        );
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3));
    FleetConfig::new(base, n).with_script(script)
}

/// The acceptance-criteria scenario: a 25-UAV mixed-attack campaign must
/// produce byte-identical reports at every thread count — worker-pool
/// sharding, batch boundaries and merge order all cancel out.
#[test]
fn mixed_25_uav_campaign_is_byte_identical_across_thread_counts() {
    let serial = Fleet::new(mixed_config(25)).run();
    let serial_csv = serial.to_csv();
    for threads in [2usize, 8] {
        let parallel = Fleet::new(mixed_config(25).with_threads(threads)).run();
        assert_eq!(
            serial_csv,
            parallel.to_csv(),
            "fleet report diverged at {threads} threads"
        );
        assert_eq!(serial.sim_steps, parallel.sim_steps);
        assert_eq!(serial.net_packets, parallel.net_packets);
        assert_eq!(serial.duration, parallel.duration);
        // Deep check on a sample of vehicles: full telemetry byte
        // equality, not just the report rows.
        for i in [0usize, 3, 12, 24] {
            assert_eq!(
                serial.outcomes[i].result.telemetry.to_csv(),
                parallel.outcomes[i].result.telemetry.to_csv(),
                "vehicle {i} telemetry diverged at {threads} threads"
            );
            assert_eq!(
                serial.outcomes[i].gcs, parallel.outcomes[i].gcs,
                "vehicle {i} GCS view diverged at {threads} threads"
            );
        }
    }
}

/// The full adversarial airspace: V2V swarm streams on a ring, an
/// onboard rolling flood, and external attacker nodes flooding a GCS
/// uplink and jamming a swarm port.
fn adversarial_config(n: usize) -> FleetConfig {
    let script = FleetScript::new()
        .at(
            SimTime::from_secs(1),
            FleetTarget::Rolling {
                period: SimDuration::from_millis(500),
            },
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
        .at(
            SimTime::from_secs(1),
            FleetTarget::GcsUplink(3),
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
        .at(
            SimTime::from_millis(1500),
            FleetTarget::SwarmJam(5),
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
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

fn assert_reports_equal(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(a.to_csv(), b.to_csv(), "fleet report diverged: {label}");
    assert_eq!(a.sim_steps, b.sim_steps, "{label}");
    assert_eq!(a.net_packets, b.net_packets, "{label}");
    assert_eq!(a.attacker_packets, b.attacker_packets, "{label}");
    assert_eq!(a.duration, b.duration, "{label}");
}

/// The tentpole acceptance scenario: a 25-UAV swarm campaign with V2V
/// streams and external attacker nodes must produce byte-identical
/// reports at every thread count — the swarm broadcasts, attacker turns
/// and GCS downlink all merge on the coordinating thread in pinned
/// order, so sharding cannot leak in.
#[test]
fn swarm_and_attacker_campaign_is_byte_identical_across_thread_counts() {
    let serial = Fleet::new(adversarial_config(25)).run();
    // Non-degeneracy: the campaign really exercised every new surface.
    assert!(serial.attacker_packets > 0, "attacker nodes never fired");
    assert!(
        serial.outcomes.iter().all(|o| o.swarm.rx_msgs > 0),
        "some vehicle heard no V2V traffic"
    );
    assert!(
        serial.outcomes[5].swarm.dropped_jam > 0,
        "the jam never pressured vehicle 5's swarm port"
    );
    assert!(
        serial.outcomes[3].gcs.malformed > 0,
        "no attacker garbage reached vehicle 3's telemetry port"
    );
    for threads in [2usize, 8] {
        let parallel = Fleet::new(adversarial_config(25).with_threads(threads)).run();
        assert_reports_equal(&serial, &parallel, &format!("{threads} threads"));
        for i in [0usize, 3, 5, 24] {
            assert_eq!(
                serial.outcomes[i].result.telemetry.to_csv(),
                parallel.outcomes[i].result.telemetry.to_csv(),
                "vehicle {i} telemetry diverged at {threads} threads"
            );
            assert_eq!(serial.outcomes[i].gcs, parallel.outcomes[i].gcs);
            assert_eq!(serial.outcomes[i].swarm, parallel.outcomes[i].swarm);
        }
    }
}

/// Load-balanced and contiguous partitioning are wall-clock strategies,
/// not semantics: the same campaign under both must render identical
/// reports (the load balancer's wall-clock cost observations never touch
/// simulation state).
#[test]
fn partition_strategy_never_changes_the_report() {
    let balanced = Fleet::new(adversarial_config(25).with_threads(4)).run();
    let contiguous = Fleet::new(
        adversarial_config(25)
            .with_threads(4)
            .with_partition(Partition::Contiguous),
    )
    .run();
    assert_reports_equal(&balanced, &contiguous, "load-balanced vs contiguous");
    // And against the mixed (no-swarm) campaign too, where the per-poll
    // cost skew between flooded and healthy vehicles is largest.
    let mixed_balanced = Fleet::new(mixed_config(25).with_threads(8)).run();
    let mixed_contiguous = Fleet::new(
        mixed_config(25)
            .with_threads(8)
            .with_partition(Partition::Contiguous),
    )
    .run();
    assert_reports_equal(&mixed_balanced, &mixed_contiguous, "mixed campaign");
}

/// The N = 1 equivalence pin holds on the *parallel* executor too: even
/// threaded, an N = 1 fleet reproduces the golden single-vehicle
/// Figure 4 CSV byte-for-byte.
#[test]
fn parallel_n1_fleet_still_reproduces_fig4_golden() {
    let path = format!("{}/../../tests/golden/fig4.csv", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let report = Fleet::new(FleetConfig::new(ScenarioConfig::fig4(), 1).with_threads(8)).run();
    let produced = report.outcomes[0].result.telemetry.to_csv();
    assert!(
        produced == expected,
        "fig4: parallel N=1 fleet CSV diverged from the golden file"
    );
    assert!(report.outcomes[0].gcs.packets > 0, "GCS heard the vehicle");
}

/// Carving the run into [`Fleet::run_until`] windows of uneven length
/// (the incremental API) must not change a byte of the report: windows
/// end on poll boundaries, exactly where [`Fleet::run`] merges anyway.
#[test]
fn windowed_run_until_matches_the_batch_executor() {
    let batch = Fleet::new(mixed_config(5).with_threads(2)).run();

    let mut windowed = Fleet::new(mixed_config(5).with_threads(2));
    let mut t = SimTime::ZERO;
    for step_ms in [1, 250, 333, 1000, 17].iter().cycle() {
        if (0..windowed.n_vehicles()).all(|i| windowed.vehicle(i).done()) {
            break;
        }
        t += SimDuration::from_millis(*step_ms);
        windowed.run_until(t);
    }
    let windowed = windowed.finish();

    assert_eq!(batch.to_csv(), windowed.to_csv());
    assert_eq!(batch.sim_steps, windowed.sim_steps);
    assert_eq!(batch.quanta_leaped, windowed.quanta_leaped);
    assert_eq!(batch.net_packets, windowed.net_packets);
    assert_eq!(batch.duration, windowed.duration);
    for (a, b) in batch.outcomes.iter().zip(&windowed.outcomes) {
        assert_eq!(
            a.result.telemetry.to_csv(),
            b.result.telemetry.to_csv(),
            "vehicle {} telemetry diverged between schedules",
            a.index
        );
    }
}

/// Oversubscription (more threads than vehicles) must degrade to one
/// vehicle per shard, not misbehave.
#[test]
fn more_threads_than_vehicles_is_fine() {
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(2));
    let a = Fleet::new(FleetConfig::new(base.clone(), 3)).run();
    let b = Fleet::new(FleetConfig::new(base, 3).with_threads(16)).run();
    assert_eq!(a.to_csv(), b.to_csv());
}
