//! Differential fuzzing of shared machine schedules.
//!
//! Generated fleets — fleet size, thread count, partition, swarm on or
//! off, per-vehicle hog/kill/flood entries on random subsets with random
//! onsets and `CeaseFire` windows, and physics that make some vehicles
//! crash or trip their monitor — run three ways: with shared schedules
//! (the default), with `with_shared_sched(false)` (`--no-share`, every
//! vehicle advances its own machine) and on the stepped reference
//! executor (`with_leap(false)`). The report CSV, every per-vehicle
//! result and the trace JSONL must be byte-identical (the stepped run
//! has no leap-span events and no leap counters to compare).
//!
//! A failing case prints its seed; re-run it alone with
//! `CD_SHARE_SEED=<seed> cargo test -p cd-fleet --test shared_sched`.
//! `CD_SHARE_CASES=<n>` widens the sweep beyond the fixed corpus.

use attacks::fleet::{FleetScript, FleetTarget};
use attacks::membw_hog::BandwidthHog;
use attacks::script::AttackEvent;
use attacks::udp_flood::UdpFlood;
use cd_fleet::{Fleet, FleetConfig, FleetReport, Partition, SwarmConfig};
use cd_obs::{Registry, TraceSink};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::rng::SplitMix64;
use sim_core::time::{SimDuration, SimTime};

/// The fixed corpus `cargo test --workspace` runs.
const CORPUS: u64 = 12;

struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// A time in `[lo_ms, hi_ms)`, on the microsecond grid.
    fn time_ms(&mut self, lo_ms: u64, hi_ms: u64) -> SimTime {
        SimTime::from_micros(lo_ms * 1000 + self.below((hi_ms - lo_ms) * 1000))
    }
}

/// One generated fleet and a one-line description for failure messages.
fn generate(seed: u64) -> (FleetConfig, String) {
    let mut g = Gen(SplitMix64::new(seed));
    let n = 2 + g.below(6) as usize;
    let threads = 1 + g.below(3) as usize;
    let partition = if g.chance(2) {
        Partition::Contiguous
    } else {
        Partition::LoadBalanced
    };
    let swarm = g.chance(2);
    let duration_ms = 1500 + g.below(1500);
    let mut base = ScenarioConfig::healthy()
        .with_duration(SimDuration::from_millis(duration_ms))
        .with_seed(g.0.next_u64() % 1000);
    // Physics that split a class: a tight cage crashes some vehicles, a
    // twitchy monitor switches some, gusts do a bit of both.
    let physics = match g.below(4) {
        0 => "nominal",
        1 => {
            let half = 0.02 + 0.1 * (g.below(100) as f64 / 100.0);
            base.world.cage.half_x = half;
            base.world.cage.half_y = half;
            "tight-cage"
        }
        2 => {
            let deg = 0.3 + g.below(10) as f64 / 10.0;
            base.framework.thresholds.max_attitude_error = deg.to_radians();
            base.framework.thresholds.attitude_persistence = SimDuration::from_millis(5);
            "twitchy-monitor"
        }
        _ => {
            base.world.wind.turbulence_std = 1.0 + g.below(30) as f64 / 10.0;
            "gusty"
        }
    };
    // Per-vehicle entries on random subsets: every member of a subset
    // gets the same entries, so attacked vehicles start out in one class.
    let mut script = FleetScript::new();
    let mut attacks = Vec::new();
    for _ in 0..g.below(3) {
        let victims: Vec<usize> = (0..n).filter(|_| g.chance(2)).collect();
        let (name, event) = match g.below(3) {
            0 => ("hog", AttackEvent::MemoryHog(BandwidthHog::isolbench())),
            1 => ("kill", AttackEvent::KillComplex),
            _ => (
                "flood",
                AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
            ),
        };
        let onset = g.time_ms(100, duration_ms - 100);
        let cease = g
            .chance(2)
            .then(|| onset + SimDuration::from_micros(50_000 + g.below(800_000)));
        for &v in &victims {
            script = script.at(onset, FleetTarget::Vehicle(v), event.clone());
            if let Some(cease) = cease {
                script = script.at(cease, FleetTarget::Vehicle(v), AttackEvent::CeaseFire);
            }
        }
        attacks.push(format!("{name}@{onset:?}->{victims:?}"));
    }
    let mut config = FleetConfig::new(base, n)
        .with_script(script)
        .with_threads(threads)
        .with_partition(partition);
    if swarm {
        config = config.with_swarm(SwarmConfig::default());
    }
    let about = format!(
        "seed {seed}: n={n} threads={threads} {partition:?} swarm={swarm} \
         {duration_ms}ms {physics} attacks={attacks:?}"
    );
    (config, about)
}

struct Run {
    report: FleetReport,
    trace: String,
    /// Leaves by reason: mismatch, arming, finished.
    leaves: [u64; 3],
}

fn fly(config: FleetConfig) -> Run {
    let mut fleet = Fleet::new(config);
    let (sink, buf) = TraceSink::in_memory();
    fleet.attach_trace(sink);
    let registry = Registry::new();
    fleet.attach_metrics(&registry);
    let report = fleet.run();
    let leaves = ["mismatch", "arming", "finished"].map(|reason| {
        registry
            .counter("cd_fleet_sched_leaves_total", "", &[("reason", reason)])
            .get()
    });
    let trace = String::from_utf8(buf.take()).expect("JSONL is UTF-8");
    Run {
        report,
        trace,
        leaves,
    }
}

/// Every per-vehicle result, rendered in full. With `executor_stats`
/// false the leap counter is left out (the stepped executor leaps
/// nothing).
fn results(report: &FleetReport, executor_stats: bool) -> Vec<String> {
    report
        .outcomes
        .iter()
        .map(|o| {
            let r = &o.result;
            let leaped = if executor_stats { r.quanta_leaped } else { 0 };
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {} {} {} {} {} {:?} {}",
                r.crash,
                r.switch_time,
                r.monitor_events,
                r.attack_onset,
                r.attack_log,
                r.idle_rates,
                r.streams,
                r.hce_parser_stats,
                r.rx_socket_stats,
                r.task_report,
                r.phase_ns,
                r.flood_sent,
                r.attack_packets,
                r.heartbeats_received,
                r.sim_steps,
                leaped,
                r.net_packets_sent,
                (o.gcs, o.swarm, o.deadline_skips),
                r.telemetry.to_csv(),
            )
        })
        .collect()
}

fn without_leap_spans(trace: &str) -> String {
    trace
        .lines()
        .filter(|line| !line.contains("\"leap_span\""))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Runs case `seed` three ways and returns the shared run's leaves.
fn check(seed: u64) -> [u64; 3] {
    let (config, about) = generate(seed);
    let shared = fly(config.clone());
    let solo = fly(config.clone().with_shared_sched(false));
    let stepped = fly(config.with_leap(false));

    assert!(
        shared.report.to_csv() == solo.report.to_csv(),
        "{about}: report CSV differs with --no-share"
    );
    assert!(
        shared.report.to_csv() == stepped.report.to_csv(),
        "{about}: report CSV differs from the stepped executor"
    );
    let (a, b, c) = (
        results(&shared.report, true),
        results(&solo.report, true),
        results(&stepped.report, false),
    );
    for i in 0..a.len() {
        assert!(a[i] == b[i], "{about}: vehicle {i} differs with --no-share");
    }
    let a = results(&shared.report, false);
    for i in 0..a.len() {
        assert!(
            a[i] == c[i],
            "{about}: vehicle {i} differs from the stepped executor"
        );
    }
    assert!(
        shared.trace == solo.trace,
        "{about}: trace JSONL differs with --no-share"
    );
    assert!(
        without_leap_spans(&shared.trace) == stepped.trace,
        "{about}: trace JSONL differs from the stepped executor"
    );
    assert_eq!(
        solo.leaves, [0; 3],
        "{about}: --no-share must share nothing"
    );
    shared.leaves
}

#[test]
fn shared_schedules_match_both_references_on_generated_fleets() {
    if let Some(seed) = std::env::var("CD_SHARE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        check(seed);
        return;
    }
    let cases = std::env::var("CD_SHARE_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(CORPUS);
    let mut leaves = [0u64; 3];
    for seed in 0..cases {
        for (total, n) in leaves.iter_mut().zip(check(seed)) {
            *total += n;
        }
    }
    // The corpus is not vacuous: members leave by mismatch and at
    // arming, so rebuilding from the tape is exercised.
    assert!(leaves[0] > 0, "no member ever left by mismatch: {leaves:?}");
    assert!(leaves[1] > 0, "no member ever left at arming: {leaves:?}");
}

/// The headline workload's shape: a healthy swarm shares one schedule per
/// shard for the whole flight — nobody leaves.
#[test]
fn healthy_swarm_shares_for_the_whole_flight() {
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(2));
    let config = FleetConfig::new(base, 6)
        .with_swarm(SwarmConfig::default())
        .with_threads(2);
    let mut fleet = Fleet::new(config.clone());
    let registry = Registry::new();
    fleet.attach_metrics(&registry);
    fleet.run_until(SimTime::from_secs(1));
    let gauge = registry.gauge("cd_fleet_sched_shared_vehicles", "", &[]);
    assert_eq!(gauge.get(), 6.0, "every vehicle shares mid-flight");
    fleet.run_until(SimTime::from_secs(3));
    let shared = fleet.finish();
    let solo = Fleet::new(config.with_shared_sched(false)).run();
    assert_eq!(shared.to_csv(), solo.to_csv());
    assert_eq!(results(&shared, true), results(&solo, true));
}
