//! The traced pass: the workload once more with the program's phase
//! clock installed and benchmark spans around every public call, reduced
//! to the per-layer metrics.
//!
//! Single-vehicle flights report a true breakdown of their host time:
//! the four executor phases (net, sched, physics, parse) plus
//! `core.other_ns` sum to each flight's span. The fleet's phase totals
//! are summed over worker threads and can exceed wall time, so they are
//! reported only as `cd-fleet.phase_thread_sum_ns.*`, never as layer
//! self time.

use std::collections::BTreeMap;

use cd_fleet::Fleet;
use cd_obs::Registry;
use cd_orch::spec::OrchSpec;
use containerdrone_core::phase;
use containerdrone_core::prelude::*;
use rt_sched::SchedObs;
use sim_core::time::{SimDuration, SimTime};

use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::workloads::{fleet_out, flight_out, orch_out, Kind, OpOut, Produced, Workload};

/// Every per-layer metric, in report order. Metrics a workload does not
/// exercise report 0.
pub const PER_LAYER: [&str; 58] = [
    "rt-sched.self_ns",
    "rt-sched.quanta_stepped",
    "rt-sched.quanta_leaped",
    "rt-sched.leap_fraction",
    "rt-sched.leap_stops.target",
    "rt-sched.leap_stops.release",
    "rt-sched.leap_stops.event",
    "rt-sched.leap_stops.declined",
    "rt-sched.dispatch_recomputes",
    "rt-sched.dispatch_reuses",
    "rt-sched.deadline_skips",
    "rt-sched.step_ns",
    "rt-sched.leap_ns_per_quantum",
    "membw.quantum_ns",
    "membw.quantum_memguard_ns",
    "membw.replay_quantum_ns",
    "membw.throttle_events",
    "virt-net.self_ns",
    "virt-net.packets_sent",
    "virt-net.delivered",
    "virt-net.dropped_ratelimit",
    "virt-net.dropped_overflow",
    "virt-net.delivered_per_sent",
    "virt-net.send_step_ns",
    "virt-net.flood_span_ns",
    "mavlink-lite.self_ns",
    "mavlink-lite.frames_ok",
    "mavlink-lite.crc_errors",
    "mavlink-lite.bytes_skipped",
    "mavlink-lite.parse_ns_per_byte.clean",
    "mavlink-lite.parse_ns_per_byte.flooded",
    "mavlink-lite.encode_ns",
    "uav-dynamics.self_ns",
    "uav-dynamics.substep_ns",
    "uav-dynamics.imu_sample_ns",
    "attacks.flood_sent",
    "attacks.attack_packets",
    "core.setup_ns",
    "core.other_ns",
    "core.simplex_switches",
    "core.trace_overhead",
    "cd-fleet.window_ms_p50",
    "cd-fleet.window_ms_tail",
    "cd-fleet.shard_imbalance",
    "cd-fleet.gcs_packets",
    "cd-fleet.gcs_dropped",
    "cd-fleet.swarm_rx",
    "cd-fleet.swarm_jam_dropped",
    "cd-fleet.attacker_packets",
    "cd-fleet.phase_thread_sum_ns.net",
    "cd-fleet.phase_thread_sum_ns.sched",
    "cd-fleet.phase_thread_sum_ns.physics",
    "cd-fleet.phase_thread_sum_ns.parse",
    "cd-orch.retries",
    "cd-orch.worker_restarts",
    "cd-orch.frame_roundtrip_ns",
    "cd-orch.ledger_append_ns",
    "cd-orch.overhead_ratio",
];

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What the traced pass produced.
pub struct Traced {
    /// Host seconds of the traced counterpart of one timed pass (the
    /// in-process comparison run of `campaign-orch` excluded).
    pub host_s: f64,
    /// Its operations, checked like any timed pass.
    pub outs: Vec<OpOut>,
    /// Per-layer metrics it yields (layer rows and the trace overhead
    /// are added by the caller).
    pub metrics: Metrics,
    /// Accounting violations (a flight's phases exceeding its span).
    pub problems: Vec<String>,
}

fn add(m: &mut Metrics, name: &'static str, v: f64) {
    debug_assert!(PER_LAYER.contains(&name), "unknown metric {name}");
    *m.entry(name).or_insert(0.0) += v;
}

/// Sums the result-level counters every workload shares.
fn add_result(m: &mut Metrics, r: &ScenarioResult) {
    let stepped = r.sim_steps - r.quanta_leaped;
    add(m, "rt-sched.quanta_stepped", stepped as f64);
    add(m, "rt-sched.quanta_leaped", r.quanta_leaped as f64);
    let skips: u64 = r.task_report.iter().map(|(_, s)| s.skips).sum();
    add(m, "rt-sched.deadline_skips", skips as f64);
    add(m, "virt-net.packets_sent", r.net_packets_sent as f64);
    let s = r.rx_socket_stats;
    add(m, "virt-net.delivered", s.delivered as f64);
    add(m, "virt-net.dropped_ratelimit", s.dropped_ratelimit as f64);
    add(m, "virt-net.dropped_overflow", s.dropped_overflow as f64);
    let p = r.hce_parser_stats;
    add(m, "mavlink-lite.frames_ok", p.frames_ok as f64);
    add(m, "mavlink-lite.crc_errors", p.crc_errors as f64);
    add(m, "mavlink-lite.bytes_skipped", p.bytes_skipped as f64);
    add(m, "attacks.flood_sent", r.flood_sent as f64);
    add(m, "attacks.attack_packets", r.attack_packets as f64);
}

fn add_sched_obs(m: &mut Metrics, o: &SchedObs) {
    add(m, "rt-sched.leap_stops.target", o.leap_stops_target as f64);
    add(
        m,
        "rt-sched.leap_stops.release",
        o.leap_stops_release as f64,
    );
    add(m, "rt-sched.leap_stops.event", o.leap_stops_event as f64);
    add(
        m,
        "rt-sched.leap_stops.declined",
        o.leap_stops_declined as f64,
    );
    add(
        m,
        "rt-sched.dispatch_recomputes",
        o.dispatch_recomputes as f64,
    );
    add(m, "rt-sched.dispatch_reuses", o.dispatch_reuses as f64);
}

/// Books single-thread phase totals as layer self time.
fn add_phases(m: &mut Metrics, phase_ns: &[u64; phase::COUNT]) {
    add(m, "virt-net.self_ns", phase_ns[phase::NET] as f64);
    add(m, "rt-sched.self_ns", phase_ns[phase::SCHED] as f64);
    add(m, "uav-dynamics.self_ns", phase_ns[phase::PHYSICS] as f64);
    add(m, "mavlink-lite.self_ns", phase_ns[phase::PARSE] as f64);
}

/// Ratios derived once the sums are in.
fn finish_ratios(m: &mut Metrics) {
    let stepped = m["rt-sched.quanta_stepped"];
    let leaped = m["rt-sched.quanta_leaped"];
    if stepped + leaped > 0.0 {
        m.insert("rt-sched.leap_fraction", leaped / (stepped + leaped));
    }
    let delivered = m["virt-net.delivered"];
    let offered = delivered + m["virt-net.dropped_ratelimit"] + m["virt-net.dropped_overflow"];
    if offered > 0.0 {
        m.insert("virt-net.delivered_per_sent", delivered / offered);
    }
}

/// Runs the traced pass of `w`, recording spans into `spans`. The phase
/// clock must be installed by the caller.
pub fn traced_pass(w: &Workload, spans: &mut Spans) -> Traced {
    let mut metrics: Metrics = PER_LAYER.iter().map(|&n| (n, 0.0)).collect();
    let mut problems = Vec::new();
    let (outs, pass_ns) = match w.kind {
        Kind::PaperFigs | Kind::UdpFlood => flights(w, spans, &mut metrics, &mut problems),
        Kind::FleetSwarm => fleet(w, spans, &mut metrics),
        Kind::CampaignOrch => orch(w, spans, &mut metrics, &mut problems),
    };
    finish_ratios(&mut metrics);
    Traced {
        host_s: pass_ns as f64 / 1e9,
        outs,
        metrics,
        problems,
    }
}

fn flights(
    w: &Workload,
    spans: &mut Spans,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> (Vec<OpOut>, u64) {
    let mut outs = Vec::new();
    let mut pass_ns = 0;
    for (label, cfg) in w.flights() {
        let flight = spans.open("flight");
        let start = spans.open("Scenario::start");
        let mut run = Scenario::new(cfg.clone()).start();
        let setup_ns = spans.close(start);
        // One span per simulated second.
        let secs = cfg.duration.as_secs_f64().ceil() as u64;
        for k in 1..=secs {
            spans.time("RunningScenario::advance_to_leap", |_| {
                run.advance_to_leap(SimTime::from_secs(k))
            });
        }
        let obs = *run.vehicle().sched_obs();
        let switches = run.vehicle().simplex_switches();
        let result = spans.time("RunningScenario::finish", |_| run.finish());
        let flight_ns = spans.close(flight);
        pass_ns += flight_ns;

        let phases: u64 = result.phase_ns.iter().sum();
        if phases > flight_ns {
            problems.push(format!(
                "{label}: phases {phases} ns exceed the flight span {flight_ns} ns"
            ));
        }
        add(m, "core.setup_ns", setup_ns as f64);
        add(m, "core.other_ns", flight_ns.saturating_sub(phases) as f64);
        add(m, "core.simplex_switches", switches as f64);
        add_phases(m, &result.phase_ns);
        add_sched_obs(m, &obs);
        add_result(m, &result);
        outs.push(flight_out(label, &result));
    }
    (outs, pass_ns)
}

fn fleet(w: &Workload, spans: &mut Spans, m: &mut Metrics) -> (Vec<OpOut>, u64) {
    let cfg = w.fleet().expect("fleet workload");
    let registry = Registry::new();
    let pass = spans.open("fleet");
    let new = spans.open("Fleet::new");
    let mut fleet = Fleet::new(cfg.clone());
    let setup_ns = spans.close(new);
    fleet.attach_metrics(&registry);
    let shard_cost: Vec<_> = (0..cfg.threads)
        .map(|k| {
            registry.gauge(
                "cd_fleet_shard_cost_seconds",
                "",
                &[("shard", &k.to_string())],
            )
        })
        .collect();

    // One span per poll window, driven through the incremental form of
    // the batch executor so every vehicle's counters can be read after
    // the final window, before teardown.
    let poll = SimDuration::from_hz(cfg.gcs.poll_hz);
    let mut windows_ms = Vec::new();
    let mut imbalance = Vec::new();
    while !(0..fleet.n_vehicles()).all(|i| fleet.vehicle(i).done()) {
        let before = fleet.now();
        let id = spans.open("Fleet::run_until window");
        fleet.run_until(before + poll);
        windows_ms.push(spans.close(id) as f64 / 1e6);
        let costs: Vec<f64> = shard_cost.iter().map(|g| g.get()).collect();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        if mean > 0.0 {
            imbalance.push(costs.iter().copied().fold(0.0, f64::max) / mean);
        }
        assert!(
            fleet.now() > before,
            "a fleet window must advance the clock"
        );
    }
    for i in 0..fleet.n_vehicles() {
        let v = fleet.vehicle(i);
        add_sched_obs(m, v.sched_obs());
        add(m, "core.simplex_switches", v.simplex_switches() as f64);
    }
    let report = spans.time("Fleet::finish", |_| fleet.finish());
    let pass_ns = spans.close(pass);

    add(m, "core.setup_ns", setup_ns as f64);
    for o in &report.outcomes {
        add_result(m, &o.result);
        add(m, "cd-fleet.gcs_packets", o.gcs.packets as f64);
        add(m, "cd-fleet.gcs_dropped", o.gcs.dropped_ratelimit as f64);
        add(m, "cd-fleet.swarm_rx", o.swarm.rx_msgs as f64);
        add(m, "cd-fleet.swarm_jam_dropped", o.swarm.dropped_jam as f64);
    }
    // The airspace's own sends (GCS, swarm, attackers) on top of the
    // per-vehicle bridges summed by add_result.
    m.insert("virt-net.packets_sent", report.net_packets as f64);
    add(
        m,
        "cd-fleet.attacker_packets",
        report.attacker_packets as f64,
    );
    for (i, name) in [
        "cd-fleet.phase_thread_sum_ns.net",
        "cd-fleet.phase_thread_sum_ns.sched",
        "cd-fleet.phase_thread_sum_ns.physics",
        "cd-fleet.phase_thread_sum_ns.parse",
    ]
    .into_iter()
    .enumerate()
    {
        add(m, name, report.phase_ns[i] as f64);
    }
    add(
        m,
        "cd-fleet.window_ms_p50",
        median(&windows_ms).unwrap_or(0.0),
    );
    add(
        m,
        "cd-fleet.window_ms_tail",
        tail(&windows_ms).map_or(0.0, |t| t.value),
    );
    add(
        m,
        "cd-fleet.shard_imbalance",
        median(&imbalance).unwrap_or(0.0),
    );
    (vec![fleet_out(&report)], pass_ns)
}

fn orch(
    w: &Workload,
    spans: &mut Spans,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> (Vec<OpOut>, u64) {
    let produced_id = spans.open("orchestrator::run");
    let produced = w.run();
    let orch_ns = spans.close(produced_id);
    let outs = produced.outs();
    if let Produced::Orch(summary, _) = &produced {
        add(m, "cd-orch.retries", summary.retries as f64);
        add(m, "cd-orch.worker_restarts", summary.worker_restarts as f64);
    }

    // The same grid in-process on one thread: the denominator of the
    // orchestration overhead, and (phase clock on) a true single-thread
    // breakdown of the flights' host time.
    let campaign = OrchSpec::parse(w.orch_spec())
        .expect("generated spec parses")
        .campaign();
    let serial_id = spans.open("CampaignSpec::run_serial");
    let report = campaign.run_serial();
    let serial_ns = spans.close(serial_id);
    m.insert("cd-orch.overhead_ratio", orch_ns as f64 / serial_ns as f64);
    let mut phases_total = 0u64;
    for o in &report.outcomes {
        add_phases(m, &o.result.phase_ns);
        add_result(m, &o.result);
        phases_total += o.result.phase_ns.iter().sum::<u64>();
    }
    if phases_total > serial_ns {
        problems.push(format!(
            "orch-16 in-process: phases {phases_total} ns exceed the campaign span {serial_ns} ns"
        ));
    }
    add(
        m,
        "core.other_ns",
        serial_ns.saturating_sub(phases_total) as f64,
    );
    // The orchestrated stream is checked against the reference twin by
    // the caller; the in-process stream must match it byte for byte.
    let serial = orch_out(&report.jsonl_bytes(), None);
    if outs.first().map(|o| o.fingerprint) != Some(serial.fingerprint) {
        problems.push(
            "orch-16: in-process serial campaign differs from the orchestrated stream".into(),
        );
    }
    (outs, orch_ns)
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// The per-layer list here and in BENCHMARK.json must agree: the
    /// entry point reports exactly the names BENCHMARK.json declares.
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        let declared: Vec<&str> = section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        assert_eq!(declared, PER_LAYER.to_vec());
    }
}
