//! Fleet campaign: shared-airspace scaling and resilience in one sweep.
//!
//! Sweeps fleet size N ∈ {1, 5, 25, 100} against five fleet timelines:
//! healthy, a rolling-victim UDP flood, a mixed campaign (rolling flood
//! plus targeted memory hog plus targeted controller kill), the
//! adversarial-airspace swarm-jam campaign (V2V coordination streams
//! with external attacker nodes flooding a GCS uplink and jamming swarm
//! ports), and a fleet-wide memory-hog strike (every vehicle leaves its
//! shared machine schedule when the hog arms). Reports per-cell crash/switch/deadline-miss outcomes plus
//! the steps/sec scaling of the co-simulation itself. Per-vehicle rows
//! for every cell land in `results/fleet_campaign.csv`.
//!
//! ```text
//! cargo run --release -p cd-bench --bin fleet                        # full sweep
//! cargo run --release -p cd-bench --bin fleet -- --smoke             # CI smoke
//! cargo run --release -p cd-bench --bin fleet -- --threads 4 --big   # sharded, N up to 1000
//! ```
//!
//! `--threads T` runs every cell on the sharded parallel executor (the
//! reports are byte-identical at any thread count); `--big` appends the
//! swarm-scale N = 1000 cell to the sweep; `--no-leap` runs every cell
//! on the quantum-stepped reference executor instead of the time-leap
//! default — the emitted CSV must be byte-identical either way (CI
//! diffs the two, after stripping the executor-stat columns);
//! `--no-bulk` settles every network flood span packet-by-packet
//! instead of in closed form — the CSV must be byte-identical with no
//! columns stripped (bulk changes no counter, not even the executor
//! stats; CI diffs the full files); `--no-share` makes every vehicle
//! advance its own machine instead of sharing one machine schedule per
//! class of identical vehicles — CSV and trace must be byte-identical
//! with no columns stripped (CI diffs both at 1 and 2 threads).
//!
//! Observability: `--trace events.jsonl` streams the deterministic
//! structured trace of every cell (concatenated in sweep order —
//! byte-identical at any `--threads`, CI diffs 1 vs 2);
//! `--metrics-addr 127.0.0.1:9464` serves live Prometheus text
//! exposition for the whole sweep.

use std::fmt::Write as _;

use attacks::fleet::FleetScript;
use cd_bench::cli::Args;
use cd_bench::{ascii_table, emit_table, write_result};
use cd_fleet::{Fleet, FleetConfig, SwarmConfig};
use cd_obs::{Registry, TraceSink};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::SimDuration;

/// The five fleet timelines of the sweep (shared with the perf
/// harness's fleet rows via [`cd_bench::fleet_timelines`]), plus
/// whether the cell flies V2V coordination streams — the swarm-jam
/// campaign needs a swarm to jam (the same cell
/// [`cd_bench::swarm_fleet_config`] assembles for the perf rows).
fn timelines() -> Vec<(&'static str, FleetScript, bool)> {
    vec![
        ("healthy", FleetScript::none(), false),
        ("flood", cd_bench::fleet_timelines::rolling_flood(), false),
        ("mixed", cd_bench::fleet_timelines::mixed(), false),
        ("swarm-jam", cd_bench::fleet_timelines::swarm_jam(), true),
        (
            "strike",
            cd_bench::fleet_timelines::broadcast_strike(),
            false,
        ),
    ]
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("--smoke");
    let threads: usize = args.parsed("--threads").unwrap_or(1);
    let leap = !args.has("--no-leap");
    let bulk = !args.has("--no-bulk");
    let share = !args.has("--no-share");
    // One trace file for the whole sweep: each cell appends through its
    // own sink over a cloned handle (cells run sequentially, and every
    // sink is flushed at its fleet's teardown).
    let trace_file = args
        .value("--trace")
        .map(|path| std::fs::File::create(path).unwrap_or_else(|e| panic!("--trace {path}: {e}")));
    let registry = std::sync::Arc::new(Registry::new());
    let _server = args.value("--metrics-addr").map(|addr| {
        cd_obs::server::serve(std::sync::Arc::clone(&registry), addr)
            .unwrap_or_else(|e| panic!("--metrics-addr {addr}: {e}"))
    });
    // Smoke keeps the flights just long enough (3 s) that the rolling
    // flood's 2 s onset actually fires.
    let (mut sizes, duration): (Vec<usize>, SimDuration) = if smoke {
        (vec![1, 5], SimDuration::from_secs(3))
    } else {
        (vec![1, 5, 25, 100], SimDuration::from_secs(8))
    };
    if args.has("--big") {
        sizes.push(1000);
    }
    println!(
        "Fleet campaign — N ∈ {sizes:?} × {{healthy, flood, mixed, swarm-jam, strike}}, {}s flights, {threads} thread(s){}{}\n",
        duration.as_secs_f64(),
        if smoke { " (smoke)" } else { "" },
        if leap { "" } else { ", stepped reference executor" },
    );
    if !bulk {
        println!("(--no-bulk: per-packet flood-span settlement)\n");
    }
    if !share {
        println!("(--no-share: every vehicle advances its own machine)\n");
    }

    let base = ScenarioConfig::healthy().with_duration(duration);
    let mut rows = Vec::new();
    // Per-row executor stats (quanta_leaped/quanta_stepped) are appended
    // here, outside FleetReport::CSV_HEADER — the report's own CSV stays
    // byte-identical across executors, which the equivalence pins rely on.
    let mut csv = format!(
        "timeline,n,{},quanta_leaped,quanta_stepped\n",
        cd_fleet::FleetReport::CSV_HEADER
    );
    for (label, script, swarm) in timelines() {
        for &n in &sizes {
            let mut cfg = FleetConfig::new(base.clone(), n)
                .with_script(script.clone())
                .with_threads(threads)
                .with_leap(leap)
                .with_bulk(bulk)
                .with_shared_sched(share);
            if swarm {
                cfg = cfg.with_swarm(SwarmConfig::default());
            }
            let mut fleet = Fleet::new(cfg);
            if let Some(file) = &trace_file {
                let clone = file.try_clone().expect("clone trace file handle");
                fleet.attach_trace(TraceSink::new(Box::new(std::io::BufWriter::new(clone))));
            }
            if args.has("--metrics-addr") {
                fleet.attach_metrics(&registry);
            }
            let report = fleet.run();
            let wall = report.wall_clock.as_secs_f64();
            let steps_per_sec = report.sim_steps as f64 / wall.max(1e-9);
            rows.push(vec![
                label.to_string(),
                n.to_string(),
                report.crashes().to_string(),
                report.switches().to_string(),
                report.total_deadline_skips().to_string(),
                report
                    .outcomes
                    .iter()
                    .filter(|o| o.verdict() == "stable")
                    .count()
                    .to_string(),
                format!("{:.2}", wall),
                format!("{:.2e}", steps_per_sec),
                report.net_packets.to_string(),
                report.attacker_packets.to_string(),
            ]);
            // Per-vehicle rows, prefixed with the cell coordinates and
            // suffixed with that vehicle's executor stats.
            for (line, o) in report.to_csv().lines().skip(1).zip(&report.outcomes) {
                let _ = writeln!(
                    csv,
                    "{label},{n},{line},{},{}",
                    o.result.quanta_leaped,
                    o.result.sim_steps - o.result.quanta_leaped
                );
            }
        }
    }

    let table = ascii_table(
        &[
            "timeline",
            "N",
            "crashes",
            "switches",
            "deadline skips",
            "stable",
            "wall (s)",
            "steps/s",
            "packets",
            "attacker pkts",
        ],
        &rows,
    );
    emit_table("fleet_campaign", &table);
    write_result("fleet_campaign.csv", &csv);
}
