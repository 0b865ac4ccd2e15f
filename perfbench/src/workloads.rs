//! The four workloads: inputs made from the workload seed, one pass of
//! each, its reference twin, and the reduction of every output to what
//! the correctness and exact-repeat checks compare.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cd_fleet::{Fleet, FleetConfig, FleetReport};
use cd_orch::orchestrator::{self, OrchOptions, OrchSummary};
use containerdrone_core::prelude::*;
use sim_core::time::SimDuration;

/// The workload seed whose flights are the paper's own figure
/// configurations: at this seed the fig4–7 telemetry must equal the
/// committed goldens.
pub const DEFAULT_SEED: u64 = 2019;

/// Fleet size of `fleet-swarm`.
pub const FLEET_VEHICLES: usize = 100;
/// Executor threads of `fleet-swarm` (never more than `nproc`).
pub const FLEET_THREADS: usize = 2;
/// Worker processes of `campaign-orch` (never more than `nproc`).
pub const ORCH_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperFigs,
    UdpFlood,
    FleetSwarm,
    CampaignOrch,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PaperFigs,
        Kind::UdpFlood,
        Kind::FleetSwarm,
        Kind::CampaignOrch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperFigs => "paper-figs",
            Kind::UdpFlood => "udp-flood",
            Kind::FleetSwarm => "fleet-swarm",
            Kind::CampaignOrch => "campaign-orch",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The threads or worker processes a workload runs on, capped at the
/// host's parallelism.
pub fn parallelism(kind: Kind) -> usize {
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    match kind {
        Kind::PaperFigs | Kind::UdpFlood => 1,
        Kind::FleetSwarm => FLEET_THREADS.min(cap),
        Kind::CampaignOrch => ORCH_WORKERS.min(cap),
    }
}

/// One checked operation (a flight, a fleet run or an orchestration),
/// reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOut {
    pub label: String,
    /// Hash of every simulated output; executor counters are excluded so
    /// the quantum-stepped reference twin hashes the same.
    pub fingerprint: u64,
    /// Counts that must repeat exactly from pass to pass and run to run.
    pub counts: BTreeMap<String, u64>,
}

/// The generated inputs of one workload.
pub struct Workload {
    pub kind: Kind,
    inputs: Inputs,
}

enum Inputs {
    Flights(Vec<(String, ScenarioConfig)>),
    Fleet(Box<FleetConfig>),
    Orch(OrchInputs),
}

struct OrchInputs {
    spec: String,
    out: PathBuf,
    ledger: PathBuf,
}

/// What the timed part of a pass produced; reduced to [`OpOut`]s after
/// the clock stops.
pub enum Produced {
    Flights(Vec<(String, ScenarioResult)>),
    Fleet(Box<FleetReport>),
    Orch(OrchSummary, Vec<u8>),
}

impl Workload {
    /// Makes the workload's inputs from `seed`. Orchestration files live
    /// under `scratch`.
    pub fn generate(kind: Kind, seed: u64, scratch: &Path) -> Workload {
        let inputs = match kind {
            Kind::PaperFigs => Inputs::Flights(
                [
                    ("healthy", ScenarioConfig::healthy()),
                    ("fig4", ScenarioConfig::fig4()),
                    ("fig5", ScenarioConfig::fig5()),
                    ("fig6", ScenarioConfig::fig6()),
                ]
                .into_iter()
                .map(|(name, cfg)| (format!("{name}/seed{seed}"), cfg.with_seed(seed)))
                .collect(),
            ),
            Kind::UdpFlood => Inputs::Flights(
                udp_flood_seeds(seed)
                    .into_iter()
                    .map(|s| (format!("fig7/seed{s}"), ScenarioConfig::fig7().with_seed(s)))
                    .collect(),
            ),
            Kind::FleetSwarm => {
                let base = ScenarioConfig::healthy()
                    .with_duration(SimDuration::from_secs(5))
                    .with_seed(seed);
                Inputs::Fleet(Box::new(
                    cd_bench::swarm_fleet_config(base, FLEET_VEHICLES)
                        .with_threads(parallelism(kind)),
                ))
            }
            Kind::CampaignOrch => Inputs::Orch(OrchInputs {
                spec: orch_spec(seed),
                out: scratch.join(format!("orch-seed{seed}.jsonl")),
                ledger: scratch.join(format!("orch-seed{seed}.ledger")),
            }),
        };
        Workload { kind, inputs }
    }

    /// The campaign spec text of `campaign-orch` (empty otherwise).
    pub fn orch_spec(&self) -> &str {
        match &self.inputs {
            Inputs::Orch(o) => &o.spec,
            _ => "",
        }
    }

    /// The flight configurations of a single-vehicle workload.
    pub fn flights(&self) -> &[(String, ScenarioConfig)] {
        match &self.inputs {
            Inputs::Flights(f) => f,
            _ => &[],
        }
    }

    /// The fleet configuration of `fleet-swarm`.
    pub fn fleet(&self) -> Option<&FleetConfig> {
        match &self.inputs {
            Inputs::Fleet(f) => Some(f),
            _ => None,
        }
    }

    /// The timed work of one pass, exactly as a user runs it.
    pub fn run(&self) -> Produced {
        match &self.inputs {
            Inputs::Flights(flights) => Produced::Flights(
                flights
                    .iter()
                    .map(|(label, cfg)| (label.clone(), Scenario::new(cfg.clone()).run()))
                    .collect(),
            ),
            Inputs::Fleet(cfg) => Produced::Fleet(Box::new(Fleet::new((**cfg).clone()).run())),
            Inputs::Orch(o) => {
                let summary = orchestrator::run(&self.orch_options(o)).expect("orchestration");
                let merged = std::fs::read(&o.out).expect("merged stream");
                Produced::Orch(summary, merged)
            }
        }
    }

    fn orch_options(&self, o: &OrchInputs) -> OrchOptions {
        let mut opts = OrchOptions::new(o.spec.clone(), o.out.clone(), o.ledger.clone());
        opts.workers = parallelism(self.kind);
        opts.worker_exe = std::env::current_exe().expect("own executable path");
        opts
    }

    /// The reference twin of every operation: the quantum-stepped
    /// executor for flights and fleets, the in-process campaign for the
    /// orchestrator.
    pub fn reference(&self) -> Vec<OpOut> {
        match &self.inputs {
            Inputs::Flights(flights) => flights
                .iter()
                .map(|(label, cfg)| flight_out(label, &Scenario::new(cfg.clone()).run_stepped()))
                .collect(),
            Inputs::Fleet(cfg) => {
                vec![fleet_out(
                    &Fleet::new((**cfg).clone().with_leap(false)).run(),
                )]
            }
            Inputs::Orch(o) => {
                let bytes = orchestrator::reference_bytes(&o.spec).expect("reference campaign");
                vec![orch_out(&bytes, None)]
            }
        }
    }
}

impl Produced {
    /// Simulated scheduler quanta summed over vehicles.
    pub fn steps(&self) -> u64 {
        match self {
            Produced::Flights(f) => f.iter().map(|(_, r)| r.sim_steps).sum(),
            Produced::Fleet(r) => r.sim_steps,
            Produced::Orch(_, merged) => {
                sum_jsonl_field(&String::from_utf8_lossy(merged), "sim_steps")
            }
        }
    }

    pub fn outs(&self) -> Vec<OpOut> {
        match self {
            Produced::Flights(f) => f.iter().map(|(l, r)| flight_out(l, r)).collect(),
            Produced::Fleet(r) => vec![fleet_out(r)],
            Produced::Orch(summary, merged) => vec![orch_out(merged, Some(summary))],
        }
    }
}

/// Seeds of the two `udp-flood` flights: the workload seed itself (so
/// the default seed flies the golden fig7) and one derived from it.
pub fn udp_flood_seeds(seed: u64) -> [u64; 2] {
    [seed, splitmix(seed)]
}

/// The `orch-16` grid of the perf harness (attacks none/kill × four
/// protection sets × two seeds, 10 s flights), seeded from the workload
/// seed.
pub fn orch_spec(seed: u64) -> String {
    format!(
        "name: orch-16\nduration_ms: 10000\nseeds: {seed} {}\nattacks: none kill\n\
         protections: stock no-monitor no-iptables bare\n",
        splitmix(seed)
    )
}

/// One SplitMix64 step, folded into the 31-bit range so derived seeds
/// stay readable in labels.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0x7FFF_FFFF
}

/// FNV-1a, 64-bit: a stable hash for output fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of every simulated output of one flight: the telemetry CSV
/// plus each field the leap-equivalence tests compare.
pub fn flight_fingerprint(r: &ScenarioResult) -> u64 {
    let fields = format!(
        "{:?}",
        (
            &r.crash,
            &r.switch_time,
            &r.monitor_events,
            &r.attack_log,
            &r.idle_rates,
            &r.hce_parser_stats,
            &r.rx_socket_stats,
            (r.flood_sent, r.attack_packets, r.heartbeats_received),
            (r.sim_steps, r.net_packets_sent),
            &r.task_report,
        )
    );
    Fnv::new()
        .write(r.telemetry.to_csv().as_bytes())
        .write(fields.as_bytes())
        .finish()
}

fn flight_counts(r: &ScenarioResult) -> BTreeMap<String, u64> {
    let p = r.hce_parser_stats;
    let s = r.rx_socket_stats;
    [
        ("sim_steps", r.sim_steps),
        ("quanta_leaped", r.quanta_leaped),
        ("net_packets_sent", r.net_packets_sent),
        ("flood_sent", r.flood_sent),
        ("attack_packets", r.attack_packets),
        ("frames_ok", p.frames_ok),
        ("crc_errors", p.crc_errors),
        ("bytes_skipped", p.bytes_skipped),
        ("delivered", s.delivered),
        ("dropped_ratelimit", s.dropped_ratelimit),
        ("dropped_overflow", s.dropped_overflow),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

pub fn flight_out(label: &str, r: &ScenarioResult) -> OpOut {
    OpOut {
        label: label.to_string(),
        fingerprint: flight_fingerprint(r),
        counts: flight_counts(r),
    }
}

pub fn fleet_out(r: &FleetReport) -> OpOut {
    let mut h = Fnv::new();
    h.write(r.to_csv().as_bytes()).write(
        format!(
            "{:?}",
            (r.sim_steps, r.net_packets, r.attacker_packets, r.duration)
        )
        .as_bytes(),
    );
    for o in &r.outcomes {
        h.write(&flight_fingerprint(&o.result).to_le_bytes());
    }
    let counts = [
        ("sim_steps", r.sim_steps),
        ("quanta_leaped", r.quanta_leaped),
        ("net_packets", r.net_packets),
        ("attacker_packets", r.attacker_packets),
        (
            "gcs_packets",
            r.outcomes.iter().map(|o| o.gcs.packets).sum(),
        ),
        ("swarm_rx", r.outcomes.iter().map(|o| o.swarm.rx_msgs).sum()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    OpOut {
        label: format!("fleet-n{}", r.outcomes.len()),
        fingerprint: h.finish(),
        counts,
    }
}

/// The merged stream's hash. Retries and restarts are liveness events,
/// not simulated outputs, so only the settled-run counts must repeat.
pub fn orch_out(merged: &[u8], summary: Option<&OrchSummary>) -> OpOut {
    let text = String::from_utf8_lossy(merged);
    let mut counts: BTreeMap<String, u64> = [
        ("records", text.lines().count() as u64),
        ("sim_steps", sum_jsonl_field(&text, "sim_steps")),
        ("quanta_leaped", sum_jsonl_field(&text, "quanta_leaped")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if let Some(s) = summary {
        counts.insert("completed".into(), s.completed as u64);
        counts.insert("quarantined".into(), s.failed as u64);
    }
    OpOut {
        label: "orch-16".to_string(),
        fingerprint: Fnv::new().write(merged).finish(),
        counts,
    }
}

/// Sums every integer field `"field":` in a JSONL stream.
pub fn sum_jsonl_field(jsonl: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let mut total = 0u64;
    let mut rest = jsonl;
    while let Some(at) = rest.find(&key) {
        rest = &rest[at + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        total += rest[..end].trim().parse::<u64>().unwrap_or(0);
    }
    total
}

/// The committed golden CSV for `fig` (`"fig4"` … `"fig7"`).
pub fn golden_csv(fig: &str) -> std::io::Result<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../tests/golden")
        .join(format!("{fig}.csv"));
    std::fs::read_to_string(path)
}

/// The paper-figure configurations at the default seed whose telemetry
/// is pinned by a golden, for the figures a workload flies.
pub fn golden_figures(kind: Kind) -> Vec<(&'static str, ScenarioConfig)> {
    match kind {
        Kind::PaperFigs => vec![
            ("fig4", ScenarioConfig::fig4()),
            ("fig5", ScenarioConfig::fig5()),
            ("fig6", ScenarioConfig::fig6()),
        ],
        Kind::UdpFlood => vec![("fig7", ScenarioConfig::fig7())],
        Kind::FleetSwarm | Kind::CampaignOrch => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let dir = std::env::temp_dir();
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 11, &dir);
            let b = Workload::generate(kind, 11, &dir);
            let labels = |w: &Workload| {
                w.flights()
                    .iter()
                    .map(|(l, c)| format!("{l}:{}", c.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(labels(&a), labels(&b));
            assert_eq!(a.orch_spec(), b.orch_spec());
            assert_eq!(
                a.fleet().map(|f| f.base.seed),
                b.fleet().map(|f| f.base.seed)
            );
        }
        assert_ne!(orch_spec(1), orch_spec(2));
        assert_eq!(udp_flood_seeds(DEFAULT_SEED)[0], DEFAULT_SEED);
    }

    #[test]
    fn default_seed_flies_the_paper_configurations() {
        let w = Workload::generate(Kind::PaperFigs, DEFAULT_SEED, &std::env::temp_dir());
        assert_eq!(w.flights()[1].1.seed, ScenarioConfig::fig4().seed);
    }

    #[test]
    fn jsonl_field_sums() {
        let s = "{\"sim_steps\":3,\"x\":1}\n{\"sim_steps\":4}\n";
        assert_eq!(sum_jsonl_field(s, "sim_steps"), 7);
        assert_eq!(sum_jsonl_field(s, "missing"), 0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
