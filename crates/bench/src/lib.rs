//! Shared harness code for the table/figure regeneration binaries.
//!
//! Every evaluation artifact of the paper has a binary in `src/bin/`:
//!
//! | Binary | Artifact |
//! |--------|----------|
//! | `table1` | Table I — stream rates/sizes/ports |
//! | `table2` | Table II — per-core idle: native vs VM vs container |
//! | `fig4`   | Fig. 4 — memory DoS, MemGuard off (crash) |
//! | `fig5`   | Fig. 5 — memory DoS, MemGuard on (stable) |
//! | `fig6`   | Fig. 6 — complex controller killed (failover) |
//! | `fig7`   | Fig. 7 — UDP flood (failover) |
//! | `ablation_cpu` | CPU protection on/off |
//! | `ablation_comm` | iptables on/off under flood |
//! | `ablation_monitor` | monitor rules on/off |
//! | `ablation_memguard` | MemGuard budget sweep |
//! | `all`   | everything above, writing CSVs to `results/` |

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use containerdrone_core::runner::ScenarioResult;
use sim_core::time::SimTime;

pub mod campaign;
pub mod cli;

pub use campaign::{CampaignOutcome, CampaignReport, CampaignSpec};

/// Renders an ASCII table with a header row.
///
/// # Examples
///
/// ```
/// let t = cd_bench::ascii_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()]],
/// );
/// assert!(t.contains("| a"));
/// ```
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, cell) in widths.iter().zip(cells) {
            let _ = write!(s, " {cell:<w$} |");
        }
        s
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = String::new();
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Resolves the results directory from an optional `CD_RESULTS_DIR`
/// override value (empty counts as unset).
fn resolve_results_dir(overridden: Option<&str>) -> PathBuf {
    match overridden {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

/// The results directory (created on demand): `$CD_RESULTS_DIR` when set
/// and non-empty, otherwise `results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    let overridden = std::env::var("CD_RESULTS_DIR").ok();
    let dir = resolve_results_dir(overridden.as_deref());
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes `content` to `results/<name>` and reports the path on stdout.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write result file");
    println!("wrote {}", path.display());
}

/// Prints a rendered table and persists it as `results/<stem>.txt` — the
/// standard tail of every ablation/analysis binary.
pub fn emit_table(stem: &str, table: &str) {
    print!("{table}");
    write_result(&format!("{stem}.txt"), table);
}

/// The standard fleet timelines shared by the `fleet` campaign bin and
/// the perf harness's fleet rows, so both always measure the same cells.
pub mod fleet_timelines {
    use attacks::fleet::{FleetScript, FleetTarget};
    use attacks::membw_hog::BandwidthHog;
    use attacks::script::AttackEvent;
    use attacks::udp_flood::UdpFlood;
    use sim_core::time::{SimDuration, SimTime};

    /// A UDP flood that hops to the next vehicle every second, starting
    /// at 2 s.
    pub fn rolling_flood() -> FleetScript {
        FleetScript::new().at(
            SimTime::from_secs(2),
            FleetTarget::Rolling {
                period: SimDuration::from_secs(1),
            },
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
    }

    /// The rolling flood plus two targeted strikes: a memory hog on
    /// vehicle 10 at 3 s and a controller kill on vehicle 20 at 4 s.
    ///
    /// The strike targets sit outside the flood's first rotation windows
    /// so that, at N ≥ 25, the rolling `CeaseFire`s do not clip the hog
    /// (a `CeaseFire` halts *every* armed attack on its vehicle). On
    /// small fleets the modulo wrap folds the strikes onto early rotation
    /// victims and the hog runs only until that vehicle's next window
    /// boundary — an inherent property of attacking a small fleet with
    /// overlapping placements, not a measurement artifact.
    pub fn mixed() -> FleetScript {
        rolling_flood()
            .at(
                SimTime::from_secs(3),
                FleetTarget::Vehicle(10),
                AttackEvent::MemoryHog(BandwidthHog::isolbench()),
            )
            .at(
                SimTime::from_secs(4),
                FleetTarget::Vehicle(20),
                AttackEvent::KillComplex,
            )
    }

    /// A fleet-wide strike: a memory hog armed on every vehicle at 2 s
    /// and called off at 2.5 s. Every vehicle flies the same script, so
    /// the whole fleet shares one machine schedule per shard until the
    /// strike and every vehicle leaves its class when the hog arms — the
    /// cell where the shared-schedule leave path shows in the campaign
    /// CSV and trace.
    pub fn broadcast_strike() -> FleetScript {
        FleetScript::new()
            .at(
                SimTime::from_secs(2),
                FleetTarget::Broadcast,
                AttackEvent::MemoryHog(BandwidthHog::isolbench()),
            )
            .at(
                SimTime::from_millis(2500),
                FleetTarget::Broadcast,
                AttackEvent::CeaseFire,
            )
    }

    /// The adversarial-airspace campaign: external attacker nodes jam
    /// two swarm ports (vehicles 0 and 10, 2 s and 2.5 s) and flood one
    /// GCS uplink (vehicle 5 at 2 s, cease-fire at 4.5 s), over a fleet
    /// flying V2V coordination streams. Requires a fleet configured
    /// `.with_swarm(..)` — [`super::swarm_fleet_config`] assembles the
    /// whole cell.
    pub fn swarm_jam() -> FleetScript {
        FleetScript::new()
            .at(
                SimTime::from_secs(2),
                FleetTarget::SwarmJam(0),
                AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
            )
            .at(
                SimTime::from_millis(2500),
                FleetTarget::SwarmJam(10),
                AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
            )
            .at(
                SimTime::from_secs(2),
                FleetTarget::GcsUplink(5),
                AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
            )
            .at(
                SimTime::from_millis(4500),
                FleetTarget::GcsUplink(5),
                AttackEvent::CeaseFire,
            )
    }
}

/// The standard swarm-jam fleet cell shared by the `fleet` campaign bin
/// and the perf harness's `fleet-*-swarm-jam` rows: `n` vehicles flying
/// ring-topology V2V streams under the
/// [`fleet_timelines::swarm_jam`] external-attacker campaign.
pub fn swarm_fleet_config(
    base: containerdrone_core::scenario::ScenarioConfig,
    n: usize,
) -> cd_fleet::FleetConfig {
    cd_fleet::FleetConfig::new(base, n)
        .with_script(fleet_timelines::swarm_jam())
        .with_swarm(cd_fleet::SwarmConfig::default())
}

/// The standard campaign grid shared by the `campaign` speedup bin and
/// the perf harness: attacks × protections × seeds over a healthy base,
/// with half the variants scheduling **two** attacks (memory hog at 3 s,
/// then controller kill at 6 s) in a single run.
pub fn standard_grid(
    name: &str,
    duration: sim_core::time::SimDuration,
    seeds: &[u64],
) -> CampaignSpec {
    use attacks::membw_hog::BandwidthHog;
    use attacks::script::{AttackEvent, AttackScript};
    use containerdrone_core::scenario::ScenarioConfig;
    use containerdrone_core::Protections;
    use sim_core::time::SimTime;

    let base = ScenarioConfig::builder().duration(duration).build();
    let kill_only = AttackScript::single(SimTime::from_secs(3), AttackEvent::KillComplex);
    let hog_then_kill = AttackScript::new()
        .at(
            SimTime::from_secs(3),
            AttackEvent::MemoryHog(BandwidthHog::isolbench()),
        )
        .at(SimTime::from_secs(6), AttackEvent::KillComplex);
    let stock = Protections::default();
    let mut no_monitor = stock;
    no_monitor.monitor = false;
    CampaignSpec::product(
        name,
        &base,
        &[("kill", kill_only), ("hog+kill", hog_then_kill)],
        &[("stock", stock), ("no-monitor", no_monitor)],
        seeds,
    )
}

/// Prints the standard figure narration: outcome, switch, events, and the
/// X/Y/Z deviation profile the paper plots.
pub fn narrate_figure(title: &str, paper_expectation: &str, result: &ScenarioResult) {
    println!("── {title} ──");
    println!("paper: {paper_expectation}");
    print!("{}", result.summary());
    let end = SimTime::from_secs(30);
    for axis in ["x", "y", "z"] {
        let full = result
            .telemetry
            .max_tracking_error(axis, SimTime::from_secs(2), end);
        println!("max |{axis}_true − {axis}_sp| = {full:.3} m");
    }
    if let Some(at) = result.attack_onset {
        println!(
            "deviation before attack: {:.3} m | after: {:.3} m",
            result.max_deviation(SimTime::from_secs(2), at),
            result.max_deviation(at, end)
        );
    }
    println!();
}

/// Saves a figure's telemetry CSV under `results/`.
pub fn save_figure_csv(name: &str, result: &ScenarioResult) {
    write_result(name, &result.telemetry.to_csv());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_aligns_columns() {
        let t = ascii_table(
            &["col", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], lines[2], "separators match");
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "rectangular"
        );
        assert!(t.contains("| long-name |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ascii_table_validates_width() {
        let _ = ascii_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn results_dir_honours_env_override() {
        // The env-reading wrapper is exercised end-to-end by the bins;
        // the resolution rules are tested here without mutating
        // process-global state.
        assert_eq!(
            resolve_results_dir(Some("/tmp/cd-override")),
            Path::new("/tmp/cd-override")
        );
        assert!(resolve_results_dir(None).ends_with("results"));
        assert!(
            resolve_results_dir(Some("")).ends_with("results"),
            "empty override falls back to the default"
        );
    }
}
