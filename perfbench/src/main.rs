//! `perfbench` — the repository benchmark's measuring process.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//! perfbench setup --workload <name> --seed <n> --scratch <dir>
//! ```
//!
//! `run` makes the workload's inputs from the seed, runs one untimed
//! cold pass (its end marks the set-up time), then warm timed passes for
//! `--seconds`, then the reference twins, and checks every pass against
//! them. With `--trace 1` it adds one traced pass and the layer rows.
//! `setup` stops after the cold pass. Both print one JSON object as their
//! last line; `perfbench/run.py` combines them into the benchmark's
//! result. The process also serves as its own orchestrator worker
//! (`--worker`), so `campaign-orch` spawns nothing but itself.

// Wall time is what this binary measures; the repository's clippy.toml
// bans it for simulation code, which runs on the virtual clock.
#![allow(clippy::disallowed_methods)]

mod layers;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use cd_bench::cli::Args;
use containerdrone_core::phase;
use containerdrone_core::runner::Scenario;

use spans::Spans;
use workloads::{Kind, OpOut, Workload};

/// Timed passes a run makes even when `--seconds` runs out first.
const MIN_PASSES: usize = 5;

/// A representative merged-stream record (the payload of the frame and
/// ledger layer rows).
const ORCH_RECORD: &[u8] = b"{\"variant\":\"kill/no-iptables/seed2019\",\"seed\":2019,\
\"outcome\":\"stable\",\"crashed\":false,\"switch_s\":3.002,\"max_deviation_m\":0.0611,\
\"sim_steps\":200000,\"quanta_leaped\":171206,\"net_packets\":7203}\n";

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds for the program's opt-in phase clock.
fn phase_clock() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    corrupt_reference: bool,
}

fn parse(args: &Args) -> Result<Opts, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or_else(|| {
        let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = match args.value("--seed") {
        Some(v) => v.parse().map_err(|e| format!("--seed: {e}"))?,
        None => workloads::DEFAULT_SEED,
    };
    let seconds: f64 = args
        .value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let scratch = PathBuf::from(args.value("--scratch").ok_or("--scratch is required")?);
    Ok(Opts {
        kind,
        seed,
        seconds,
        trace,
        scratch,
        corrupt_reference: args.has("--corrupt-reference"),
    })
}

/// One pass: host seconds of the timed work, quanta simulated, and the
/// outputs reduced after the clock stopped.
struct Pass {
    host_s: f64,
    steps: u64,
    outs: Vec<OpOut>,
}

fn timed_pass(w: &Workload) -> Result<Pass, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let produced = w.run();
        let host_s = started.elapsed().as_secs_f64();
        Pass {
            host_s,
            steps: produced.steps(),
            outs: produced.outs(),
        }
    }))
    .map_err(|e| panic_text(&e))
}

fn panic_text(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Process peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks and counts every operation.
#[derive(Default)]
struct Checker {
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    /// Compares one pass's outputs with the reference twins (by label)
    /// and its counts with the first pass's.
    fn pass(&mut self, what: &str, outs: &[OpOut], reference: &[OpOut], first: &[OpOut]) {
        for out in outs {
            self.attempted += 1;
            match reference.iter().find(|r| r.label == out.label) {
                Some(r) if r.fingerprint == out.fingerprint => {}
                Some(_) => self.failures.push(format!(
                    "{what}: {} differs from its reference twin",
                    out.label
                )),
                None => self
                    .failures
                    .push(format!("{what}: {} has no reference twin", out.label)),
            }
            if let Some(f) = first.iter().find(|f| f.label == out.label) {
                for (key, v) in &out.counts {
                    if f.counts.get(key) != Some(v) {
                        self.failures.push(format!(
                            "{what}: {} count {key} = {v} drifted from {:?} (determinism bug)",
                            out.label,
                            f.counts.get(key)
                        ));
                    }
                }
            }
        }
    }

    fn fail(&mut self, text: String) {
        self.attempted += 1;
        self.failures.push(text);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_map<'a>(entries: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Total and self time per span name, in order of first appearance.
fn print_span_summary(spans: &Spans) {
    let mut names: Vec<&str> = Vec::new();
    for s in spans.all() {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    println!(
        "  {:<40} {:>6} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for name in names {
        let count = spans.all().iter().filter(|s| s.name == name).count();
        let (total, own) = spans.totals(name);
        println!(
            "  {name:<40} {count:>6} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    EPOCH.get_or_init(Instant::now);
    let args = Args::parse();
    if args.has("--worker") {
        let code = cd_orch::worker::worker_main(cd_orch::InjectConfig::default(), 0);
        return ExitCode::from(code as u8);
    }
    let mode = std::env::args().nth(1).unwrap_or_default();
    if mode != "run" && mode != "setup" {
        eprintln!("usage: perfbench run|setup --workload <name> --seed <n> --seconds <s> --trace <0|1> --scratch <dir>");
        return ExitCode::from(2);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("perfbench: {}: {e}", opts.scratch.display());
        return ExitCode::from(2);
    }

    // Set-up: inputs, construction, and the cold first pass.
    let workload = Workload::generate(opts.kind, opts.seed, &opts.scratch);
    let cold = timed_pass(&workload);
    let setup_s = started.elapsed().as_secs_f64();
    if mode == "setup" {
        return match cold {
            Ok(_) => {
                println!("{}", json_map([("setup_s", json_num(setup_s))]));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: cold pass panicked: {e}");
                ExitCode::from(1)
            }
        };
    }
    run(opts, workload, cold, setup_s)
}

fn run(opts: Opts, workload: Workload, cold: Result<Pass, String>, setup_s: f64) -> ExitCode {
    let name = opts.kind.name();
    let mut check = Checker::default();
    let mut passes: Vec<Pass> = Vec::new();
    let cold = match cold {
        Ok(p) => Some(p),
        Err(e) => {
            check.fail(format!("cold pass panicked: {e}"));
            None
        }
    };

    // Warm timed passes; outputs are reduced between passes, outside
    // the timed region, and checked once the references exist.
    let loop_start = Instant::now();
    if cold.is_some() {
        while passes.len() < MIN_PASSES || loop_start.elapsed().as_secs_f64() < opts.seconds {
            match timed_pass(&workload) {
                Ok(p) => passes.push(p),
                Err(e) => {
                    check.fail(format!("pass {} panicked: {e}", passes.len() + 1));
                    break;
                }
            }
        }
    }
    let peak_rss = peak_rss_mb();

    // Reference twins, computed after the timed passes so they touch
    // neither the timings nor the peak RSS.
    let mut reference = match catch_unwind(AssertUnwindSafe(|| workload.reference())) {
        Ok(r) => r,
        Err(e) => {
            check.fail(format!("reference twin panicked: {}", panic_text(&e)));
            Vec::new()
        }
    };
    if opts.corrupt_reference {
        if let Some(r) = reference.first_mut() {
            r.fingerprint ^= 1;
        }
    }
    let first: Vec<OpOut> = cold.as_ref().map(|c| c.outs.clone()).unwrap_or_default();
    if let Some(c) = &cold {
        check.pass("cold pass", &c.outs, &reference, &first);
    }
    for (i, p) in passes.iter().enumerate() {
        check.pass(&format!("pass {}", i + 1), &p.outs, &reference, &first);
    }
    for (fig, cfg) in workloads::golden_figures(opts.kind) {
        let csv = Scenario::new(cfg).run().telemetry.to_csv();
        check.attempted += 1;
        match workloads::golden_csv(fig) {
            Ok(g) if g == csv => {}
            Ok(_) => check.failures.push(format!(
                "{fig} at the default seed differs from tests/golden/{fig}.csv"
            )),
            Err(e) => check
                .failures
                .push(format!("tests/golden/{fig}.csv unreadable: {e}")),
        }
    }

    let pass_s: Vec<f64> = passes.iter().map(|p| p.host_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.steps as f64 / p.host_s).collect();
    let median_pass = stats::median(&pass_s).unwrap_or(f64::NAN);
    let tail = stats::tail(&pass_s);
    // The rate nine passes in ten reach. On a shared host the share of
    // passes slowed by other tenants shifts from run to run, and the
    // median pass sits where the fast and the slow passes meet, so it
    // swung far more between runs than the lower decile of the rates.
    let sustained_rate = stats::lower_decile(&rates).unwrap_or(f64::NAN);
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("steps_per_s", sustained_rate);
    e2e.insert("pass_s_tail", tail.map_or(f64::NAN, |t| t.value));
    e2e.insert("setup_s", setup_s);
    e2e.insert("peak_rss_mb", peak_rss);

    let mut layers: Option<trace::Metrics> = None;
    let mut spans = Spans::new(*EPOCH.get().expect("set in main"));
    if opts.trace && check.failures.is_empty() {
        spans.set_pass(1);
        phase::install_clock(phase_clock);
        let traced = catch_unwind(AssertUnwindSafe(|| {
            trace::traced_pass(&workload, &mut spans)
        }));
        phase::uninstall_clock();
        match traced {
            Ok(mut t) => {
                check.pass("traced pass", &t.outs, &reference, &first);
                for p in t.problems.drain(..) {
                    check.fail(p);
                }
                spans.set_pass(2);
                for (k, v) in layers::run_all(&mut spans, ORCH_RECORD, &opts.scratch) {
                    t.metrics.insert(k, v);
                }
                t.metrics
                    .insert("core.trace_overhead", t.host_s / median_pass - 1.0);
                layers = Some(t.metrics);
            }
            Err(e) => check.fail(format!("traced pass panicked: {}", panic_text(&e))),
        }
        let path = opts
            .scratch
            .join(format!("spans-{name}-seed{}.jsonl", opts.seed));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    // Human-readable report, then the machine line.
    let threads = workloads::parallelism(opts.kind);
    println!(
        "perfbench {name}: seed {} | {} timed passes | threads/workers {threads} | nproc {}",
        opts.seed,
        passes.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if let Some(t) = tail {
        println!(
            "  pass_s median {median_pass:.4} | p{} {:.4} over {} passes | spread {:.4} | steps/s median {:.4e}, lower decile {sustained_rate:.4e}",
            t.percentile,
            t.value,
            t.samples,
            stats::spread(&pass_s).unwrap_or(0.0),
            stats::median(&rates).unwrap_or(f64::NAN)
        );
    }
    if opts.trace {
        print_span_summary(&spans);
    }
    for f in &check.failures {
        println!("  FAILED: {f}");
    }
    let failed = check.failures.len() as u64;
    let counts = first.iter().flat_map(|o| {
        o.counts
            .iter()
            .map(move |(k, v)| (format!("{}.{k}", o.label), v.to_string()))
    });
    let counts: Vec<(String, String)> = counts.collect();
    let mut fields = vec![
        ("workload", json_str(name)),
        ("seed", opts.seed.to_string()),
        ("threads", threads.to_string()),
        ("passes", passes.len().to_string()),
        (
            "pass_s",
            format!(
                "[{}]",
                pass_s
                    .iter()
                    .map(|v| json_num(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("correct", (failed == 0).to_string()),
        ("attempted", check.attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        (
            "failures",
            format!(
                "[{}]",
                check
                    .failures
                    .iter()
                    .map(|f| json_str(f))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("e2e", json_map(e2e.iter().map(|(k, v)| (*k, json_num(*v))))),
        (
            "tail",
            json_map([
                ("percentile", tail.map_or(0, |t| t.percentile).to_string()),
                ("samples", pass_s.len().to_string()),
            ]),
        ),
        (
            "counts",
            json_map(counts.iter().map(|(k, v)| (k.as_str(), v.clone()))),
        ),
    ];
    if let Some(m) = &layers {
        fields.push((
            "layers",
            json_map(m.iter().map(|(k, v)| (*k, json_num(*v)))),
        ));
    }
    println!("{}", json_map(fields));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
