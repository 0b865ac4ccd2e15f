//! Layer rows: tight loops over one public kernel each, timed from
//! outside. The inputs are those of the criterion benches in
//! `crates/bench/benches/{substrates,protocol}.rs` (the loaded 4-core
//! taskset, the regulated and unregulated DRAM demand vector, clean and
//! flooded 400-frame streams, a 1000-datagram send) plus the fig7 flood
//! shape and a typical orchestrator record.
//!
//! Every row repeats a fixed amount of work and reports the median
//! nanoseconds per operation over its repetitions, so the work done (and
//! any count a row reports) is the same on every run.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mavlink_lite::prelude::*;
use membw::prelude::*;
use rt_sched::prelude::*;
use sim_core::time::{SimDuration, SimTime};
use uav_dynamics::prelude::*;
use virt_net::prelude::*;

use crate::spans::Spans;
use crate::stats::median;

/// Repetitions per row; the median of these is reported.
const REPS: usize = 7;

/// `(metric name, value)` rows, in a fixed order.
pub type Rows = Vec<(&'static str, f64)>;

/// Times `run` on a fresh `setup()` value `REPS` times; `run` returns
/// the number of operations it performed. Returns median ns/op.
fn per_op<S>(
    spans: &mut Spans,
    name: &'static str,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut state = setup();
        let id = spans.open(name);
        let started = Instant::now();
        let ops = run(&mut state);
        let ns = started.elapsed().as_nanos() as f64;
        spans.close(id);
        black_box(&state);
        samples.push(ns / ops.max(1) as f64);
    }
    median(&samples).expect("REPS > 0")
}

/// The ContainerDrone HCE-like task set on 4 cores, with a streaming
/// memory hog pinned to the container core when `hog` is set.
fn hce_machine(hog: bool) -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    let root = m.root_cgroup();
    m.spawn(
        TaskSpec::periodic_fifo(
            "drv",
            90,
            SimDuration::from_hz(250.0),
            Cost::memory_bound(SimDuration::from_micros(350), 2.2e6, 0.7),
        ),
        root,
    );
    m.spawn(
        TaskSpec::periodic_fifo(
            "motor",
            90,
            SimDuration::from_hz(400.0),
            Cost::compute(SimDuration::from_micros(60)),
        ),
        root,
    );
    m.spawn(
        TaskSpec::periodic_fifo(
            "safety",
            20,
            SimDuration::from_hz(400.0),
            Cost::memory_bound(SimDuration::from_micros(320), 1.5e6, 0.55),
        ),
        root,
    );
    if hog {
        let cce = m.add_cgroup(Cgroup::container("cce", CpuSet::single(3)));
        m.spawn(
            TaskSpec::busy_fair(
                "hog",
                Cost::streaming(SimDuration::from_secs(1), 14.0e6, 0.95),
            ),
            cce,
        );
    }
    m
}

/// One simulated second of scheduler quanta.
const QUANTA_PER_SECOND: u64 = 20_000;

fn sched_rows(spans: &mut Spans, rows: &mut Rows) {
    let step = per_op(
        spans,
        "layer:Machine::step",
        || hce_machine(true),
        |m| {
            let mut events = Vec::new();
            m.step_until(SimTime::from_secs(1), &mut events);
            black_box(events.len());
            QUANTA_PER_SECOND
        },
    );
    // The leap loop of the executor (closed-form leaps toward the
    // target, a plain step wherever the machine cannot leap) on the
    // periodic task set alone: the hog would keep every span busy.
    let leap = per_op(
        spans,
        "layer:Machine::leap_to",
        || hce_machine(false),
        |m| {
            let target = SimTime::from_secs(1);
            let quantum = m.config().quantum;
            let mut events = Vec::new();
            while m.now() + quantum <= target {
                m.leap_to(target);
                if m.now() + quantum <= target {
                    m.step(&mut events);
                }
            }
            QUANTA_PER_SECOND
        },
    );
    rows.push(("rt-sched.step_ns", step));
    rows.push(("rt-sched.leap_ns_per_quantum", leap));
}

fn dram_demands() -> [CoreDemand; 4] {
    [
        CoreDemand {
            bandwidth: 2.2e6,
            stall_fraction: 0.7,
            streaming: false,
        },
        CoreDemand {
            bandwidth: 1.5e6,
            stall_fraction: 0.55,
            streaming: false,
        },
        CoreDemand::default(),
        CoreDemand {
            bandwidth: 14.0e6,
            stall_fraction: 0.95,
            streaming: true,
        },
    ]
}

fn memory_system(memguard: bool) -> MemorySystem {
    let dram = DramConfig::default();
    let mut mem = MemorySystem::new(4, dram);
    if memguard {
        mem.enable_memguard(MemGuardConfig::single_core(4, 3, 0.05, &dram));
    }
    mem
}

fn membw_rows(spans: &mut Spans, rows: &mut Rows) {
    let demands = dram_demands();
    let dt = SimDuration::from_micros(50);
    let quantum = |mem: &mut MemorySystem| {
        let mut t = SimTime::ZERO;
        for _ in 0..QUANTA_PER_SECOND {
            black_box(mem.quantum(t, dt, black_box(&demands)));
            t += dt;
        }
        QUANTA_PER_SECOND
    };
    let plain = per_op(
        spans,
        "layer:MemorySystem::quantum",
        || memory_system(false),
        quantum,
    );
    let guarded = per_op(
        spans,
        "layer:MemorySystem::quantum+memguard",
        || memory_system(true),
        quantum,
    );
    // Replay is only valid where the MemGuard cap cannot bind, so it
    // runs on the unregulated system.
    let replay = per_op(
        spans,
        "layer:MemorySystem::replay_quantum",
        || memory_system(false),
        |mem| {
            let mut progress = [0.0; 4];
            let mut t = SimTime::ZERO;
            for _ in 0..QUANTA_PER_SECOND {
                mem.replay_quantum(t, dt, black_box(&demands), &mut progress);
                black_box(&progress);
                t += dt;
            }
            QUANTA_PER_SECOND
        },
    );
    let mut mem = memory_system(true);
    quantum(&mut mem);
    let throttles: u64 = mem.throttle_events().iter().sum();
    rows.push(("membw.quantum_ns", plain));
    rows.push(("membw.quantum_memguard_ns", guarded));
    rows.push(("membw.replay_quantum_ns", replay));
    rows.push(("membw.throttle_events", throttles as f64));
}

/// Host and container namespaces over a default link, an rx socket on
/// the motor port and a sender in the container.
fn two_namespace_net(rate_limit: Option<(f64, f64)>) -> (Network, Addr, SocketId) {
    let mut net = Network::new();
    let host = net.add_namespace("host");
    let cce = net.add_namespace("cce");
    net.connect(host, cce, LinkConfig::default());
    let dst = Addr {
        ns: host,
        port: 14600,
    };
    if let Some((pps, burst)) = rate_limit {
        net.add_rate_limit(dst, pps, burst);
    }
    net.bind_with_capacity(host, 14600, 2048)
        .expect("fresh port");
    let tx = net.bind(cce, 9000).expect("fresh port");
    (net, dst, tx)
}

fn net_rows(spans: &mut Spans, rows: &mut Rows) {
    let send = per_op(
        spans,
        "layer:Network::send+step",
        || two_namespace_net(None),
        |(net, dst, tx)| {
            for i in 0..1000u64 {
                let t = SimTime::from_micros(i * 50);
                net.send(*tx, *dst, vec![0u8; 29], t).expect("linked");
            }
            black_box(net.step(SimTime::from_secs(1)).len());
            1000
        },
    );
    // The fig7 flood: 64-byte garbage datagrams, one shared payload,
    // offered as whole bursts against the iptables token bucket
    // (2000 pps, burst 200) in front of the motor port.
    const BURSTS: u64 = 200;
    const PER_BURST: u64 = 400;
    let payload: Arc<[u8]> = Arc::from(vec![0xA5u8; 64]);
    let flood = per_op(
        spans,
        "layer:Network::send_shared+step",
        || two_namespace_net(Some((2_000.0, 200.0))),
        |(net, dst, tx)| {
            for k in 0..BURSTS {
                let t = SimTime::from_millis(k * 10);
                net.send_shared(*tx, *dst, &payload, PER_BURST, t)
                    .expect("linked");
                black_box(net.step(t + SimDuration::from_millis(10)).len());
            }
            BURSTS
        },
    );
    rows.push(("virt-net.send_step_ns", send));
    rows.push(("virt-net.flood_span_ns", flood));
}

fn motor_message() -> Message {
    Message::Motor(MotorOutput {
        time_usec: 123_456,
        pwm: [1500, 1480, 1520, 1490],
        seq: 42,
        armed: 1,
    })
}

fn mavlink_rows(spans: &mut Spans, rows: &mut Rows) {
    // A healthy second of motor output: 400 frames back to back; and the
    // same frames drowned in 64-byte garbage datagrams.
    let mut tx = Sender::new(1, 1);
    let clean: Vec<u8> = (0..400).flat_map(|_| tx.encode(motor_message())).collect();
    let mut flooded = Vec::new();
    for chunk in clean.chunks(29) {
        flooded.extend_from_slice(&[0u8; 64]);
        flooded.extend_from_slice(chunk);
    }
    const STREAMS: u64 = 50;
    let parse = |spans: &mut Spans, name, bytes: &[u8]| {
        per_op(
            spans,
            name,
            || (Parser::new(), Vec::new()),
            |(p, frames)| {
                for _ in 0..STREAMS {
                    frames.clear();
                    p.push_into(black_box(bytes), frames);
                }
                STREAMS * bytes.len() as u64
            },
        )
    };
    let clean_ns = parse(spans, "layer:Parser::push_into clean", &clean);
    let flooded_ns = parse(spans, "layer:Parser::push_into flooded", &flooded);
    const FRAMES: u64 = 20_000;
    let encode = per_op(
        spans,
        "layer:Sender::encode_into",
        || (Sender::new(1, 1), Vec::with_capacity(64)),
        |(tx, out)| {
            for _ in 0..FRAMES {
                out.clear();
                black_box(tx.encode_into(black_box(motor_message()), out));
            }
            FRAMES
        },
    );
    rows.push(("mavlink-lite.parse_ns_per_byte.clean", clean_ns));
    rows.push(("mavlink-lite.parse_ns_per_byte.flooded", flooded_ns));
    rows.push(("mavlink-lite.encode_ns", encode));
}

fn hovering_world() -> World {
    let mut w = World::new(WorldConfig::default(), 7);
    w.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
    w.set_motor_commands([w.quad_params().hover_command(); 4]);
    w
}

fn physics_rows(spans: &mut Spans, rows: &mut Rows) {
    // One simulated second at the 2 kHz physics rate.
    let substep = per_op(spans, "layer:World::advance_to", hovering_world, |w| {
        w.advance_to(SimTime::from_secs(1));
        black_box(w.truth().position);
        2_000
    });
    const SAMPLES: u64 = 20_000;
    let imu = per_op(spans, "layer:World::sample_imu", hovering_world, |w| {
        for _ in 0..SAMPLES {
            black_box(w.sample_imu());
        }
        SAMPLES
    });
    rows.push(("uav-dynamics.substep_ns", substep));
    rows.push(("uav-dynamics.imu_sample_ns", imu));
}

fn orch_rows(spans: &mut Spans, rows: &mut Rows, record: &[u8], scratch: &Path) {
    use cd_orch::wire::{encode, Frame, FrameReader};
    const FRAMES: u64 = 2_000;
    let frame = Frame::Result {
        run: 7,
        jsonl: record.to_vec(),
    };
    let roundtrip = per_op(
        spans,
        "layer:wire::encode+FrameReader",
        || (),
        |()| {
            for _ in 0..FRAMES {
                let bytes = encode(black_box(&frame));
                let mut reader = FrameReader::new(bytes.as_slice());
                let back = reader.next_frame().expect("valid frame");
                assert_eq!(back.as_ref(), Some(&frame), "frame round trip");
            }
            FRAMES
        },
    );
    // Every append is flushed and synced: this row measures the
    // filesystem the checkout sits on as much as the code.
    const APPENDS: u64 = 20;
    let path = scratch.join("layer-row.ledger");
    let append = per_op(
        spans,
        "layer:Ledger::append",
        || cd_orch::Ledger::create(&path, 1).expect("ledger in scratch"),
        |ledger| {
            for run in 0..APPENDS {
                ledger
                    .append(run as u32, cd_orch::RunOutcome::Ok, record)
                    .expect("append");
            }
            APPENDS
        },
    );
    let _ = std::fs::remove_file(&path);
    rows.push(("cd-orch.frame_roundtrip_ns", roundtrip));
    rows.push(("cd-orch.ledger_append_ns", append));
}

/// Runs every layer row. `record` is one orchestrator JSONL record (the
/// frame and ledger payload); ledger files go to `scratch`.
pub fn run_all(spans: &mut Spans, record: &[u8], scratch: &Path) -> Rows {
    let mut rows = Rows::new();
    sched_rows(spans, &mut rows);
    membw_rows(spans, &mut rows);
    net_rows(spans, &mut rows);
    mavlink_rows(spans, &mut rows);
    physics_rows(spans, &mut rows);
    orch_rows(spans, &mut rows, record, scratch);
    rows
}
