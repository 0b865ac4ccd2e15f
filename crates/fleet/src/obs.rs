//! Fleet-level observability: the poll-boundary trace drain, live
//! metrics publication, and the [`FleetObserver`] run hook.
//!
//! The fleet is where observability meets the determinism contract.
//! Vehicles record trace events into their own [`cd_obs::ObsPort`]s
//! while they advance — possibly on worker threads — and the
//! coordinating thread drains every port here, at each poll boundary,
//! in vehicle-index order: the same merge discipline the airspace
//! traffic follows, so the JSONL stream is byte-identical at any thread
//! count and under any shard partition. Fleet-scope window events (GCS
//! and swarm per-window drop deltas) are computed from coordinating-
//! thread state and interleaved right after their vehicle's own events.
//!
//! Metrics are the racy sibling: cumulative totals and gauges published
//! into a [`cd_obs::Registry`] after every batch, plus the per-packet
//! network counters the bridge/airspace stacks bump directly. A mid-run
//! scrape sees whatever has been published so far; nothing reads a
//! metric back into the simulation.

use cd_obs::metrics::{Counter, Gauge, Histogram, Registry};
use cd_obs::trace::{TraceEvent, TraceKind, TraceSink};
use containerdrone_core::runner::LeaveReason;
use sim_core::time::SimTime;
use virt_net::net::Network;

use crate::attacker::AttackerNode;
use crate::gcs::GroundStation;
use crate::swarm::SwarmLink;
use crate::{Fleet, FleetReport, VehicleSlot};

/// Callbacks around [`Fleet::run_observed`]: one after every completed
/// poll-boundary batch (with the fleet still borrowable — poll views,
/// vehicle state, executor counters), one with the final report. The
/// hook for dashboards, live plotters and campaign drivers that want to
/// watch a run without forking the executor loop.
pub trait FleetObserver {
    /// Called after each poll-boundary batch completes (merge, settle
    /// and trace/metric publication already done).
    fn on_batch(&mut self, fleet: &Fleet) {
        let _ = fleet;
    }

    /// Called once with the final report, after teardown.
    fn on_finish(&mut self, report: &FleetReport) {
        let _ = report;
    }
}

/// The no-op observer ([`Fleet::run`] delegates through it).
impl FleetObserver for () {}

/// Histogram buckets for per-window leaped quanta (a poll window is
/// 2 000 quanta at the default rates; the buckets resolve "barely
/// leaping" from "fully closed-form").
const WINDOW_LEAP_BUCKETS: [f64; 6] = [1.0, 10.0, 100.0, 500.0, 1000.0, 2000.0];

/// Pre-registered handles for every fleet metric family. Registration
/// happens once at [`Fleet::attach_metrics`]; per-batch publication is
/// pure relaxed atomic stores.
pub(crate) struct FleetMetrics {
    sim_time: Gauge,
    flying: Gauge,
    crashes: Counter,
    switches: Counter,
    deadline_skips: Counter,
    quanta_leaped: Counter,
    quanta_stepped: Counter,
    leap_fraction: Gauge,
    gcs_packets: Counter,
    gcs_dropped: Counter,
    gcs_malformed: Counter,
    swarm_rx: Counter,
    swarm_garbage: Counter,
    swarm_jam_dropped: Counter,
    attacker_packets: Counter,
    window_leap: Histogram,
    /// Vehicles still sharing a class's machine schedule, and leaves by
    /// reason. Which member of a class leaves depends on the shard
    /// partition, so these stay out of the report and the trace.
    sched_shared: Gauge,
    sched_leaves: Vec<(LeaveReason, Counter)>,
    /// Per-shard EWMA cost (seconds) and shard population, indexed by
    /// shard slot (fixed label set, one series per worker thread).
    shard_cost: Vec<Gauge>,
    shard_size: Vec<Gauge>,
    /// Per-vehicle crash / Simplex-switch flags (0 or 1).
    vehicle_crashed: Vec<Gauge>,
    vehicle_switched: Vec<Gauge>,
}

impl FleetMetrics {
    pub(crate) fn register(reg: &Registry, n_vehicles: usize, threads: usize) -> Self {
        let counter = |name: &str, help: &str| reg.counter(name, help, &[]);
        let gauge = |name: &str, help: &str| reg.gauge(name, help, &[]);
        FleetMetrics {
            sim_time: gauge("cd_fleet_sim_time_seconds", "Fleet virtual clock."),
            flying: gauge("cd_fleet_vehicles_flying", "Vehicles still flying."),
            crashes: counter("cd_fleet_crashes_total", "Vehicles crashed."),
            switches: counter(
                "cd_fleet_simplex_switches_total",
                "Vehicles whose monitor switched to the safety controller.",
            ),
            deadline_skips: counter(
                "cd_fleet_deadline_skips_total",
                "Periodic releases skipped under overrun, fleet-wide.",
            ),
            quanta_leaped: reg.counter(
                "cd_fleet_quanta_total",
                "Scheduler quanta executed, by executor mode.",
                &[("mode", "leaped")],
            ),
            quanta_stepped: reg.counter(
                "cd_fleet_quanta_total",
                "Scheduler quanta executed, by executor mode.",
                &[("mode", "stepped")],
            ),
            leap_fraction: gauge(
                "cd_fleet_leap_fraction",
                "Fraction of quanta the time-leap executor advanced in closed form.",
            ),
            gcs_packets: counter(
                "cd_fleet_gcs_packets_total",
                "Telemetry datagrams the GCS received.",
            ),
            gcs_dropped: counter(
                "cd_fleet_gcs_dropped_total",
                "Telemetry datagrams dropped by GCS ingress rate limits.",
            ),
            gcs_malformed: counter(
                "cd_fleet_gcs_malformed_total",
                "Datagrams on GCS telemetry ports that failed decode or id check.",
            ),
            swarm_rx: counter(
                "cd_fleet_swarm_rx_total",
                "Valid V2V neighbor broadcasts received.",
            ),
            swarm_garbage: counter(
                "cd_fleet_swarm_garbage_total",
                "Swarm-port datagrams that failed decode or claimed a non-neighbor.",
            ),
            swarm_jam_dropped: counter(
                "cd_fleet_swarm_jam_dropped_total",
                "Swarm-port datagrams dropped by rate limit or queue overflow.",
            ),
            attacker_packets: counter(
                "cd_fleet_attacker_packets_total",
                "Datagrams offered by external attacker nodes.",
            ),
            window_leap: reg.histogram(
                "cd_fleet_window_leap_quanta",
                "Per-vehicle quanta leaped per poll window.",
                &[],
                &WINDOW_LEAP_BUCKETS,
            ),
            sched_shared: gauge(
                "cd_fleet_sched_shared_vehicles",
                "Vehicles advancing through a shared machine schedule.",
            ),
            sched_leaves: LeaveReason::ALL
                .iter()
                .map(|&reason| {
                    (
                        reason,
                        reg.counter(
                            "cd_fleet_sched_leaves_total",
                            "Vehicles that left a shared machine schedule, by reason.",
                            &[("reason", reason.label())],
                        ),
                    )
                })
                .collect(),
            shard_cost: (0..threads)
                .map(|k| {
                    reg.gauge(
                        "cd_fleet_shard_cost_seconds",
                        "EWMA per-batch cost of the vehicles in a shard slot.",
                        &[("shard", &k.to_string())],
                    )
                })
                .collect(),
            shard_size: (0..threads)
                .map(|k| {
                    reg.gauge(
                        "cd_fleet_shard_vehicles",
                        "Vehicles assigned to a shard slot in the latest batch.",
                        &[("shard", &k.to_string())],
                    )
                })
                .collect(),
            vehicle_crashed: (0..n_vehicles)
                .map(|i| {
                    reg.gauge(
                        "cd_fleet_vehicle_crashed",
                        "1 once the vehicle's physics declared a crash.",
                        &[("vehicle", &i.to_string())],
                    )
                })
                .collect(),
            vehicle_switched: (0..n_vehicles)
                .map(|i| {
                    reg.gauge(
                        "cd_fleet_vehicle_switched",
                        "1 once the vehicle's monitor performed the Simplex switch.",
                        &[("vehicle", &i.to_string())],
                    )
                })
                .collect(),
        }
    }
}

/// The fleet's observability state: the optional trace sink, the
/// optional metric handles, and the per-vehicle previous-value ledgers
/// the per-window deltas are computed against. All-`None` (the default)
/// costs one branch per boundary — the zero-alloc and perf gates run
/// with this compiled in.
#[derive(Default)]
pub(crate) struct FleetObs {
    pub(crate) sink: Option<TraceSink>,
    pub(crate) metrics: Option<FleetMetrics>,
    /// (rate-limit drops, malformed) per vehicle at the last boundary.
    prev_gcs: Vec<(u64, u64)>,
    /// (jam drops, garbage) per vehicle at the last boundary.
    prev_swarm: Vec<(u64, u64)>,
    /// Quanta leaped per vehicle at the last boundary (histogram feed).
    prev_leaped: Vec<u64>,
    /// Shard assignment at the last parallel batch (rebalance detection).
    prev_bins: Vec<Vec<usize>>,
}

impl FleetObs {
    /// `true` when any surface is attached; everything below early-outs
    /// on `false`.
    pub(crate) fn active(&self) -> bool {
        self.sink.is_some() || self.metrics.is_some()
    }

    /// Sizes the previous-value ledgers (idempotent; called at attach).
    pub(crate) fn ensure_ledgers(&mut self, n_vehicles: usize) {
        self.prev_gcs.resize(n_vehicles, (0, 0));
        self.prev_swarm.resize(n_vehicles, (0, 0));
        self.prev_leaped.resize(n_vehicles, 0);
    }

    /// The poll-boundary observation pass, on the coordinating thread:
    /// drains every vehicle's trace port (vehicle-index order), emits
    /// the per-window GCS/swarm delta events right after their vehicle,
    /// emits shard-rebalance events (masked out of deterministic
    /// streams), and republishes the metric families.
    #[allow(clippy::too_many_arguments)] // one call site; bundling would just rename the fleet's fields
    pub(crate) fn boundary(
        &mut self,
        slots: &mut [VehicleSlot],
        net: &Network,
        gcs: &GroundStation,
        swarm: Option<&SwarmLink>,
        attackers: &[AttackerNode],
        now: SimTime,
        bins: Option<&[Vec<usize>]>,
        costs: &[f64],
    ) {
        if let Some(sink) = &mut self.sink {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.vehicle.obs_port().drain(|ev| sink.write_event(ev));

                let window = TraceEvent {
                    t: now,
                    ord: i as u32,
                    kind: TraceKind::GcsWindow,
                    label: "",
                    a: 0,
                    b: 0,
                };
                let dropped = gcs.dropped_so_far(net, i);
                let malformed = gcs.views()[i].malformed;
                let (pd, pm) = self.prev_gcs[i];
                if dropped != pd || malformed != pm {
                    sink.write_event(&TraceEvent {
                        a: dropped - pd,
                        b: malformed - pm,
                        ..window
                    });
                    self.prev_gcs[i] = (dropped, malformed);
                }
                if let Some(swarm) = swarm {
                    let jammed = swarm.jam_dropped_so_far(net, i);
                    let garbage = swarm.views()[i].rx_garbage;
                    let (pj, pg) = self.prev_swarm[i];
                    if jammed != pj || garbage != pg {
                        sink.write_event(&TraceEvent {
                            kind: TraceKind::SwarmWindow,
                            a: jammed - pj,
                            b: garbage - pg,
                            ..window
                        });
                        self.prev_swarm[i] = (jammed, garbage);
                    }
                }
            }
            if let Some(bins) = bins {
                if self.prev_bins.as_slice() != bins {
                    for (k, bin) in bins.iter().enumerate() {
                        sink.write_event(&TraceEvent {
                            t: now,
                            ord: k as u32,
                            kind: TraceKind::ShardRebalance,
                            label: "",
                            a: bin.len() as u64,
                            b: bin.first().copied().unwrap_or(0) as u64,
                        });
                    }
                    self.prev_bins = bins.to_vec();
                }
            }
        }

        if let Some(m) = &self.metrics {
            let mut crashes = 0u64;
            let mut switches = 0u64;
            let mut skips = 0u64;
            let mut leaped = 0u64;
            let mut steps = 0u64;
            let mut flying = 0u64;
            let mut shared = 0u64;
            for (i, slot) in slots.iter().enumerate() {
                shared += u64::from(slot.class.is_some());
                let v = &slot.vehicle;
                let crashed = v.crashed();
                let switched = v.simplex_switches() > 0;
                crashes += u64::from(crashed);
                switches += u64::from(switched);
                if let Some(g) = m.vehicle_crashed.get(i) {
                    g.set(f64::from(u8::from(crashed)));
                }
                if let Some(g) = m.vehicle_switched.get(i) {
                    g.set(f64::from(u8::from(switched)));
                }
                skips += v.sched_obs().deadline_skips;
                leaped += v.quanta_leaped();
                steps += v.sim_steps();
                flying += u64::from(!v.done());
                let window = v.quanta_leaped() - self.prev_leaped[i];
                if window > 0 {
                    m.window_leap.observe(window as f64);
                }
                self.prev_leaped[i] = v.quanta_leaped();
            }
            m.sched_shared.set(shared as f64);
            for (reason, counter) in &m.sched_leaves {
                counter.store(slots.iter().filter(|s| s.left == Some(*reason)).count() as u64);
            }
            m.sim_time.set(now.as_secs_f64());
            m.flying.set(flying as f64);
            m.crashes.store(crashes);
            m.switches.store(switches);
            m.deadline_skips.store(skips);
            m.quanta_leaped.store(leaped);
            m.quanta_stepped.store(steps - leaped);
            m.leap_fraction.set(if steps > 0 {
                leaped as f64 / steps as f64
            } else {
                0.0
            });

            let mut packets = 0u64;
            let mut dropped = 0u64;
            let mut malformed = 0u64;
            for (i, view) in gcs.views().iter().enumerate() {
                packets += view.packets;
                malformed += view.malformed;
                dropped += gcs.dropped_so_far(net, i);
            }
            m.gcs_packets.store(packets);
            m.gcs_dropped.store(dropped);
            m.gcs_malformed.store(malformed);
            if let Some(swarm) = swarm {
                let mut rx = 0u64;
                let mut garbage = 0u64;
                let mut jammed = 0u64;
                for (i, view) in swarm.views().iter().enumerate() {
                    rx += view.rx_msgs;
                    garbage += view.rx_garbage;
                    jammed += swarm.jam_dropped_so_far(net, i);
                }
                m.swarm_rx.store(rx);
                m.swarm_garbage.store(garbage);
                m.swarm_jam_dropped.store(jammed);
            }
            m.attacker_packets
                .store(attackers.iter().map(AttackerNode::packets_sent).sum());

            match bins {
                Some(bins) => {
                    for (k, (cost_g, size_g)) in m.shard_cost.iter().zip(&m.shard_size).enumerate()
                    {
                        match bins.get(k) {
                            Some(bin) => {
                                cost_g.set(bin.iter().map(|&i| costs[i]).sum());
                                size_g.set(bin.len() as f64);
                            }
                            None => {
                                cost_g.set(0.0);
                                size_g.set(0.0);
                            }
                        }
                    }
                }
                None => {
                    // Serial batch: everything in shard slot 0.
                    if let (Some(cost_g), Some(size_g)) =
                        (m.shard_cost.first(), m.shard_size.first())
                    {
                        cost_g.set(costs.iter().sum());
                        size_g.set(slots.len() as f64);
                    }
                }
            }
        }
    }

    /// Flushes the trace sink (the final drain already ran through
    /// [`FleetObs::boundary`]).
    pub(crate) fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}
