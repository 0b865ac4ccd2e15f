//! **cd-fleet** — shared-airspace multi-UAV co-simulation.
//!
//! The paper evaluates one container-hosted UAV under DoS; its threat
//! model — a compromised network peer flooding the companion computer —
//! is inherently multi-node. This crate opens that axis: N independent
//! [`VehicleInstance`]s (each a full machine + container + controller
//! stack) fly on the common scheduler quantum against a ground control
//! station that polls telemetry from every vehicle over rate-limited
//! radio uplinks. Fleet-level attack campaigns place the existing attack
//! timelines per-victim, broadcast, or rolling-victim via
//! [`attacks::fleet::FleetScript`].
//!
//! # Two networks: bridge and airspace
//!
//! Each vehicle owns a private **bridge** [`Network`] — its host↔container
//! veth pair, where all of its sensor, motor and attack traffic lives
//! (on the paper's testbed this bridge physically exists *inside* the
//! vehicle's companion computer). The fleet shares one [`Airspace`] —
//! the radio medium — a first-class adversarial network holding the GCS
//! namespace, one radio namespace per vehicle, and any peer that joins:
//! the V2V [`SwarmLink`] wires radio↔radio coordination links on a
//! ring/mesh [`SwarmTopology`], and hostile [`AttackerNode`]s join with
//! routed links into radio range to flood GCS uplinks
//! ([`FleetTarget::GcsUplink`](attacks::fleet::FleetTarget)) or jam the
//! swarm streams ([`FleetTarget::SwarmJam`](attacks::fleet::FleetTarget)).
//! The split is what makes the fleet shardable: vehicles touch only their
//! own bridge, so shards advance on worker threads without
//! synchronisation, while all cross-vehicle traffic crosses the airspace
//! on the coordinating thread, in stable vehicle-index order.
//!
//! # Sharded parallel execution
//!
//! [`FleetConfig::with_threads`] runs the fleet on a scoped-thread worker
//! pool: vehicles are assigned to shards by the configured [`Partition`]
//! — [`Partition::LoadBalanced`] by default, which weighs each vehicle
//! by its observed per-batch step cost (attacked vehicles are hot) and
//! spreads the heavy ones across threads — each shard runs its vehicles'
//! `advance`/`post_step` phases batch-wise up to the next GCS poll
//! boundary, and the main thread merges the per-vehicle
//! [`VehicleSnapshot`]s into the shared airspace step (GCS downlink,
//! swarm broadcast round, attacker turns — in that pinned order).
//! Because each vehicle's trajectory is a pure function of its own
//! config and bridge, and the airspace merge order is pinned to vehicle
//! indices, a parallel run at **any** thread count under **either**
//! partition is byte-for-byte identical to the serial run — the
//! determinism tests enforce it.
//!
//! # Shared schedules
//!
//! Vehicles flying the same compiled attack script form a class: their
//! seeds feed only physics and sensor noise, so their machines usually
//! run one trajectory. On the leap executor each (class, shard) advances
//! one machine per poll window and the other members replay its
//! [`SchedTape`], leaving at their first mismatching machine operation
//! (see [`containerdrone_core::runner::share`]). Reports are
//! byte-identical to [`FleetConfig::with_shared_sched`]`(false)`, the
//! `--no-share` reference.
//!
//! An N = 1 fleet run remains *byte-for-byte* identical to the classic
//! single-vehicle [`Scenario`](containerdrone_core::runner::Scenario) run
//! (the equivalence test pins this against the golden Figure 4 CSV).
//!
//! # Examples
//!
//! ```
//! use cd_fleet::{Fleet, FleetConfig};
//! use containerdrone_core::prelude::*;
//! use sim_core::time::SimDuration;
//!
//! let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(2));
//! let report = Fleet::new(FleetConfig::new(base, 3).with_threads(2)).run();
//! assert_eq!(report.outcomes.len(), 3);
//! assert!(report.outcomes.iter().all(|o| !o.result.crashed()));
//! ```

#![warn(missing_docs)]

pub mod airspace;
pub mod attacker;
pub mod gcs;
pub mod obs;
pub mod swarm;

use std::time::{Duration, Instant};

use attacks::fleet::FleetScript;
use attacks::script::AttackScript;
use cd_obs::metrics::Registry;
use cd_obs::trace::TraceSink;
use containerdrone_core::config::SCHED_QUANTUM;
use containerdrone_core::phase;
use containerdrone_core::runner::{
    LeaveReason, ScenarioResult, SchedTape, SpanEnd, VehicleInstance,
};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::{SimDuration, SimTime};
use uav_dynamics::batch::WorldBatch;
use virt_net::net::Network;

pub use airspace::Airspace;
pub use attacker::{AttackerConfig, AttackerNode};
pub use gcs::{GcsConfig, GcsView, GroundStation, VehicleSnapshot};
pub use obs::FleetObserver;
pub use swarm::{SwarmConfig, SwarmLink, SwarmTopology, SwarmView};

/// A fleet scenario: one per-vehicle base configuration replicated N
/// times, plus fleet-level attack placement, a ground station, and the
/// executor's thread count.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The per-vehicle scenario. Vehicle `i` flies this configuration
    /// with seed `base.seed + i`, so vehicle 0 reproduces the
    /// single-vehicle run exactly and the rest decorrelate.
    pub base: ScenarioConfig,
    /// Number of vehicles sharing the airspace.
    pub n_vehicles: usize,
    /// Fleet-level attack placement, compiled onto the per-vehicle
    /// timelines on top of whatever `base.attacks` already schedules.
    /// [`FleetTarget::GcsUplink`](attacks::fleet::FleetTarget) and
    /// [`FleetTarget::SwarmJam`](attacks::fleet::FleetTarget) entries
    /// compile onto external [`AttackerNode`]s instead.
    pub script: FleetScript,
    /// Ground-station configuration.
    pub gcs: GcsConfig,
    /// V2V swarm coordination streams (`None` = no swarm traffic — the
    /// classic GCS-only airspace).
    pub swarm: Option<SwarmConfig>,
    /// External-attacker configuration (nodes spawn only when the script
    /// actually schedules attacker entries).
    pub attacker: AttackerConfig,
    /// Worker threads for [`Fleet::run`] (1 = fully serial). Any value
    /// produces byte-identical reports; more threads only buy wall-clock
    /// time on multicore hosts.
    pub threads: usize,
    /// How vehicles are assigned to worker threads. Any strategy produces
    /// byte-identical reports; the choice only moves wall-clock time.
    pub partition: Partition,
    /// Run on the event-driven time-leap executor (the default). `false`
    /// is the `--no-leap` reference: every quantum runs all four phases.
    /// Both produce byte-identical reports — the adversarial equivalence
    /// tests pin it — the leap executor is just faster across event-free
    /// spans.
    pub leap: bool,
    /// Use the virtual network's bulk (closed-form) flood-delivery fast
    /// path (the default). `false` is the `--no-bulk` reference: every
    /// queued span settles packet-by-packet. Both produce byte-identical
    /// reports — [`virt_net::net::Network::set_bulk`] — bulk is just
    /// O(1) per flood span instead of O(packets).
    pub bulk: bool,
    /// Let vehicles whose machine inputs are identical share one machine
    /// schedule per shard (the default; see the README "Shared
    /// schedules" section). Applies to the leap executor only. `false`
    /// (`--no-share`) is the reference: every vehicle advances its own
    /// machine. Both produce byte-identical reports.
    pub shared_sched: bool,
}

/// Shard-assignment strategy for the parallel executor.
///
/// The executor's determinism does not depend on the partition — vehicle
/// work is a pure per-vehicle function and the airspace merge happens in
/// vehicle-index order regardless — so this is purely a wall-clock knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Contiguous index ranges, one per thread (the PR 4 scheme). Even
    /// only when per-vehicle cost is even; an attack campaign focused on
    /// a few victims leaves most threads idle while one grinds.
    Contiguous,
    /// Weighs each vehicle by its observed per-batch step cost (EWMA of
    /// measured wall time) and assigns greedily, heaviest first, to the
    /// least-loaded thread — attacked vehicles are hot, so they spread
    /// across threads instead of clustering in one contiguous shard.
    #[default]
    LoadBalanced,
}

impl FleetConfig {
    /// A healthy fleet of `n_vehicles` flying `base`, serial executor.
    pub fn new(base: ScenarioConfig, n_vehicles: usize) -> Self {
        FleetConfig {
            base,
            n_vehicles,
            script: FleetScript::none(),
            gcs: GcsConfig::default(),
            swarm: None,
            attacker: AttackerConfig::default(),
            threads: 1,
            partition: Partition::default(),
            leap: true,
            bulk: true,
            shared_sched: true,
        }
    }

    /// Replaces the fleet attack script.
    #[must_use]
    pub fn with_script(mut self, script: FleetScript) -> Self {
        self.script = script;
        self
    }

    /// Replaces the ground-station configuration.
    #[must_use]
    pub fn with_gcs(mut self, gcs: GcsConfig) -> Self {
        self.gcs = gcs;
        self
    }

    /// Enables V2V swarm coordination streams.
    #[must_use]
    pub fn with_swarm(mut self, swarm: SwarmConfig) -> Self {
        self.swarm = Some(swarm);
        self
    }

    /// Replaces the external-attacker configuration.
    #[must_use]
    pub fn with_attacker(mut self, attacker: AttackerConfig) -> Self {
        self.attacker = attacker;
        self
    }

    /// Sets the executor's worker-thread count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the shard-assignment strategy.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Selects the executor: `true` (default) for the event-driven
    /// time-leap executor, `false` for the quantum-stepped reference
    /// (`--no-leap`). Byte-identical either way.
    #[must_use]
    pub fn with_leap(mut self, leap: bool) -> Self {
        self.leap = leap;
        self
    }

    /// Selects the network delivery path: `true` (default) settles flood
    /// spans in closed form, `false` (`--no-bulk`) replays them
    /// packet-by-packet. Byte-identical either way — the bulk
    /// equivalence suites pin it.
    #[must_use]
    pub fn with_bulk(mut self, bulk: bool) -> Self {
        self.bulk = bulk;
        self
    }

    /// Selects whether vehicles with identical machine inputs share one
    /// machine schedule: `true` (default) or `false` (`--no-share`, every
    /// vehicle advances its own machine). Byte-identical either way.
    #[must_use]
    pub fn with_shared_sched(mut self, shared: bool) -> Self {
        self.shared_sched = shared;
        self
    }
}

/// One vehicle plus the private bridge network it flies against. The
/// unit of sharding: a slot never touches anything outside itself while
/// advancing, so disjoint slots advance on different threads freely.
pub(crate) struct VehicleSlot {
    pub(crate) net: Network,
    pub(crate) vehicle: VehicleInstance,
    /// The shared-schedule class this vehicle still follows (`None`:
    /// it advances its own machine).
    pub(crate) class: Option<usize>,
    /// Why it left its class, once it has.
    pub(crate) left: Option<LeaveReason>,
}

/// Advances one vehicle quantum-by-quantum until it finishes or reaches
/// `target` (a poll boundary), leaving in `snap` the snapshot the GCS
/// poll at `target` must see: captured after the vehicle's `advance` for
/// that quantum, before its `post_step` — the same interleaving the
/// quantum-stepped serial loop produces.
fn run_slot_to(slot: &mut VehicleSlot, target: SimTime, snap: &mut VehicleSnapshot) {
    let VehicleSlot { net, vehicle, .. } = slot;
    loop {
        if !vehicle.advance(net) {
            *snap = VehicleSnapshot::finished(vehicle);
            return;
        }
        let now = vehicle.now();
        let at_target = now >= target;
        if at_target {
            *snap = VehicleSnapshot::of(vehicle);
        }
        let t0 = phase::now();
        let deliveries = net.step(now);
        for &d in deliveries {
            vehicle.on_delivery(d);
        }
        vehicle.phase_add(phase::NET, phase::now() - t0);
        vehicle.post_step();
        if at_target {
            return;
        }
    }
}

/// Pooled per-worker scratch of the leap executor: the struct-of-arrays
/// physics batch, the bin-local indices of vehicles whose physics
/// catch-up was deferred into it, and one shared-schedule tape per class
/// seen on this shard. Cleared (capacity kept) after every poll batch,
/// so steady state allocates nothing.
#[derive(Default)]
struct ShardScratch {
    batch: WorldBatch,
    pending: Vec<usize>,
    /// Shared-schedule tapes by class, created the first time a member
    /// of the class runs on this shard.
    tapes: Vec<Option<SchedTape>>,
    /// Wall-ns this shard spent in batched physics catch-up — the
    /// deferred share of the physics phase, booked here because it runs
    /// outside any vehicle ([`containerdrone_core::phase`] accounting;
    /// stays zero unless the phase clock is installed).
    physics_ns: u64,
}

impl ShardScratch {
    /// Opens a poll window on every pooled tape.
    fn begin_window(&mut self) {
        for tape in self.tapes.iter_mut().flatten() {
            tape.begin_window();
        }
    }
}

/// Groups vehicles into shared-schedule classes by their compiled attack
/// script (every vehicle flies the fleet's base configuration; seeds feed
/// only physics and sensor noise). Returns each vehicle's class, `None`
/// for vehicles alone in theirs: a class of one has nothing to share.
fn form_classes(scripts: &[AttackScript]) -> Vec<Option<usize>> {
    let mut firsts: Vec<usize> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let group: Vec<usize> = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let k = firsts
                .iter()
                .position(|&f| scripts[f] == *script)
                .unwrap_or_else(|| {
                    firsts.push(i);
                    sizes.push(0);
                    firsts.len() - 1
                });
            sizes[k] += 1;
            k
        })
        .collect();
    let mut ids = vec![None; sizes.len()];
    let mut next = 0;
    for (id, &size) in ids.iter_mut().zip(&sizes) {
        if size > 1 {
            *id = Some(next);
            next += 1;
        }
    }
    group.into_iter().map(|k| ids[k]).collect()
}

/// Advances one vehicle span-by-span to `target` (a poll boundary) on
/// the time-leap executor. Mirrors [`run_slot_to`]'s interleaving
/// exactly — the snapshot the GCS poll must see is captured after the
/// at-target machine advance, before that quantum's `post_step` — except
/// that a vehicle ending its final span event-free defers its physics
/// catch-up: the caller batches those into `batch` and finishes them via
/// [`finish_deferred_slot`]. Returns `true` when this vehicle was
/// deferred (its lane was enrolled in `batch`, its snapshot and
/// bookkeeping still owed).
///
/// A class member advances through its class's tape on this shard
/// (created here on first use); a member that leaves its class this
/// window is unshared from the next window on.
fn run_slot_leap(
    slot: &mut VehicleSlot,
    target: SimTime,
    snap: &mut VehicleSnapshot,
    batch: &mut WorldBatch,
    tapes: &mut Vec<Option<SchedTape>>,
) -> bool {
    let VehicleSlot {
        net,
        vehicle,
        class,
        left,
    } = slot;
    let mut shared = class.map(|c| {
        if tapes.len() <= c {
            tapes.resize_with(c + 1, || None);
        }
        let tape = tapes[c].get_or_insert_with(|| SchedTape::new(vehicle));
        (tape, vehicle.join_window())
    });
    let deferred = loop {
        let end = match &mut shared {
            Some((tape, seat)) => vehicle.advance_span_shared(net, target, tape, seat),
            None => vehicle.advance_span_deferred(net, target),
        };
        match end {
            SpanEnd::Done => {
                *snap = VehicleSnapshot::finished(vehicle);
                break false;
            }
            SpanEnd::Short => {}
            SpanEnd::AtTarget => {
                *snap = VehicleSnapshot::of(vehicle);
                vehicle.post_step();
                break false;
            }
            SpanEnd::AtTargetDeferred => {
                batch.enroll(vehicle.world(), vehicle.now());
                break true;
            }
        }
    };
    if let Some(reason) = shared.and_then(|(_, seat)| seat.left()) {
        *class = None;
        *left = Some(reason);
    }
    deferred
}

/// Completes a deferred vehicle once its shard's physics batch has
/// advanced: scatters the lane back into the world, captures the poll
/// snapshot (physics now current, `post_step` still pending — the same
/// observation point as the non-deferred paths) and runs the owed
/// telemetry/crash bookkeeping.
fn finish_deferred_slot(
    slot: &mut VehicleSlot,
    snap: &mut VehicleSnapshot,
    batch: &WorldBatch,
    lane: usize,
) {
    let vehicle = &mut slot.vehicle;
    batch.scatter_into(lane, vehicle.world_mut());
    *snap = VehicleSnapshot::of(vehicle);
    vehicle.post_step();
}

/// [`run_slot_leap`] plus the same EWMA cost observation as
/// [`run_slot_timed`]. The deferred physics cost lands in the batch
/// advance outside this timer — the estimate only steers
/// [`Partition::LoadBalanced`], never simulation state, so the skew is
/// harmless.
#[allow(clippy::disallowed_methods)] // mirror of the cd-lint allow below
fn run_slot_leap_timed(
    slot: &mut VehicleSlot,
    target: SimTime,
    snap: &mut VehicleSnapshot,
    cost: &mut f64,
    scratch: &mut ShardScratch,
) -> bool {
    // cd-lint: allow(wall_clock) -- cost-only EWMA observation for LPT shard balance; never feeds simulation state or the report
    let started = Instant::now();
    let deferred = run_slot_leap(slot, target, snap, &mut scratch.batch, &mut scratch.tapes);
    let observed = started.elapsed().as_secs_f64();
    *cost = if *cost == 0.0 {
        observed
    } else {
        0.5 * *cost + 0.5 * observed
    };
    deferred
}

/// [`run_slot_to`] plus cost observation: folds the measured wall time
/// of this batch into the vehicle's cost estimate (EWMA, so the balance
/// follows a rolling victim instead of averaging over the whole
/// history). The estimate feeds [`Partition::LoadBalanced`] and nothing
/// else — it never touches simulation state, so the nondeterminism of
/// wall-clock measurement cannot leak into the report. Shard membership
/// may differ from run to run, but the merge step replays deliveries in
/// deterministic order regardless of which thread produced them, which
/// is exactly what the cross-thread equivalence pins verify.
#[allow(clippy::disallowed_methods)] // mirror of the cd-lint allow below
fn run_slot_timed(
    slot: &mut VehicleSlot,
    target: SimTime,
    snap: &mut VehicleSnapshot,
    cost: &mut f64,
) {
    // cd-lint: allow(wall_clock) -- cost-only EWMA observation for LPT shard balance; never feeds simulation state or the report
    let started = Instant::now();
    run_slot_to(slot, target, snap);
    let observed = started.elapsed().as_secs_f64();
    *cost = if *cost == 0.0 {
        observed
    } else {
        0.5 * *cost + 0.5 * observed
    };
}

/// Assigns vehicle indices to at most `threads` bins. Contiguous: equal
/// index ranges. Load-balanced: greedy longest-processing-time — visit
/// vehicles heaviest-first (by observed cost) and give each to the
/// currently lightest bin, so a campaign that concentrates attacks on a
/// few victims spreads those hot vehicles across threads.
fn assign_shards(costs: &[f64], threads: usize, partition: Partition) -> Vec<Vec<usize>> {
    let n = costs.len();
    match partition {
        Partition::Contiguous => {
            let shard = n.div_ceil(threads);
            (0..n)
                .collect::<Vec<_>>()
                .chunks(shard)
                .map(<[usize]>::to_vec)
                .collect()
        }
        Partition::LoadBalanced => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                costs[b]
                    .partial_cmp(&costs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let mut loads = vec![0.0f64; threads];
            let mut bins: Vec<Vec<usize>> = vec![Vec::new(); threads];
            for i in order {
                let lightest = loads
                    .iter()
                    .enumerate()
                    .min_by(|(_, x), (_, y)| x.total_cmp(y))
                    .map(|(k, _)| k)
                    .expect("threads >= 1");
                bins[lightest].push(i);
                // A floor keeps all-zero first-round costs spreading
                // round-robin instead of piling into bin 0.
                loads[lightest] += costs[i].max(1e-9);
            }
            // Ascending index order within a bin: batches stay
            // cache-friendly and the walk order is reproducible.
            for bin in &mut bins {
                bin.sort_unstable();
            }
            bins.retain(|b| !b.is_empty());
            bins
        }
    }
}

/// The executor knobs for one poll-boundary batch: where to stop, how
/// wide to shard, how to partition, and which executor (leap/stepped)
/// advances each vehicle.
#[derive(Clone, Copy)]
struct ShardPlan {
    target: SimTime,
    threads: usize,
    partition: Partition,
    leap: bool,
}

/// Runs every slot up to `plan.target`, sharded over `plan.threads`
/// scoped worker threads under the configured [`Partition`]. Slots are
/// disjoint, so the only synchronisation is the scope join; snapshots
/// land in vehicle-index order regardless of which thread wrote them —
/// the partition decides *where* a vehicle computes, never *what*, so
/// the report is partition- and thread-count-independent by
/// construction. Returns the shard assignment used, `None` on the
/// serial path (which computes no bins — and must stay allocation-free
/// for the zero-alloc gate).
fn run_shards(
    slots: &mut [VehicleSlot],
    snapshots: &mut [VehicleSnapshot],
    costs: &mut [f64],
    scratch: &mut [ShardScratch],
    plan: ShardPlan,
) -> Option<Vec<Vec<usize>>> {
    let ShardPlan {
        target,
        threads,
        partition,
        leap,
    } = plan;
    if threads <= 1 || slots.len() <= 1 {
        if leap {
            // Index loops over pooled scratch: the serial leap path, like
            // the serial stepped path, allocates nothing in steady state.
            let scratch = &mut scratch[0];
            scratch.begin_window();
            for i in 0..slots.len() {
                if run_slot_leap_timed(
                    &mut slots[i],
                    target,
                    &mut snapshots[i],
                    &mut costs[i],
                    scratch,
                ) {
                    scratch.pending.push(i);
                }
            }
            let t0 = phase::now();
            scratch.batch.advance();
            scratch.physics_ns += phase::now() - t0;
            for (lane, &i) in scratch.pending.iter().enumerate() {
                finish_deferred_slot(&mut slots[i], &mut snapshots[i], &scratch.batch, lane);
            }
            scratch.batch.clear();
            scratch.pending.clear();
        } else {
            for ((slot, snap), cost) in slots
                .iter_mut()
                .zip(snapshots.iter_mut())
                .zip(costs.iter_mut())
            {
                run_slot_timed(slot, target, snap, cost);
            }
        }
        return None;
    }
    let bins = assign_shards(costs, threads, partition);
    // Split the disjoint `&mut` cells out of the slices and deal them to
    // their bins — safe non-contiguous sharding, no index arithmetic on
    // raw pointers.
    let mut cells: Vec<Option<(&mut VehicleSlot, &mut VehicleSnapshot, &mut f64)>> = slots
        .iter_mut()
        .zip(snapshots.iter_mut())
        .zip(costs.iter_mut())
        .map(|((slot, snap), cost)| Some((slot, snap, cost)))
        .collect();
    let work: Vec<Vec<_>> = bins
        .iter()
        .map(|bin| {
            bin.iter()
                .map(|&i| cells[i].take().expect("bins are disjoint"))
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for (batch, scratch) in work.into_iter().zip(scratch.iter_mut()) {
            scope.spawn(move || {
                if leap {
                    let mut batch = batch;
                    scratch.begin_window();
                    for (i, (slot, snap, cost)) in batch.iter_mut().enumerate() {
                        if run_slot_leap_timed(slot, target, snap, cost, scratch) {
                            scratch.pending.push(i);
                        }
                    }
                    let t0 = phase::now();
                    scratch.batch.advance();
                    scratch.physics_ns += phase::now() - t0;
                    for (lane, &i) in scratch.pending.iter().enumerate() {
                        let (slot, snap, _) = &mut batch[i];
                        finish_deferred_slot(slot, snap, &scratch.batch, lane);
                    }
                    scratch.batch.clear();
                    scratch.pending.clear();
                } else {
                    for (slot, snap, cost) in batch {
                        run_slot_timed(slot, target, snap, cost);
                    }
                }
            });
        }
    });
    if leap {
        unshare_diverged(slots, &bins, scratch);
    }
    Some(bins)
}

/// Keeps every class one machine state across shards: each shard of a
/// class recorded its own tape this window, and a shard's members still
/// share only if their tape recorded the same operations as the first
/// shard where the class is still shared. Members on a diverged shard
/// leave (their machines are exact; they just stop sharing).
fn unshare_diverged(slots: &mut [VehicleSlot], bins: &[Vec<usize>], scratch: &[ShardScratch]) {
    let classes = scratch.iter().map(|s| s.tapes.len()).max().unwrap_or(0);
    // Per class: the reference shard, and the verdict for the shard
    // compared against it last.
    let mut reference: Vec<Option<usize>> = vec![None; classes];
    let mut verdict: Vec<Option<(usize, bool)>> = vec![None; classes];
    let tape = |k: usize, c: usize| scratch[k].tapes[c].as_ref();
    for (k, bin) in bins.iter().enumerate() {
        for &i in bin {
            let Some(c) = slots[i].class else { continue };
            let k0 = *reference[c].get_or_insert(k);
            if k0 == k {
                continue;
            }
            let same = match verdict[c] {
                Some((kk, same)) if kk == k => same,
                _ => {
                    let same = match (tape(k0, c), tape(k, c)) {
                        (Some(a), Some(b)) => a.same_schedule(b),
                        _ => false,
                    };
                    verdict[c] = Some((k, same));
                    same
                }
            };
            if !same {
                slots[i].class = None;
                slots[i].left = Some(LeaveReason::Mismatch);
            }
        }
    }
}

/// A fleet mid-flight: N vehicles on one quantum clock, each over its
/// private bridge network, sharing the [`Airspace`] with the GCS, the
/// swarm coordination fabric and any hostile attacker nodes.
pub struct Fleet {
    slots: Vec<VehicleSlot>,
    airspace: Airspace,
    gcs: GroundStation,
    swarm: Option<SwarmLink>,
    attackers: Vec<AttackerNode>,
    /// Per-vehicle snapshots captured at the latest poll boundary.
    snapshots: Vec<VehicleSnapshot>,
    /// Observed per-batch step cost per vehicle (load-balancing weights).
    costs: Vec<f64>,
    /// One pooled leap scratch (SoA physics batch + deferred list) per
    /// worker thread.
    scratch: Vec<ShardScratch>,
    now: SimTime,
    end_of_flight: SimTime,
    next_poll: SimTime,
    poll_period: SimDuration,
    threads: usize,
    partition: Partition,
    leap: bool,
    /// Trace sink + metric handles, all-`None` unless attached — one
    /// branch per poll boundary when detached.
    obs: obs::FleetObs,
}

impl Fleet {
    /// Builds the whole fleet: N vehicle instances over private bridge
    /// networks, the compiled per-vehicle attack timelines, and the
    /// airspace with its tenants — the GCS and its radio uplinks, the
    /// V2V swarm fabric (when configured), and one attacker node per
    /// populated attacker partition (when the script schedules external
    /// attacks).
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet (`n_vehicles == 0`), and on a script
    /// that jams swarm ports of a fleet with no swarm configured.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.n_vehicles > 0, "a fleet needs at least one vehicle");
        let end_of_flight = SimTime::ZERO + config.base.duration;
        let per_vehicle = config.script.compile(config.n_vehicles, end_of_flight);

        let mut slots = Vec::with_capacity(config.n_vehicles);
        let mut scripts = Vec::with_capacity(config.n_vehicles);
        for (i, extra) in per_vehicle.into_iter().enumerate() {
            let mut cfg = config.base.clone();
            cfg.seed = cfg.seed.wrapping_add(i as u64);
            for entry in extra.entries() {
                cfg.attacks = cfg.attacks.at(entry.at, entry.event.clone());
            }
            let mut net = Network::new();
            net.set_bulk(config.bulk);
            scripts.push(cfg.attacks.clone());
            let vehicle = VehicleInstance::build(cfg, Vec::new(), &mut net);
            slots.push(VehicleSlot {
                net,
                vehicle,
                class: None,
                left: None,
            });
        }
        if config.leap && config.shared_sched {
            for (slot, class) in slots.iter_mut().zip(form_classes(&scripts)) {
                slot.class = class;
            }
        }
        let mut airspace = Airspace::build(config.n_vehicles, config.gcs.uplink);
        airspace.net_mut().set_bulk(config.bulk);
        let gcs = GroundStation::build(&mut airspace, &config.gcs);
        let swarm = config
            .swarm
            .as_ref()
            .map(|sc| SwarmLink::build(&mut airspace, sc));

        let attacker_entries = config.script.compile_attackers(config.n_vehicles);
        assert!(
            swarm.is_some()
                || attacker_entries
                    .iter()
                    .all(|e| !matches!(e.target, attacks::fleet::AttackerTarget::SwarmJam(_))),
            "SwarmJam targets need with_swarm(..): there is no V2V stream to jam"
        );
        let mut attackers = Vec::new();
        if !attacker_entries.is_empty() {
            let nodes = config.attacker.nodes.max(1);
            let mut per_node = vec![Vec::new(); nodes];
            for entry in attacker_entries {
                per_node[entry.target.vehicle() % nodes].push(entry);
            }
            for (k, entries) in per_node.into_iter().enumerate() {
                if !entries.is_empty() {
                    attackers.push(AttackerNode::build(
                        &mut airspace,
                        k,
                        entries,
                        &config.attacker,
                    ));
                }
            }
        }

        let n = slots.len();
        Fleet {
            slots,
            airspace,
            gcs,
            swarm,
            attackers,
            snapshots: vec![VehicleSnapshot::default(); n],
            costs: vec![0.0; n],
            scratch: std::iter::repeat_with(ShardScratch::default)
                .take(config.threads.max(1))
                .collect(),
            now: SimTime::ZERO,
            end_of_flight,
            next_poll: SimTime::ZERO,
            poll_period: SimDuration::from_hz(config.gcs.poll_hz),
            threads: config.threads.max(1),
            partition: config.partition,
            leap: config.leap,
            obs: obs::FleetObs::default(),
        }
    }

    /// Attaches a structured trace: every vehicle gets a pre-allocated
    /// event ring (this is the trace path's only allocation), and the
    /// coordinating thread drains all rings into `sink` at each poll
    /// boundary, in vehicle-index order. Under the sink's default
    /// [`cd_obs::TraceMask`] the JSONL stream is byte-identical at any
    /// thread count and partition; `TraceMask::ALL` adds the
    /// thread-count-dependent shard-rebalance events.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        // A poll window is ~2000 quanta; 4096 events per vehicle rides
        // out a skip storm without wrapping (wrap drops oldest + counts).
        const RING_CAPACITY: usize = 4096;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.vehicle.obs_port().attach(RING_CAPACITY, i as u32);
        }
        self.obs.ensure_ledgers(self.slots.len());
        self.obs.sink = Some(sink);
    }

    /// Registers the fleet's metric families in `registry` and wires the
    /// per-packet network counters of every bridge and the airspace to
    /// registered series. Totals and gauges are (re)published at every
    /// poll boundary; the network counters update live. Share the
    /// registry with [`cd_obs::server::serve`] to scrape a run in flight.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.obs.metrics = Some(obs::FleetMetrics::register(
            registry,
            self.slots.len(),
            self.threads,
        ));
        self.obs.ensure_ledgers(self.slots.len());
        let help = "Datagrams offered to the virtual networks, by admission result.";
        let counters = virt_net::net::NetCounters {
            admitted: registry
                .counter("cd_net_datagrams_total", help, &[("result", "admitted")])
                .shared(),
            dropped_ratelimit: registry
                .counter(
                    "cd_net_datagrams_total",
                    help,
                    &[("result", "dropped_ratelimit")],
                )
                .shared(),
            dropped_overflow: registry
                .counter(
                    "cd_net_datagrams_total",
                    help,
                    &[("result", "dropped_overflow")],
                )
                .shared(),
        };
        for slot in &mut self.slots {
            slot.net.set_counters(counters.clone());
        }
        self.airspace.net_mut().set_counters(counters);
    }

    /// Current fleet time (the common quantum clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of vehicles in the fleet.
    pub fn n_vehicles(&self) -> usize {
        self.slots.len()
    }

    /// One vehicle, by index.
    pub fn vehicle(&self, index: usize) -> &VehicleInstance {
        &self.slots[index].vehicle
    }

    /// The ground station.
    pub fn gcs(&self) -> &GroundStation {
        &self.gcs
    }

    /// The shared airspace topology (GCS, radios, and every peer that
    /// joined) — the inspection surface for tests and tooling that audit
    /// who is on the radio medium and how they are wired.
    pub fn airspace(&self) -> &Airspace {
        &self.airspace
    }

    /// The V2V swarm fabric, when configured.
    pub fn swarm(&self) -> Option<&SwarmLink> {
        self.swarm.as_ref()
    }

    /// The external attacker nodes spawned from the fleet script.
    pub fn attackers(&self) -> &[AttackerNode] {
        &self.attackers
    }

    /// Everything that happens *at* a poll boundary, in its pinned
    /// deterministic order: the GCS downlink fires from the snapshots,
    /// the swarm broadcasts its round, and the attacker nodes take their
    /// turn — all on the coordinating thread, all in vehicle-index (and
    /// attacker-index) order, so the wire traffic is identical under any
    /// thread count and any shard partition.
    fn merge_boundary(&mut self, now: SimTime) {
        self.gcs.poll(self.airspace.net_mut(), &self.snapshots, now);
        if let Some(swarm) = &mut self.swarm {
            swarm.exchange(self.airspace.net_mut(), &self.snapshots, now);
        }
        for node in &mut self.attackers {
            node.tick(self.airspace.net_mut(), now);
        }
    }

    /// Advances the airspace to the fleet clock and drains every
    /// coordinating-thread consumer (GCS views, swarm neighbor tables).
    fn settle_airspace(&mut self) {
        self.airspace.net_mut().step(self.now);
        self.gcs.drain(self.airspace.net_mut());
        if let Some(swarm) = &mut self.swarm {
            swarm.drain(self.airspace.net_mut(), &self.snapshots);
        }
    }

    /// Runs the fleet to completion on the configured executor and tears
    /// it down into the report. The wall-clock measurement taken here
    /// lands only in [`FleetReport::wall_clock`], a diagnostic field the
    /// equivalence tests explicitly exclude from byte comparison — every
    /// simulated quantity in the report derives from the virtual clock.
    pub fn run(self) -> FleetReport {
        self.run_observed(&mut ())
    }

    /// [`Fleet::run`] with an observer in the loop: `on_batch` fires
    /// after every completed poll-boundary batch (trace drained, metrics
    /// republished), `on_finish` with the final report. The observer only
    /// *reads* the fleet, so the run's bytes are unchanged by observation.
    #[allow(clippy::disallowed_methods)] // mirror of the cd-lint allow below
    pub fn run_observed(mut self, observer: &mut dyn FleetObserver) -> FleetReport {
        // cd-lint: allow(wall_clock) -- diagnostic wall_clock field only; excluded from report byte-comparison
        let started = Instant::now();
        self.run_to_end(observer);
        self.obs.flush();
        let mut report = self.finish();
        report.wall_clock = started.elapsed();
        observer.on_finish(&report);
        report
    }

    /// The batch executor behind [`Fleet::run`]: between GCS poll
    /// boundaries the vehicles are entirely independent, so each shard
    /// runs vehicle-at-a-time batches (cache-friendly: one vehicle's
    /// whole working set stays hot for thousands of quanta) and the
    /// threads only meet at poll boundaries. The airspace admits every
    /// packet at its own arrival time and steps once per batch, in link
    /// order; every thread count, partition and executor (leap, stepped,
    /// shared or not) runs this same batch schedule, so their reports
    /// are byte-identical.
    fn run_to_end(&mut self, observer: &mut dyn FleetObserver) {
        let threads = self.threads.clamp(1, self.slots.len());
        while self.run_batch(threads) {
            observer.on_batch(self);
        }
    }

    /// Advances the fleet in whole poll-boundary batches on the
    /// configured executor until the fleet clock reaches `target` (or
    /// every vehicle finishes). The incremental form of the executor
    /// behind [`Fleet::run`] — used to carve steady-state measurement
    /// windows (the allocation-regression gate) out of a batch-executed
    /// run. The final batch may overshoot `target` to its poll boundary.
    pub fn run_until(&mut self, target: SimTime) {
        let threads = self.threads.clamp(1, self.slots.len());
        while self.now < target && self.run_batch(threads) {}
    }

    /// One poll-boundary batch of the executor: shards the vehicles to
    /// the next poll boundary, merges, settles. Returns `false` when the
    /// fleet is done (every vehicle finished, now or earlier).
    fn run_batch(&mut self, threads: usize) -> bool {
        // The next poll boundary: the first quantum boundary past
        // `now` at which the poll is due.
        let mut target = self.now + SCHED_QUANTUM;
        while target < self.next_poll {
            target += SCHED_QUANTUM;
        }
        let bins = run_shards(
            &mut self.slots,
            &mut self.snapshots,
            &mut self.costs,
            &mut self.scratch,
            ShardPlan {
                target,
                threads,
                partition: self.partition,
                leap: self.leap,
            },
        );
        let furthest = self
            .slots
            .iter()
            .map(|s| s.vehicle.now())
            .max()
            .unwrap_or(self.now);
        if furthest <= self.now {
            return false; // every vehicle had already finished
        }
        self.now = furthest;
        if furthest == target {
            // At least one vehicle was still flying at the poll
            // quantum, so the quantum-stepped loop would have fired
            // the poll there too.
            self.merge_boundary(target);
            self.next_poll += self.poll_period;
        }
        self.settle_airspace();
        // Observation runs on every batch end (including the final
        // partial one, so trailing events drain): the batch sequence is
        // thread-count-independent, so so is the trace stream.
        self.observe_boundary(bins.as_deref());
        // `furthest < target` means the whole fleet finished before the
        // boundary.
        furthest >= target
    }

    /// The poll-boundary observation pass (no-op unless a trace sink or
    /// metrics registry is attached): drains every vehicle's trace ring
    /// in vehicle-index order, appends the fleet-scope per-window GCS and
    /// swarm delta events, and republishes every metric family.
    fn observe_boundary(&mut self, bins: Option<&[Vec<usize>]>) {
        if !self.obs.active() {
            return;
        }
        self.obs.boundary(
            &mut self.slots,
            self.airspace.net(),
            &self.gcs,
            self.swarm.as_ref(),
            &self.attackers,
            self.now,
            bins,
            &self.costs,
        );
    }

    /// Tears the fleet down into a [`FleetReport`] at the current time
    /// (`wall_clock` is left zero; [`Fleet::run`] fills it).
    pub fn finish(self) -> FleetReport {
        let Fleet {
            slots,
            airspace,
            gcs,
            swarm,
            attackers,
            now,
            end_of_flight,
            scratch,
            ..
        } = self;
        let net = airspace.net();
        let views = gcs.finish(net);
        let swarm_views = match swarm {
            Some(link) => link.finish(net),
            None => vec![SwarmView::default(); slots.len()],
        };
        let attacker_packets: u64 = attackers.iter().map(AttackerNode::packets_sent).sum();
        let mut net_packets = net.packets_sent();
        let outcomes: Vec<VehicleOutcome> = slots
            .into_iter()
            .zip(views)
            .zip(swarm_views)
            .enumerate()
            .map(|(index, ((slot, gcs_view), swarm_view))| {
                net_packets += slot.net.packets_sent();
                let result = slot.vehicle.finish(&slot.net);
                let from = result.attack_onset.unwrap_or(SimTime::from_secs(2));
                let max_deviation = result.max_deviation(from, end_of_flight);
                let deadline_skips = result
                    .task_report
                    .iter()
                    .map(|(_, stats)| stats.skips)
                    .sum();
                VehicleOutcome {
                    index,
                    seed: result.config.seed,
                    max_deviation,
                    deadline_skips,
                    gcs: gcs_view,
                    swarm: swarm_view,
                    result,
                }
            })
            .collect();
        let mut phase_ns = [0u64; phase::COUNT];
        for o in &outcomes {
            for (acc, v) in phase_ns.iter_mut().zip(o.result.phase_ns) {
                *acc += v;
            }
        }
        phase_ns[phase::PHYSICS] += scratch.iter().map(|s| s.physics_ns).sum::<u64>();
        FleetReport {
            sim_steps: outcomes.iter().map(|o| o.result.sim_steps).sum(),
            quanta_leaped: outcomes.iter().map(|o| o.result.quanta_leaped).sum(),
            phase_ns,
            net_packets,
            attacker_packets,
            duration: now,
            wall_clock: Duration::ZERO,
            outcomes,
        }
    }
}

/// One vehicle's end-of-flight outcome inside a fleet run.
#[derive(Debug)]
pub struct VehicleOutcome {
    /// The vehicle's index in the fleet.
    pub index: usize,
    /// The seed it flew with (`base.seed + index`).
    pub seed: u64,
    /// Max deviation from the hover setpoint between the first attack
    /// onset (or 2 s, when unattacked) and the end of flight, metres.
    pub max_deviation: f64,
    /// Periodic releases skipped across the vehicle's task set — the
    /// fleet-level deadline-miss indicator.
    pub deadline_skips: u64,
    /// What the ground station last knew about this vehicle.
    pub gcs: GcsView,
    /// What this vehicle's radio learned from the V2V coordination
    /// stream (all-default when the fleet flies without a swarm).
    pub swarm: SwarmView,
    /// The full per-vehicle result.
    pub result: ScenarioResult,
}

impl VehicleOutcome {
    /// Compact outcome classification: `crash`, `lost-ctl` or `stable`.
    pub fn verdict(&self) -> &'static str {
        if self.result.crashed() {
            "crash"
        } else if self.max_deviation > 2.0 {
            "lost-ctl"
        } else {
            "stable"
        }
    }
}

/// Aggregated results of one fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-vehicle outcomes, in vehicle order.
    pub outcomes: Vec<VehicleOutcome>,
    /// Scheduler quanta executed, summed over all vehicle machines (the
    /// fleet steps/sec numerator).
    pub sim_steps: u64,
    /// Of [`FleetReport::sim_steps`], the quanta the time-leap executor
    /// advanced in closed form instead of stepping individually. Always 0
    /// under `--no-leap`; everything else in the report is byte-identical
    /// either way (see [`FleetReport::quanta_stepped`]).
    pub quanta_leaped: u64,
    /// Wall-nanoseconds per executor phase, summed over vehicles and
    /// worker shards ([`containerdrone_core::phase`] indices). All-zero
    /// unless the phase clock is installed; under multi-threaded runs the
    /// phases sum CPU-time-like across threads, so they can exceed the
    /// run's wall clock.
    pub phase_ns: [u64; phase::COUNT],
    /// Datagrams offered to the bridge and airspace networks combined
    /// (streams, attacks and telemetry).
    pub net_packets: u64,
    /// Datagrams offered by external attacker nodes (a subset of
    /// `net_packets` — the hostile share of the airspace load).
    pub attacker_packets: u64,
    /// Fleet clock at teardown.
    pub duration: SimTime,
    /// Host wall-clock time of the run (zero unless produced by
    /// [`Fleet::run`]).
    pub wall_clock: Duration,
}

impl FleetReport {
    /// Column list of [`FleetReport::to_csv`], exposed so downstream
    /// artifact writers that prefix extra columns stay in lockstep.
    pub const CSV_HEADER: &'static str = "vehicle,seed,outcome,crashed,switch_s,\
         max_deviation_m,deadline_skips,gcs_packets,gcs_dropped,gcs_malformed,\
         gcs_last_seen_s,swarm_rx,swarm_jam_drops,swarm_min_sep_m";

    /// Quanta the executor stepped individually (the complement of
    /// [`FleetReport::quanta_leaped`]; equals `sim_steps` under
    /// `--no-leap`).
    pub fn quanta_stepped(&self) -> u64 {
        self.sim_steps - self.quanta_leaped
    }

    /// Number of vehicles that crashed.
    pub fn crashes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.crashed()).count()
    }

    /// Number of vehicles whose monitor performed the Simplex switch.
    pub fn switches(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.result.switch_time.is_some())
            .count()
    }

    /// Deadline skips summed over the fleet.
    pub fn total_deadline_skips(&self) -> u64 {
        self.outcomes.iter().map(|o| o.deadline_skips).sum()
    }

    /// One CSV row per vehicle — the fleet-campaign artifact shape, and
    /// the determinism witness (two same-seed runs, at any thread counts,
    /// must render identically).
    pub fn to_csv(&self) -> String {
        let mut csv = format!("{}\n", Self::CSV_HEADER);
        for o in &self.outcomes {
            csv.push_str(&format!(
                "{},{},{},{},{},{:.4},{},{},{},{},{},{},{},{}\n",
                o.index,
                o.seed,
                o.verdict(),
                o.result.crashed(),
                o.result
                    .switch_time
                    .map(|t| format!("{:.3}", t.as_secs_f64()))
                    .unwrap_or_default(),
                o.max_deviation,
                o.deadline_skips,
                o.gcs.packets,
                o.gcs.dropped_ratelimit,
                o.gcs.malformed,
                o.gcs
                    .last_seen
                    .map(|t| format!("{:.3}", t.as_secs_f64()))
                    .unwrap_or_default(),
                o.swarm.rx_msgs,
                o.swarm.dropped_jam,
                o.swarm
                    .min_separation
                    .map(|d| format!("{d:.3}"))
                    .unwrap_or_default(),
            ));
        }
        csv
    }
}

#[cfg(test)]
mod send_bounds {
    use super::*;

    /// The sharded executor moves whole vehicle slots (instance + bridge
    /// network, armed attacks included) onto scoped worker threads.
    #[test]
    fn vehicle_slot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<VehicleSlot>();
        assert_send::<VehicleSnapshot>();
    }
}
