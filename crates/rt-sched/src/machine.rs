//! The multicore machine: a quantum-stepped scheduler over a shared memory
//! system.
//!
//! Models the paper's RPi3B: four cores scheduled with Linux semantics
//! (FIFO/RR real-time classes preempting a CFS-like fair class, affinity
//! masks, cgroup cpusets) over one contended DRAM bus ([`membw`]). Task
//! execution progresses at a rate set by the memory model, so a bandwidth
//! hog on one core stretches the execution time of memory-heavy tasks on
//! every core — the physical mechanism behind the paper's Figure 4.

use std::collections::VecDeque;

use membw::dram::{CoreDemand, DramConfig, FairDrive, FairLeapStop, MemGuardConfig, MemorySystem};
use sim_core::time::{SimDuration, SimTime};

use crate::cgroup::{Cgroup, CgroupId};
use crate::task::{Activation, OverrunPolicy, SchedEvent, SchedPolicy, TaskId, TaskSpec};

/// Machine-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of CPU cores (the RPi3B has 4).
    pub n_cores: usize,
    /// Scheduler quantum; preemption and accounting granularity.
    pub quantum: SimDuration,
    /// DRAM model parameters.
    pub dram: DramConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_cores: 4,
            quantum: SimDuration::from_micros(50),
            dram: DramConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    release: SimTime,
    remaining: SimDuration,
}

#[derive(Debug)]
struct Task {
    spec: TaskSpec,
    cgroup: CgroupId,
    alive: bool,
    jobs: VecDeque<Job>,
    next_release: Option<SimTime>,
    /// FIFO ordering key: tasks that became runnable earlier run first
    /// within a priority level; RR rotation bumps it.
    fifo_seq: u64,
    vruntime: f64,
    slice_used: SimDuration,
    /// `true` while the task sits in the machine's ready queues. Kept in
    /// sync at every transition (release, injection, completion, kill) so
    /// dispatch never rescans the task table.
    ready: bool,
    stats: TaskStats,
}

impl Clone for Task {
    fn clone(&self) -> Self {
        Task {
            spec: self.spec.clone(),
            jobs: self.jobs.clone(),
            ..*self
        }
    }

    /// Field-wise: the name and job queue reuse their buffers.
    fn clone_from(&mut self, src: &Self) {
        self.spec.clone_from(&src.spec);
        self.cgroup = src.cgroup;
        self.alive = src.alive;
        self.jobs.clone_from(&src.jobs);
        self.next_release = src.next_release;
        self.fifo_seq = src.fifo_seq;
        self.vruntime = src.vruntime;
        self.slice_used = src.slice_used;
        self.ready = src.ready;
        self.stats = src.stats;
    }
}

/// Incrementally maintained ready queues — the replacement for the old
/// per-dispatch sort over every runnable task. Dispatch order is identical
/// to the sort it replaced: real-time tasks by (priority descending, FIFO
/// sequence ascending), then fair tasks by (vruntime, id).
#[derive(Debug)]
struct ReadyQueues {
    /// RT buckets indexed by `255 - priority` (bucket order = priority
    /// descending), each kept sorted ascending by FIFO sequence number.
    rt: Vec<Vec<(u64, TaskId)>>,
    /// Occupancy bitmap over `rt`: bit `b` of word `b / 64` is set iff
    /// bucket `b` is non-empty, so dispatch skips straight to occupied
    /// priority levels instead of scanning all 256.
    occupied: [u64; 4],
    /// Runnable fair tasks, unordered; ordered by vruntime at dispatch.
    fair: Vec<TaskId>,
    /// Bumped on every structural transition (insert, remove, RR
    /// reposition). While the epoch stands still the ready set — members
    /// *and* dispatch order — is provably unchanged, which is what lets
    /// [`Machine::assign_cores`] reuse the previous quantum's assignment.
    epoch: u64,
}

impl Clone for ReadyQueues {
    fn clone(&self) -> Self {
        ReadyQueues {
            rt: self.rt.clone(),
            fair: self.fair.clone(),
            ..*self
        }
    }

    /// Field-wise: every bucket reuses its buffer.
    fn clone_from(&mut self, src: &Self) {
        self.rt.clone_from(&src.rt);
        self.occupied = src.occupied;
        self.fair.clone_from(&src.fair);
        self.epoch = src.epoch;
    }
}

impl ReadyQueues {
    fn new() -> Self {
        ReadyQueues {
            rt: vec![Vec::new(); 256],
            occupied: [0; 4],
            fair: Vec::new(),
            epoch: 0,
        }
    }

    fn insert(&mut self, policy: &SchedPolicy, fifo_seq: u64, id: TaskId) {
        self.epoch += 1;
        match policy {
            SchedPolicy::Fifo { priority } | SchedPolicy::RoundRobin { priority, .. } => {
                let b = 255 - *priority as usize;
                let bucket = &mut self.rt[b];
                let pos = bucket.partition_point(|&(seq, _)| seq < fifo_seq);
                bucket.insert(pos, (fifo_seq, id));
                self.occupied[b / 64] |= 1 << (b % 64);
            }
            SchedPolicy::Fair { .. } => self.fair.push(id),
        }
    }

    fn remove(&mut self, policy: &SchedPolicy, fifo_seq: u64, id: TaskId) {
        self.epoch += 1;
        match policy {
            SchedPolicy::Fifo { priority } | SchedPolicy::RoundRobin { priority, .. } => {
                let b = 255 - *priority as usize;
                let bucket = &mut self.rt[b];
                let pos = bucket.partition_point(|&(seq, _)| seq < fifo_seq);
                debug_assert!(
                    bucket
                        .get(pos)
                        .is_some_and(|&(s, i)| s == fifo_seq && i == id),
                    "ready-queue entry must exist on removal"
                );
                bucket.remove(pos);
                if bucket.is_empty() {
                    self.occupied[b / 64] &= !(1 << (b % 64));
                }
            }
            SchedPolicy::Fair { .. } => {
                if let Some(pos) = self.fair.iter().position(|&t| t == id) {
                    self.fair.swap_remove(pos);
                }
            }
        }
    }

    /// RR slice expiry: the task moves to the back of its priority level.
    fn reposition(&mut self, policy: &SchedPolicy, old_seq: u64, new_seq: u64, id: TaskId) {
        self.remove(policy, old_seq, id);
        self.insert(policy, new_seq, id);
    }

    /// Visits every ready RT task in dispatch order (priority descending,
    /// FIFO sequence ascending); the callback returns `false` to stop.
    fn for_each_rt(&self, mut f: impl FnMut(TaskId) -> bool) {
        for (word_idx, &word) in self.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for &(_, tid) in &self.rt[b] {
                    if !f(tid) {
                        return;
                    }
                }
            }
        }
    }
}

/// Per-task execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskStats {
    /// Jobs completed.
    pub completions: u64,
    /// Periodic releases skipped due to overrun.
    pub skips: u64,
    /// Useful execution time accumulated (excludes memory stalls).
    pub useful_time: SimDuration,
    /// Wall time occupied on a core (includes stalls and throttling).
    pub busy_time: SimDuration,
    /// Sum of response times (release → completion) over all completions.
    pub response_sum: SimDuration,
    /// Largest observed response time.
    pub response_max: SimDuration,
}

/// Per-core accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Wall time a task occupied the core.
    pub busy: SimDuration,
    /// Portion of `busy` during which MemGuard held the core stalled.
    pub throttled: SimDuration,
}

/// Deterministic executor observability counters — plain integers fed
/// only by simulation state (never by wall clock or thread identity),
/// so they are identical across runs and safe to surface in traces and
/// live metrics. Cheap enough to maintain unconditionally: a handful of
/// integer increments per quantum/leap, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedObs {
    /// Quanta executed by [`Machine::step`].
    pub stepped_quanta: u64,
    /// Quanta advanced in closed form by [`Machine::leap_to`].
    pub leaped_quanta: u64,
    /// Full dispatch placements computed (`compute_assignment` runs).
    pub dispatch_recomputes: u64,
    /// Dispatches that reused the previous placement (epoch unchanged,
    /// ≤ 1 runnable fair task).
    pub dispatch_reuses: u64,
    /// Periodic releases skipped under the overrun skip policy, summed
    /// over all tasks — the live deadline-miss counter (the per-task
    /// split stays in [`TaskStats::skips`]).
    pub deadline_skips: u64,
    /// [`Machine::leap_to`] returns that stopped at a pending release
    /// boundary.
    pub leap_stops_release: u64,
    /// Returns that stopped short at an in-span bound (imminent
    /// completion, RR slice expiry, MemGuard cap or replenish).
    pub leap_stops_event: u64,
    /// Returns where no span class applied from the current state.
    pub leap_stops_declined: u64,
    /// Returns that reached the requested target.
    pub leap_stops_target: u64,
    /// Stop reason of the most recent [`Machine::leap_to`] return:
    /// `"release"`, `"event"`, `"declined"` or `"target"` (empty before
    /// the first leap).
    pub last_leap_stop: &'static str,
}

/// The simulated multicore machine.
///
/// # Examples
///
/// ```
/// use rt_sched::machine::{Machine, MachineConfig};
/// use rt_sched::task::{Cost, TaskSpec};
/// use sim_core::time::{SimDuration, SimTime};
///
/// let mut m = Machine::new(MachineConfig::default());
/// let root = m.root_cgroup();
/// m.spawn(
///     TaskSpec::periodic_fifo("drv", 90, SimDuration::from_millis(4),
///                             Cost::compute(SimDuration::from_micros(100))),
///     root,
/// );
/// let mut events = Vec::new();
/// m.step_until(SimTime::from_millis(20), &mut events);
/// assert!(events.len() >= 4); // ~5 completions in 20 ms at 250 Hz
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    now: SimTime,
    tasks: Vec<Task>,
    cgroups: Vec<Cgroup>,
    memory: MemorySystem,
    cores: Vec<CoreStats>,
    fifo_counter: u64,
    started: SimTime,
    ready: ReadyQueues,
    /// Scratch: the per-core assignment computed each quantum.
    assignment: Vec<Option<TaskId>>,
    /// Scratch: fair tasks ordered by (quantized vruntime, id) at dispatch.
    fair_scratch: Vec<(u64, u32)>,
    /// Scratch: per-core memory demands handed to the memory system.
    demands: Vec<CoreDemand>,
    /// Scratch: per-core progress written by the replayed memory quantum
    /// on the leap path.
    progress_scratch: Vec<f64>,
    /// Scratch: the fair dispatch order captured at the start of a
    /// replayed leap span, re-checked for stability every quantum.
    fair_order: Vec<(u64, u32)>,
    /// Ready-queue epoch the current `assignment` was computed against
    /// (`None` before the first dispatch). When the epoch is unchanged —
    /// and the fair class cannot reorder (≤ 1 runnable fair task) — the
    /// assignment is reused instead of recomputed.
    last_assign_epoch: Option<u64>,
    /// Debug-only scratch for the reuse cross-check (persistent so the
    /// verification itself stays allocation-free under the zero-alloc
    /// gate).
    #[cfg(debug_assertions)]
    assign_verify: Vec<Option<TaskId>>,
    /// Cache of the RT phase of [`Machine::compute_assignment`]: the
    /// placement with only the RT buckets placed, plus the free-core
    /// mask the fair fill starts from. The RT prefix is a pure function
    /// of the RT ready order and static affinities, both pinned by the
    /// ready epoch — so while `rt_epoch` matches, a recomputation (which
    /// multi-fair dispatch runs every quantum, because vruntimes move)
    /// only re-fills the fair slots.
    rt_assignment: Vec<Option<TaskId>>,
    /// Free-core mask left after the cached RT phase.
    rt_free_mask: u64,
    /// Ready-queue epoch `rt_assignment`/`rt_free_mask` were derived
    /// against (`None` before the first full walk).
    rt_epoch: Option<u64>,
    /// Earliest pending periodic release; quanta before it skip the
    /// release scan entirely (releases are ~10× rarer than quanta).
    next_release_hint: SimTime,
    /// Indices of periodic tasks, so the release scan touches nothing
    /// else. Kills are filtered by the `alive` flag at scan time.
    periodic_tasks: Vec<u32>,
    /// Executor observability counters (quanta, dispatches, skips, leap
    /// stop reasons). Deterministic: fed only by simulation state.
    obs: SchedObs,
}

impl Clone for Machine {
    fn clone(&self) -> Self {
        let mut m = Machine::new(self.config);
        m.clone_from(self);
        m
    }

    /// Field-wise and allocation-free once `self` has held a machine of
    /// the same shape (same task set, queue depths within the capacities
    /// it has already seen): every vector, queue and name reuses its
    /// buffer. This is what lets a fleet refresh pooled copies of a
    /// shared schedule's machine at every poll boundary for free.
    fn clone_from(&mut self, src: &Self) {
        self.config = src.config;
        self.now = src.now;
        self.tasks.clone_from(&src.tasks);
        self.cgroups.clone_from(&src.cgroups);
        self.memory.clone_from(&src.memory);
        self.cores.clone_from(&src.cores);
        self.fifo_counter = src.fifo_counter;
        self.started = src.started;
        self.ready.clone_from(&src.ready);
        self.assignment.clone_from(&src.assignment);
        self.fair_scratch.clone_from(&src.fair_scratch);
        self.demands.clone_from(&src.demands);
        self.progress_scratch.clone_from(&src.progress_scratch);
        self.fair_order.clone_from(&src.fair_order);
        self.last_assign_epoch = src.last_assign_epoch;
        #[cfg(debug_assertions)]
        self.assign_verify.clone_from(&src.assign_verify);
        self.rt_assignment.clone_from(&src.rt_assignment);
        self.rt_free_mask = src.rt_free_mask;
        self.rt_epoch = src.rt_epoch;
        self.next_release_hint = src.next_release_hint;
        self.periodic_tasks.clone_from(&src.periodic_tasks);
        self.obs = src.obs;
    }
}

impl Machine {
    /// Creates a machine with the root cgroup.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or the quantum is zero.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.n_cores > 0, "need at least one core");
        assert!(
            config.quantum > SimDuration::ZERO,
            "quantum must be positive"
        );
        Machine {
            now: SimTime::ZERO,
            tasks: Vec::new(),
            cgroups: vec![Cgroup::root()],
            memory: MemorySystem::new(config.n_cores, config.dram),
            cores: vec![CoreStats::default(); config.n_cores],
            fifo_counter: 0,
            started: SimTime::ZERO,
            ready: ReadyQueues::new(),
            assignment: Vec::with_capacity(config.n_cores),
            last_assign_epoch: None,
            #[cfg(debug_assertions)]
            assign_verify: Vec::with_capacity(config.n_cores),
            rt_assignment: Vec::with_capacity(config.n_cores),
            rt_free_mask: 0,
            rt_epoch: None,
            fair_scratch: Vec::new(),
            demands: Vec::with_capacity(config.n_cores),
            progress_scratch: vec![0.0; config.n_cores],
            fair_order: Vec::new(),
            next_release_hint: SimTime::MAX,
            periodic_tasks: Vec::new(),
            obs: SchedObs::default(),
            config,
        }
    }

    /// Executor observability counters.
    pub fn obs(&self) -> &SchedObs {
        &self.obs
    }

    /// Current machine time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The root cgroup id.
    pub fn root_cgroup(&self) -> CgroupId {
        CgroupId(0)
    }

    /// Registers a cgroup and returns its id.
    pub fn add_cgroup(&mut self, cgroup: Cgroup) -> CgroupId {
        let id = CgroupId(self.cgroups.len() as u32);
        self.cgroups.push(cgroup);
        id
    }

    /// Looks up a cgroup.
    pub fn cgroup(&self, id: CgroupId) -> &Cgroup {
        &self.cgroups[id.0 as usize]
    }

    /// Spawns a task in `cgroup`. The cgroup's restrictions apply: RT
    /// requests are demoted in no-RT groups, affinity is intersected with
    /// the cpuset.
    pub fn spawn(&mut self, spec: TaskSpec, cgroup: CgroupId) -> TaskId {
        let g = &self.cgroups[cgroup.0 as usize];
        let mut spec = spec;
        spec.policy = g.effective_policy(spec.policy);
        spec.affinity = g.effective_affinity(spec.affinity);

        let next_release = match spec.activation {
            Activation::Periodic { offset, .. } => Some(self.now + offset),
            _ => None,
        };
        let id = TaskId(self.tasks.len() as u32);
        self.fifo_counter += 1;
        // New fair tasks adopt the max vruntime so they don't starve others.
        let vruntime = self
            .tasks
            .iter()
            .filter(|t| t.alive && matches!(t.spec.policy, SchedPolicy::Fair { .. }))
            .map(|t| t.vruntime)
            .fold(0.0, f64::max);
        // Busy tasks are always runnable; everything else becomes ready on
        // its first release/injection.
        let ready = matches!(spec.activation, Activation::Busy);
        if ready {
            self.ready.insert(&spec.policy, self.fifo_counter, id);
        }
        if let Some(release) = next_release {
            self.next_release_hint = self.next_release_hint.min(release);
            self.periodic_tasks.push(id.0);
        }
        self.tasks.push(Task {
            spec,
            cgroup,
            alive: true,
            jobs: VecDeque::new(),
            next_release,
            fifo_seq: self.fifo_counter,
            vruntime,
            slice_used: SimDuration::ZERO,
            ready,
            stats: TaskStats::default(),
        });
        id
    }

    /// Kills a task: it stops running and releasing jobs immediately.
    /// Killing an already-dead task is a no-op.
    pub fn kill(&mut self, id: TaskId) {
        if let Some(t) = self.tasks.get_mut(id.index()) {
            t.alive = false;
            t.jobs.clear();
            if t.ready {
                t.ready = false;
                self.ready.remove(&t.spec.policy, t.fifo_seq, id);
            }
        }
    }

    /// `true` if the task exists and has not been killed.
    pub fn is_alive(&self, id: TaskId) -> bool {
        self.tasks.get(id.index()).is_some_and(|t| t.alive)
    }

    /// Injects `count` jobs into a sporadic task (e.g. one per received
    /// packet). Ignored for dead or non-sporadic tasks.
    pub fn inject_job(&mut self, id: TaskId, count: usize) {
        let now = self.now;
        if let Some(t) = self.tasks.get_mut(id.index()) {
            if t.alive && matches!(t.spec.activation, Activation::Sporadic) {
                for _ in 0..count {
                    t.jobs.push_back(Job {
                        release: now,
                        remaining: t.spec.cost.cpu,
                    });
                }
                if count > 0 && !t.ready {
                    t.ready = true;
                    self.ready.insert(&t.spec.policy, t.fifo_seq, id);
                }
            }
        }
    }

    /// Number of queued (unfinished) jobs of a task.
    pub fn queued_jobs(&self, id: TaskId) -> usize {
        self.tasks.get(id.index()).map_or(0, |t| t.jobs.len())
    }

    /// Per-task statistics.
    pub fn task_stats(&self, id: TaskId) -> TaskStats {
        self.tasks
            .get(id.index())
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// The task's display name.
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.tasks[id.index()].spec.name
    }

    /// The cgroup a task was spawned into.
    pub fn task_cgroup(&self, id: TaskId) -> CgroupId {
        self.tasks[id.index()].cgroup
    }

    /// Per-core accounting since the last [`Machine::reset_accounting`].
    pub fn core_stats(&self) -> &[CoreStats] {
        &self.cores
    }

    /// Idle fraction of each core since the last accounting reset —
    /// the measurement reported in the paper's Table II.
    pub fn idle_rates(&self) -> Vec<f64> {
        let elapsed = self.now.saturating_since(self.started).as_secs_f64();
        if elapsed <= 0.0 {
            return vec![1.0; self.config.n_cores];
        }
        self.cores
            .iter()
            .map(|c| (1.0 - c.busy.as_secs_f64() / elapsed).clamp(0.0, 1.0))
            .collect()
    }

    /// Clears per-core accounting (per-task stats are kept).
    pub fn reset_accounting(&mut self) {
        self.cores = vec![CoreStats::default(); self.config.n_cores];
        self.started = self.now;
    }

    /// Read access to the shared memory system.
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Enables MemGuard with the given regulation config.
    pub fn enable_memguard(&mut self, config: MemGuardConfig) {
        self.memory.enable_memguard(config);
    }

    /// Advances exactly one quantum, appending events to `events`.
    pub fn step(&mut self, events: &mut Vec<SchedEvent>) {
        let dt = self.config.quantum;
        self.obs.stepped_quanta += 1;
        self.release_due_jobs(events);

        self.assign_cores();

        // Memory system: demands of the running tasks.
        self.demands.clear();
        self.demands
            .resize(self.config.n_cores, CoreDemand::default());
        for (core, slot) in self.assignment.iter().enumerate() {
            if let Some(tid) = slot {
                let cost = &self.tasks[tid.index()].spec.cost;
                self.demands[core] = CoreDemand {
                    bandwidth: cost.mem_bandwidth,
                    stall_fraction: cost.stall_fraction,
                    streaming: cost.streaming,
                };
            }
        }
        let outcomes = self.memory.quantum(self.now, dt, &self.demands);

        let quantum_end = self.now + dt;
        for (core, slot) in self.assignment.iter().enumerate() {
            let Some(tid) = slot else { continue };
            let task = &mut self.tasks[tid.index()];
            let out = outcomes[core];

            // Useful progress this quantum (zero while throttled).
            let progress = dt.mul_f64(out.progress);

            let (used_wall, finished) = {
                let job = match task.jobs.front_mut() {
                    Some(j) => j,
                    None => {
                        debug_assert!(
                            matches!(task.spec.activation, Activation::Busy),
                            "running task without a job must be Busy"
                        );
                        // Busy tasks consume the whole quantum.
                        task.stats.useful_time += progress;
                        task.stats.busy_time += dt;
                        self.cores[core].busy += dt;
                        if out.throttled {
                            self.cores[core].throttled += dt;
                        }
                        task.vruntime += dt.as_secs_f64() * vruntime_scale(&task.spec.policy);
                        task.slice_used += dt;
                        // Round-robin rotation applies to busy tasks too.
                        rotate_rr_on_slice_expiry(
                            task,
                            &mut self.fifo_counter,
                            &mut self.ready,
                            *tid,
                        );
                        continue;
                    }
                };
                if progress >= job.remaining && out.progress > 0.0 {
                    // Completes mid-quantum; credit only the wall time used.
                    let wall =
                        dt.mul_f64(job.remaining.as_secs_f64() / progress.as_secs_f64().max(1e-12));
                    job.remaining = SimDuration::ZERO;
                    (wall, true)
                } else {
                    job.remaining -= progress;
                    (dt, false)
                }
            };

            task.stats.busy_time += used_wall;
            task.stats.useful_time += progress.min(task.spec.cost.cpu);
            self.cores[core].busy += used_wall;
            if out.throttled {
                self.cores[core].throttled += used_wall;
            }
            task.vruntime += used_wall.as_secs_f64() * vruntime_scale(&task.spec.policy);
            task.slice_used += used_wall;

            if finished {
                let job = task.jobs.pop_front().expect("finished job exists");
                task.stats.completions += 1;
                let response = quantum_end.saturating_since(job.release);
                task.stats.response_sum += response;
                task.stats.response_max = task.stats.response_max.max(response);
                task.slice_used = SimDuration::ZERO;
                events.push(SchedEvent::JobCompleted {
                    task: *tid,
                    release: job.release,
                    completion: quantum_end,
                });
                // Out of work: leave the ready queues until the next
                // release or injection.
                if task.jobs.is_empty() && task.ready {
                    task.ready = false;
                    self.ready.remove(&task.spec.policy, task.fifo_seq, *tid);
                }
            }

            // Round-robin rotation on slice expiry.
            rotate_rr_on_slice_expiry(task, &mut self.fifo_counter, &mut self.ready, *tid);
        }

        self.now = quantum_end;
    }

    /// Advances to `target`, appending events.
    pub fn step_until(&mut self, target: SimTime, events: &mut Vec<SchedEvent>) {
        while self.now + self.config.quantum <= target {
            self.step(events);
        }
    }

    /// `true` when no task is runnable: until the next periodic release
    /// (or an external injection) every quantum is pure bookkeeping.
    pub fn is_idle(&self) -> bool {
        self.ready.occupied == [0; 4] && self.ready.fair.is_empty()
    }

    /// The earliest instant at which the machine's scheduling state can
    /// change, assuming no external call (injection, kill, spawn) arrives
    /// first: the next periodic release, the earliest possible running-job
    /// completion (a lower bound — contention and throttling only push
    /// completions later), the next round-robin slice expiry, and — when
    /// some core has exhausted its MemGuard budget — the next replenish
    /// (which flips that core's throttle state). Quanta strictly before
    /// the returned time neither produce events nor alter the dispatch
    /// decision, which is what makes them leapable.
    pub fn next_interesting_time(&self) -> SimTime {
        let dt_ns = self.config.quantum.as_nanos();
        let dt = self.config.quantum;
        let mut t = self.next_release_hint;
        if let Some(nr) = self.memory.next_replenish_time() {
            if (0..self.config.n_cores).any(|i| self.memory.core_exhausted(i)) {
                t = t.min(nr);
            }
        }
        let now = self.now;
        let tasks = &self.tasks;
        let mut visit = |tid: TaskId| {
            let task = &tasks[tid.index()];
            if let Some(job) = task.jobs.front() {
                // Progress per quantum never exceeds the quantum itself.
                let j = job.remaining.as_nanos().div_ceil(dt_ns).max(1);
                t = t.min(now + dt * j);
            }
            if let SchedPolicy::RoundRobin { slice, .. } = task.spec.policy {
                let rem = slice.saturating_sub(task.slice_used);
                let j = rem.as_nanos().div_ceil(dt_ns).max(1);
                t = t.min(now + dt * j);
            }
        };
        self.ready.for_each_rt(|tid| {
            visit(tid);
            true
        });
        for &id in &self.ready.fair {
            visit(id);
        }
        t.max(self.now)
    }

    /// Number of whole quanta starting strictly before `t`, from `now`.
    fn quanta_before(&self, t: SimTime) -> u64 {
        if t <= self.now {
            0
        } else {
            (t - self.now)
                .as_nanos()
                .div_ceil(self.config.quantum.as_nanos())
        }
    }

    /// Advances toward `target` by leaping provably inert quantum spans in
    /// closed form instead of stepping them one by one. Returns the number
    /// of quanta leaped; `now` advances by exactly that many quanta.
    ///
    /// Leaped quanta are bit-identical to stepped ones and produce no
    /// events; the caller steps normally from wherever the leap stops (a
    /// release boundary, a completion, an RR expiry, a replenish under an
    /// exhausted budget, or a span no leap form covers). Three span
    /// classes are leaped:
    ///
    /// - **Idle**: no task is runnable. Quanta before the next release do
    ///   nothing but advance time and tick the memory regulator, which
    ///   [`MemorySystem::leap_idle`] replays exactly.
    /// - **Uncontended running spans** (closed form): the previous
    ///   assignment is provably reusable (unchanged ready epoch, ≤ 1
    ///   runnable fair task) and at most one assigned core carries live,
    ///   latency-bound memory demand — every other core is compute-only
    ///   (progress exactly one quantum) or throttled (progress exactly
    ///   zero). Per-quantum task arithmetic is a constant, so integer
    ///   counters multiply out and the fair-class `vruntime` accumulates
    ///   the identical per-quantum product in a loop (repeated f64
    ///   addition is not multiplication, so the loop is kept).
    /// - **Contended running spans** (replay): several memory-active
    ///   cores, streaming demand, or multiple runnable fair tasks. The
    ///   exact per-quantum arithmetic — the DRAM contention recurrence
    ///   via [`MemorySystem::replay_quantum`] plus the stepped task
    ///   updates — is replayed against the pinned assignment, skipping
    ///   only the dispatch machinery that is provably inert; stability
    ///   (no completion, no budget cap, unchanged fair dispatch order)
    ///   is re-checked before every replayed quantum.
    ///
    /// Spans never cross a release, a completion, an RR slice expiry, or
    /// (for throttled cores) a budget replenish.
    pub fn leap_to(&mut self, target: SimTime) -> u64 {
        let dt = self.config.quantum;
        let dt_ns = dt.as_nanos();
        let mut leaped = 0u64;
        let leaped = loop {
            let span = target.saturating_since(self.now).as_nanos() / dt_ns;
            if span == 0 {
                self.obs.leap_stops_target += 1;
                self.obs.last_leap_stop = "target";
                break leaped;
            }
            // Release bound: leapable quanta start strictly before the
            // next pending release (releases fire at quantum start).
            let k_rel = if self.next_release_hint == SimTime::MAX {
                span
            } else {
                span.min(self.quanta_before(self.next_release_hint))
            };
            if k_rel == 0 {
                self.obs.leap_stops_release += 1;
                self.obs.last_leap_stop = "release";
                break leaped;
            }

            if self.is_idle() {
                self.memory.leap_idle(self.now, dt, k_rel);
                self.now += dt * k_rel;
                leaped += k_rel;
                if k_rel < span {
                    // Stopped at the release boundary.
                    self.obs.leap_stops_release += 1;
                    self.obs.last_leap_stop = "release";
                    break leaped;
                }
                continue;
            }

            let k = self.leap_running_span(k_rel);
            if k == 0 {
                self.obs.leap_stops_declined += 1;
                self.obs.last_leap_stop = "declined";
                break leaped;
            }
            leaped += k;
            if k < k_rel {
                // An in-span bound fired; caller steps it.
                self.obs.leap_stops_event += 1;
                self.obs.last_leap_stop = "event";
                break leaped;
            }
        };
        self.obs.leaped_quanta += leaped;
        leaped
    }

    /// One attempt at a stable running-span leap of at most `max_k` quanta
    /// (see [`Machine::leap_to`]). Returns the quanta actually leaped
    /// (0 = not closed-formable from this state).
    fn leap_running_span(&mut self, max_k: u64) -> u64 {
        let multi_fair = self.ready.fair.len() > 1;
        if multi_fair || self.last_assign_epoch != Some(self.ready.epoch) {
            // Same recompute-or-reuse decision `assign_cores` makes at
            // dispatch: a stale epoch or a reorderable fair class means
            // the placement must be re-derived — the identical pure
            // function of the same inputs, so a declined leap leaves
            // exactly the state the next `step` would compute anyway.
            self.obs.dispatch_recomputes += 1;
            self.compute_assignment();
            self.last_assign_epoch = Some(self.ready.epoch);
        }
        let dt = self.config.quantum;
        let dt_ns = dt.as_nanos();
        let mut k = max_k;
        let mut traffic = 0usize;
        let mut streaming_any = false;
        let mut throttled_mask = 0u64;
        let mut single_active: Option<(usize, CoreDemand)> = None;
        for core in 0..self.assignment.len() {
            let Some(tid) = self.assignment[core] else {
                continue;
            };
            let task = &self.tasks[tid.index()];
            if self.memory.core_exhausted(core) {
                // Throttled: stable only until the replenish un-throttles
                // the core.
                let Some(nr) = self.memory.next_replenish_time() else {
                    return 0;
                };
                if nr <= self.now {
                    return 0;
                }
                k = k.min(self.quanta_before(nr));
                throttled_mask |= 1 << core;
            } else {
                let cost = &task.spec.cost;
                if cost.mem_bandwidth != 0.0 || cost.stall_fraction != 0.0 || cost.streaming {
                    traffic += 1;
                    streaming_any |= cost.streaming;
                    single_active = Some((
                        core,
                        CoreDemand {
                            bandwidth: cost.mem_bandwidth,
                            stall_fraction: cost.stall_fraction,
                            streaming: cost.streaming,
                        },
                    ));
                }
            }
            if let SchedPolicy::RoundRobin { slice, .. } = task.spec.policy {
                let rem = slice.saturating_sub(task.slice_used);
                let j_rot = rem.as_nanos().div_ceil(dt_ns);
                k = k.min(j_rot.saturating_sub(1));
            }
            if k == 0 {
                return 0;
            }
        }

        if traffic <= 1 && !streaming_any {
            let leaped = if multi_fair {
                // Several runnable fair tasks, but the steady regime
                // (one fair-hosting core, ≤ 1 demand core) still avoids
                // the full per-quantum replay.
                self.leap_fair_span(k, throttled_mask)
            } else {
                self.leap_uncontended_span(k, single_active)
            };
            if leaped > 0 {
                return leaped;
            }
            // Fall through to the replay: e.g. residual cross-core
            // contention from the previous quantum still dilates the
            // single active core, which the closed forms refuse.
        }
        self.leap_replay_span(k, multi_fair, throttled_mask)
    }

    /// The closed-form span leap for the uncontended regimes: every
    /// assigned core is compute-only, throttled, or the *single* core
    /// with live latency-bound demand (zero cross-core contention ⇒
    /// exactly full progress). Per-quantum task arithmetic is a constant,
    /// so integer counters multiply out and the memory side collapses to
    /// [`MemorySystem::leap_idle`] / [`MemorySystem::leap_one_active`].
    /// Returns the quanta leaped (0 = the closed form declined).
    fn leap_uncontended_span(&mut self, mut k: u64, active: Option<(usize, CoreDemand)>) -> u64 {
        let dt = self.config.quantum;
        let dt_ns = dt.as_nanos();
        // Progress is exactly one quantum per quantum on unthrottled
        // cores in this regime: stop before the completing quantum.
        for core in 0..self.assignment.len() {
            let Some(tid) = self.assignment[core] else {
                continue;
            };
            if self.memory.core_exhausted(core) {
                continue; // zero progress: cannot complete
            }
            if let Some(job) = self.tasks[tid.index()].jobs.front() {
                let j_comp = job.remaining.as_nanos().div_ceil(dt_ns).max(1);
                k = k.min(j_comp - 1);
            }
        }
        if k == 0 {
            return 0;
        }

        // Apply the memory side first — it can shorten the span further
        // (the active core's budget capping mid-span) — then multiply out
        // the constant per-quantum task arithmetic.
        match active {
            Some((core, demand)) => {
                k = self.memory.leap_one_active(self.now, dt, core, &demand, k);
                if k == 0 {
                    return 0;
                }
            }
            None => self.memory.leap_idle(self.now, dt, k),
        }
        for core in 0..self.assignment.len() {
            let Some(tid) = self.assignment[core] else {
                continue;
            };
            // Unchanged by the leap: exhausted cores stay exhausted (the
            // span ends before their replenish), unexhausted ones move no
            // lines.
            let throttled = self.memory.core_exhausted(core);
            let task = &mut self.tasks[tid.index()];
            let per_q_useful = if throttled {
                SimDuration::ZERO
            } else if let Some(job) = task.jobs.front_mut() {
                job.remaining -= dt * k;
                dt.min(task.spec.cost.cpu)
            } else {
                dt
            };
            task.stats.useful_time += per_q_useful * k;
            task.stats.busy_time += dt * k;
            self.cores[core].busy += dt * k;
            if throttled {
                self.cores[core].throttled += dt * k;
            }
            let scale = vruntime_scale(&task.spec.policy);
            if scale != 0.0 {
                // The stepped path adds the same product every quantum;
                // repeated addition is kept because it is not equivalent
                // to one multiplication in f64.
                let inc = dt.as_secs_f64() * scale;
                for _ in 0..k {
                    task.vruntime += inc;
                }
            }
            task.slice_used += dt * k;
        }
        self.now += dt * k;
        k
    }

    /// The span leap for the multi-fair steady state — the flood
    /// regime: several *runnable* fair tasks, but exactly one assigned
    /// core hosts a fair (vruntime-scaled) runner, at most that same
    /// core carries live latency-bound demand, and no other core has
    /// residual service from the previous quantum.
    ///
    /// In that regime every per-quantum effect the general replay
    /// computes is a constant except three f64 accumulations: the
    /// runner's `vruntime`, the active core's MemGuard budget draw, and
    /// its line counter. [`MemorySystem::leap_fair_active`] replays
    /// those three in a micro-loop (repeated f64 addition is not one
    /// multiplication) with the fair-rotation stability check folded
    /// into a single quantized-key comparison — only the runner's key
    /// moves, and only upward, so the first possible inversion of the
    /// sorted capture is against its immediate successor. Everything
    /// else — task stats, job progress, core counters — multiplies out
    /// per segment in integer nanoseconds.
    ///
    /// Fair rotations are resolved in-span without re-running the full
    /// placement. That is sound because the span pins every input the
    /// placement is a function of: the ready epoch cannot move (no
    /// release, completion, or external call mid-span), so the RT
    /// prefix and the free-core set are fixed, and the entry check
    /// proves every runnable fair task's affinity admits exactly one
    /// free core — the fair core. The fair fill then always places the
    /// head of the (quantized vruntime, id) order there and nothing
    /// else, so a rotation reduces to re-sorting one moved key in the
    /// maintained ladder (the sorted order over distinct ids is unique,
    /// so the incremental re-sort equals a fresh capture) and swapping
    /// the runner. Segment bounds that depend on the runner are then
    /// re-derived; bounds for the frozen RT cores are computed once at
    /// entry in absolute span quanta (their jobs progress exactly one
    /// quantum per quantum, so the entry bound stays exact). Returns
    /// the quanta leaped (0 = declined to the general replay).
    fn leap_fair_span(&mut self, max_k: u64, throttled_mask: u64) -> u64 {
        let dt = self.config.quantum;
        let dt_ns = dt.as_nanos();
        let mut bound = max_k;

        // --- span entry: prove the regime once. Nothing is mutated
        // --- until the first segment advances, so a decline is free.
        let mut fair_core = usize::MAX;
        let mut rid = TaskId(0);
        for core in 0..self.assignment.len() {
            let Some(tid) = self.assignment[core] else {
                continue;
            };
            let task = &self.tasks[tid.index()];
            if vruntime_scale(&task.spec.policy) != 0.0 {
                if fair_core != usize::MAX {
                    return 0; // two moving vruntime keys
                }
                fair_core = core;
                rid = tid;
                continue;
            }
            // Frozen non-fair cores: fold their completion bounds into
            // the span bound once, in absolute span quanta (exactly one
            // quantum of progress per quantum keeps them exact).
            if throttled_mask >> core & 1 == 0 {
                let cost = &task.spec.cost;
                if cost.mem_bandwidth != 0.0 || cost.stall_fraction != 0.0 || cost.streaming {
                    return 0; // demand off the fair core: replay territory
                }
                if let Some(job) = self.tasks[tid.index()].jobs.front() {
                    let j_comp = job.remaining.as_nanos().div_ceil(dt_ns).max(1);
                    bound = bound.min(j_comp - 1);
                }
            }
        }
        if fair_core == usize::MAX {
            return 0; // static keys: the general replay's case
        }
        // Every runnable fair task must be vruntime-scaled (no
        // round-robin slice bounds to track) and placeable on exactly
        // one free core — the fair core. Then the fair fill is the
        // ladder head by construction, rotations never move the fair
        // class anywhere else, and no second fair task gets a core.
        debug_assert_eq!(self.rt_epoch, Some(self.ready.epoch));
        for &id in &self.ready.fair {
            let task = &self.tasks[id.index()];
            if vruntime_scale(&task.spec.policy) == 0.0
                || task.spec.affinity.bits() & self.rt_free_mask != 1 << fair_core
            {
                return 0;
            }
        }
        if self
            .memory
            .prev_served()
            .iter()
            .enumerate()
            .any(|(i, &s)| i != fair_core && s != 0.0)
        {
            // Residual cross-core service: the contention recurrence
            // does not collapse to constants. (The fair core's own
            // residue is fine — a core never contends with itself.)
            return 0;
        }
        let runner_throttled = throttled_mask >> fair_core & 1 == 1;

        // The fair dispatch ladder, maintained across rotations.
        self.capture_fair_order();
        debug_assert!(self.fair_order.len() > 1, "multi-fair span needs a ladder");
        debug_assert_eq!(self.fair_order[0].1, rid.0, "runner must head the ladder");

        let mut leaped = 0u64;
        'segments: while leaped < bound {
            let task = &self.tasks[rid.index()];
            let cost = &task.spec.cost;
            if cost.streaming {
                break 'segments; // a streaming runner rotated in
            }
            let active = (!runner_throttled
                && (cost.mem_bandwidth != 0.0 || cost.stall_fraction != 0.0))
                .then_some((
                    fair_core,
                    CoreDemand {
                        bandwidth: cost.mem_bandwidth,
                        stall_fraction: cost.stall_fraction,
                        streaming: false,
                    },
                ));
            let inc = dt.as_secs_f64() * vruntime_scale(&task.spec.policy);
            let mut vr = task.vruntime;
            // Stop before the runner's own completing quantum (progress
            // is exactly one quantum per quantum unless throttled).
            let mut seg = bound - leaped;
            if !runner_throttled {
                if let Some(job) = task.jobs.front() {
                    let j_comp = job.remaining.as_nanos().div_ceil(dt_ns).max(1);
                    seg = seg.min(j_comp - 1);
                }
            }
            if seg == 0 {
                break 'segments;
            }
            let stop = (self.fair_order[1].0, self.fair_order[1].1, rid.0);
            let drive = FairDrive {
                acc: &mut vr,
                inc,
                stop: Some(stop),
            };
            let (k, stop_reason) = self
                .memory
                .leap_fair_active(self.now, dt, active, drive, seg);

            if k > 0 {
                // Bulk-apply the constant per-quantum task arithmetic —
                // the exact stepped updates with progress pinned at one
                // quantum (unthrottled) or zero (throttled).
                for core in 0..self.assignment.len() {
                    let Some(tid) = self.assignment[core] else {
                        continue;
                    };
                    let throttled = throttled_mask >> core & 1 == 1;
                    let task = &mut self.tasks[tid.index()];
                    task.stats.busy_time += dt * k;
                    if !throttled {
                        match task.jobs.front_mut() {
                            None => task.stats.useful_time += dt * k,
                            Some(job) => {
                                // No completion: every bound stops
                                // strictly before remaining ≤ dt.
                                job.remaining -= dt * k;
                                task.stats.useful_time += dt.min(task.spec.cost.cpu) * k;
                            }
                        }
                    }
                    task.slice_used += dt * k;
                    self.cores[core].busy += dt * k;
                    if throttled {
                        self.cores[core].throttled += dt * k;
                    }
                }
                self.tasks[rid.index()].vruntime = vr;
                self.now += dt * k;
                leaped += k;
            }
            match stop_reason {
                FairLeapStop::Rotation => {
                    // The stepped path would re-place the fair class at
                    // this quantum; under the pinned inputs that is the
                    // ladder-head swap. (A fresh capture is sorted, so
                    // a rotation always advances ≥ 1 quantum — no spin.)
                    if k == 0 {
                        break 'segments;
                    }
                    self.obs.dispatch_recomputes += 1;
                    let pair = ((vr * 1e9) as u64, rid.0);
                    let mut i = 0;
                    while i + 1 < self.fair_order.len() && self.fair_order[i + 1] < pair {
                        self.fair_order[i] = self.fair_order[i + 1];
                        i += 1;
                    }
                    self.fair_order[i] = pair;
                    rid = TaskId(self.fair_order[0].1);
                    self.assignment[fair_core] = Some(rid);
                }
                FairLeapStop::Cap | FairLeapStop::Bound => break 'segments,
            }
        }
        leaped
    }

    /// The general span leap: several cores with live memory demand,
    /// streaming tasks, multiple runnable fair tasks — regimes where
    /// per-quantum progress is state-dependent and nothing multiplies
    /// out. Each quantum is *replayed* with the exact stepped arithmetic
    /// ([`MemorySystem::replay_quantum`] plus the per-core task updates
    /// of [`Machine::step`]) while skipping the dispatch machinery that
    /// is provably inert: no release is due (caller bound), the ready
    /// set cannot transition (no completion — checked before every
    /// quantum — no RR expiry, no external call), and the placement is
    /// pinned between fair rotations (epoch unchanged; with several fair
    /// tasks their dispatch order is re-checked for stability every
    /// quantum, and on a rotation the placement is re-derived in-span by
    /// the same full recomputation the stepped path would run — multiple
    /// runnable fair tasks recompute every quantum either way, so the
    /// refreshed placement is the identical pure function of the same
    /// inputs). Stops — leaving the quantum to the stepped path — before
    /// any quantum that could complete a job or cap a MemGuard budget,
    /// and on rotations that hand a core to a round-robin task (slice
    /// bounds were derived for the entry placement).
    fn leap_replay_span(&mut self, max_k: u64, multi_fair: bool, throttled_mask: u64) -> u64 {
        let dt = self.config.quantum;
        let mut throttled_mask = throttled_mask;
        // The demand set of the current assignment — what `step`
        // rebuilds every quantum.
        self.rebuild_demands();
        if multi_fair {
            self.capture_fair_order();
        }

        let mut bound = max_k;
        let mut leaped = 0u64;
        'quanta: while leaped < bound {
            // --- stop checks: nothing may be mutated past this point if
            // --- the quantum could diverge from a replay.
            if multi_fair {
                // The placement is stable iff the captured order is still
                // sorted under the current vruntimes (only running tasks'
                // keys moved, and only upward).
                let mut prev = (0u64, 0u32);
                let mut rotated = false;
                for (n, &(_, raw)) in self.fair_order.iter().enumerate() {
                    let key = (self.tasks[TaskId(raw).index()].vruntime * 1e9) as u64;
                    if n > 0 && (key, raw) < prev {
                        rotated = true;
                        break;
                    }
                    prev = (key, raw);
                }
                if rotated {
                    // The fair class dispatches in a different order this
                    // quantum. The stepped path handles that with a full
                    // recomputation (several runnable fair tasks recompute
                    // every quantum); running the identical recomputation
                    // here keeps the span alive across the rotation. Every
                    // per-core span bound is then re-derived for the new
                    // placement; a bound that cannot be re-proven leaves
                    // the recomputed (but untouched) state to the stepped
                    // path — exactly what its own dispatch would produce.
                    self.obs.dispatch_recomputes += 1;
                    self.compute_assignment();
                    self.last_assign_epoch = Some(self.ready.epoch);
                    self.rebuild_demands();
                    throttled_mask = 0;
                    for core in 0..self.assignment.len() {
                        let Some(tid) = self.assignment[core] else {
                            continue;
                        };
                        if matches!(
                            self.tasks[tid.index()].spec.policy,
                            SchedPolicy::RoundRobin { .. }
                        ) {
                            break 'quanta;
                        }
                        if self.memory.core_exhausted(core) {
                            let Some(nr) = self.memory.next_replenish_time() else {
                                break 'quanta;
                            };
                            if nr <= self.now {
                                break 'quanta;
                            }
                            bound = bound.min(leaped + self.quanta_before(nr));
                            throttled_mask |= 1 << core;
                        }
                    }
                    if leaped >= bound {
                        break 'quanta;
                    }
                    self.capture_fair_order();
                }
            }
            for core in 0..self.assignment.len() {
                let Some(tid) = self.assignment[core] else {
                    continue;
                };
                if throttled_mask >> core & 1 == 1 {
                    continue; // zero progress: cannot complete
                }
                if let Some(job) = self.tasks[tid.index()].jobs.front() {
                    // progress ≤ dt, so remaining > dt rules a completion
                    // out without knowing the contention state.
                    if job.remaining <= dt {
                        break 'quanta;
                    }
                }
            }
            if self.memory.cap_risk(self.now, dt, &self.demands) {
                break;
            }

            // --- the quantum, replayed.
            self.memory
                .replay_quantum(self.now, dt, &self.demands, &mut self.progress_scratch);
            for core in 0..self.assignment.len() {
                let Some(tid) = self.assignment[core] else {
                    continue;
                };
                let throttled = throttled_mask >> core & 1 == 1;
                let progress = dt.mul_f64(self.progress_scratch[core]);
                let task = &mut self.tasks[tid.index()];
                match task.jobs.front_mut() {
                    None => {
                        task.stats.useful_time += progress;
                        task.stats.busy_time += dt;
                    }
                    Some(job) => {
                        // No completion: remaining > dt ≥ progress.
                        job.remaining -= progress;
                        task.stats.busy_time += dt;
                        task.stats.useful_time += progress.min(task.spec.cost.cpu);
                    }
                }
                self.cores[core].busy += dt;
                if throttled {
                    self.cores[core].throttled += dt;
                }
                task.vruntime += dt.as_secs_f64() * vruntime_scale(&task.spec.policy);
                task.slice_used += dt;
                // RR rotation cannot fire: the span is bounded strictly
                // before any slice expiry.
            }
            self.now += dt;
            leaped += 1;
        }
        leaped
    }

    /// Rebuilds the per-core [`CoreDemand`] set from the current
    /// assignment — the exact construction [`Machine::step`] performs
    /// every quantum before handing the demands to the memory system.
    fn rebuild_demands(&mut self) {
        self.demands.clear();
        self.demands
            .resize(self.config.n_cores, CoreDemand::default());
        for (core, slot) in self.assignment.iter().enumerate() {
            if let Some(tid) = slot {
                let cost = &self.tasks[tid.index()].spec.cost;
                self.demands[core] = CoreDemand {
                    bandwidth: cost.mem_bandwidth,
                    stall_fraction: cost.stall_fraction,
                    streaming: cost.streaming,
                };
            }
        }
    }

    /// Captures the fair dispatch order exactly as
    /// [`Machine::compute_assignment`] sorts it: (quantized vruntime,
    /// id). The replay span re-checks this capture for stability before
    /// every quantum.
    fn capture_fair_order(&mut self) {
        self.fair_order.clear();
        for &id in &self.ready.fair {
            let key = (self.tasks[id.index()].vruntime * 1e9) as u64;
            self.fair_order.push((key, id.0));
        }
        self.fair_order.sort_unstable();
    }

    fn release_due_jobs(&mut self, events: &mut Vec<SchedEvent>) {
        let now = self.now;
        if now < self.next_release_hint {
            return; // nothing due: quanta outnumber releases ~10:1
        }
        let mut hint = SimTime::MAX;
        let ready = &mut self.ready;
        for &idx in &self.periodic_tasks {
            let idx = idx as usize;
            let task = &mut self.tasks[idx];
            if !task.alive {
                continue;
            }
            let Activation::Periodic {
                period, overrun, ..
            } = task.spec.activation
            else {
                continue;
            };
            while let Some(release) = task.next_release {
                if release > now {
                    break;
                }
                task.next_release = Some(release + period);
                if !task.jobs.is_empty() && overrun == OverrunPolicy::SkipRelease {
                    task.stats.skips += 1;
                    self.obs.deadline_skips += 1;
                    events.push(SchedEvent::ReleaseSkipped {
                        task: TaskId(idx as u32),
                        release,
                    });
                } else {
                    task.jobs.push_back(Job {
                        release,
                        remaining: task.spec.cost.cpu,
                    });
                    if !task.ready {
                        task.ready = true;
                        ready.insert(&task.spec.policy, task.fifo_seq, TaskId(idx as u32));
                    }
                }
            }
            if let Some(release) = task.next_release {
                hint = hint.min(release);
            }
        }
        self.next_release_hint = hint;
    }

    /// Chooses which task runs on each core this quantum, reusing the
    /// previous quantum's assignment whenever it is provably unchanged.
    ///
    /// The placement is a pure function of (ready members, dispatch
    /// order, affinities, free-core scan). Affinities are fixed at spawn
    /// and every ready-set or order transition — release, injection,
    /// completion-removal, kill, RR rotation — bumps the ready-queue
    /// epoch, so an unchanged epoch pins the whole RT placement. The fair
    /// class is the one order that moves *without* a transition (vruntime
    /// advances every running quantum), so reuse additionally requires at
    /// most one runnable fair task — with a single candidate its relative
    /// order cannot matter, and it lands on the same free core as before.
    /// In the steady-state windows that dominate fleet runs (backlogged
    /// rx thread + one flooder, or pure hog load) this skips the
    /// recomputation on the vast majority of quanta.
    fn assign_cores(&mut self) {
        if self.last_assign_epoch == Some(self.ready.epoch) && self.ready.fair.len() <= 1 {
            self.obs.dispatch_reuses += 1;
            // Debug builds re-derive the placement and compare, so every
            // test run cross-checks the reuse proof on every reused
            // quantum (via persistent scratch — the check itself must not
            // allocate, or it would trip the zero-alloc gate).
            #[cfg(debug_assertions)]
            {
                let mut reused = std::mem::take(&mut self.assign_verify);
                reused.clear();
                reused.extend_from_slice(&self.assignment);
                self.compute_assignment();
                debug_assert_eq!(
                    reused, self.assignment,
                    "assignment reuse diverged from a full recomputation"
                );
                self.assign_verify = reused;
            }
            return;
        }
        self.obs.dispatch_recomputes += 1;
        self.compute_assignment();
        self.last_assign_epoch = Some(self.ready.epoch);
    }

    /// The full placement: all runnable RT tasks in (priority desc, FIFO
    /// order) first, then fair tasks by vruntime. Each task takes the
    /// first free core its affinity allows. The RT order comes straight
    /// off the incrementally maintained buckets; only the (few) runnable
    /// fair tasks are ordered at dispatch time, because vruntime moves
    /// every quantum.
    ///
    /// The RT phase is cached against the ready epoch: an epoch match
    /// means both ready classes kept their membership and RT order, so
    /// the RT prefix (and the free-core mask it leaves) is byte-for-byte
    /// what a fresh walk would produce and only the fair fill — whose
    /// vruntime keys move every quantum — runs again. Multi-fair
    /// dispatch recomputes every quantum, which makes this the hot path
    /// of fair-saturated windows (the paper's flooded container).
    fn compute_assignment(&mut self) {
        if self.rt_epoch != Some(self.ready.epoch) {
            let n_cores = self.config.n_cores;
            let tasks = &self.tasks;
            let rt_assignment = &mut self.rt_assignment;
            rt_assignment.clear();
            rt_assignment.resize(n_cores, None);
            // Bit `i` set = core `i` still free; "first free core the
            // affinity allows" is one AND + trailing_zeros.
            let mut free_mask: u64 = if n_cores >= 64 {
                u64::MAX
            } else {
                (1u64 << n_cores) - 1
            };
            self.ready.for_each_rt(|tid| {
                let allowed = tasks[tid.index()].spec.affinity.bits() & free_mask;
                if allowed != 0 {
                    let core = allowed.trailing_zeros() as usize;
                    rt_assignment[core] = Some(tid);
                    free_mask &= !(1 << core);
                }
                free_mask != 0
            });
            self.rt_free_mask = free_mask;
            self.rt_epoch = Some(self.ready.epoch);
        }

        let tasks = &self.tasks;
        let assignment = &mut self.assignment;
        assignment.clear();
        assignment.extend_from_slice(&self.rt_assignment);
        let mut free_mask = self.rt_free_mask;

        if free_mask != 0 && !self.ready.fair.is_empty() {
            self.fair_scratch.clear();
            for &id in &self.ready.fair {
                // Quantize vruntime to nanoseconds for a stable total
                // order (id breaks exact ties).
                let key = (tasks[id.index()].vruntime * 1e9) as u64;
                self.fair_scratch.push((key, id.0));
            }
            if self.fair_scratch.len() > 1 {
                self.fair_scratch.sort_unstable();
            }
            for &(_, raw) in &self.fair_scratch {
                let allowed = tasks[TaskId(raw).index()].spec.affinity.bits() & free_mask;
                if allowed != 0 {
                    let core = allowed.trailing_zeros() as usize;
                    assignment[core] = Some(TaskId(raw));
                    free_mask &= !(1 << core);
                }
                if free_mask == 0 {
                    break;
                }
            }
        }
    }
}

fn vruntime_scale(policy: &SchedPolicy) -> f64 {
    match policy {
        SchedPolicy::Fair { weight } => 1024.0 / (*weight).max(1) as f64,
        _ => 0.0,
    }
}

/// Round-robin slice expiry: reset the slice, move the task behind its
/// priority peers (new FIFO sequence number + ready-queue reposition).
/// One shared implementation for the busy-task and job-carrying branches
/// of [`Machine::step`], so the bucket bookkeeping cannot drift.
fn rotate_rr_on_slice_expiry(
    task: &mut Task,
    fifo_counter: &mut u64,
    ready: &mut ReadyQueues,
    tid: TaskId,
) {
    if let SchedPolicy::RoundRobin { slice, .. } = task.spec.policy {
        if task.slice_used >= slice {
            task.slice_used = SimDuration::ZERO;
            *fifo_counter += 1;
            let old_seq = task.fifo_seq;
            task.fifo_seq = *fifo_counter;
            if task.ready {
                ready.reposition(&task.spec.policy, old_seq, task.fifo_seq, tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Cost, CpuSet};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn count_completions(events: &[SchedEvent], id: TaskId) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, SchedEvent::JobCompleted { task, .. } if *task == id))
            .count()
    }

    #[test]
    fn periodic_task_completes_every_period() {
        let mut m = machine();
        let root = m.root_cgroup();
        let id = m.spawn(
            TaskSpec::periodic_fifo(
                "drv",
                90,
                SimDuration::from_millis(4),
                Cost::compute(SimDuration::from_micros(100)),
            ),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(1), &mut ev);
        let n = count_completions(&ev, id);
        assert!((249..=251).contains(&n), "completions {n}");
        assert_eq!(m.task_stats(id).skips, 0);
    }

    #[test]
    fn higher_priority_preempts_on_shared_core() {
        let mut m = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        // Low-priority long task + high-priority frequent task on one core.
        let low = m.spawn(
            TaskSpec::periodic_fifo(
                "low",
                10,
                SimDuration::from_millis(100),
                Cost::compute(SimDuration::from_millis(50)),
            ),
            root,
        );
        let high = m.spawn(
            TaskSpec::periodic_fifo(
                "high",
                90,
                SimDuration::from_millis(1),
                Cost::compute(SimDuration::from_micros(200)),
            ),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(100), &mut ev);
        // High-priority task must never miss: ~100 completions with tight
        // response times.
        let n_high = count_completions(&ev, high);
        assert!((99..=101).contains(&n_high), "high completions {n_high}");
        let high_stats = m.task_stats(high);
        assert!(high_stats.response_max <= SimDuration::from_micros(300));
        // The low task still makes progress in the gaps.
        assert!(m.task_stats(low).useful_time > SimDuration::from_millis(30));
    }

    #[test]
    fn affinity_confines_task() {
        let mut m = machine();
        let root = m.root_cgroup();
        let id = m.spawn(
            TaskSpec::busy_fair("hog", Cost::compute(SimDuration::from_secs(1)))
                .with_affinity(CpuSet::single(3)),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(100), &mut ev);
        let stats = m.core_stats();
        assert!(stats[3].busy >= SimDuration::from_millis(99));
        for (c, stat) in stats.iter().enumerate().take(3) {
            assert_eq!(stat.busy, SimDuration::ZERO, "core {c} must stay idle");
        }
        let _ = id;
    }

    #[test]
    fn cgroup_demotes_rt_and_confines() {
        let mut m = machine();
        let cce = m.add_cgroup(Cgroup::container("cce", CpuSet::single(3)));
        // Attacker asks for FIFO 99 on all cores; gets fair on core 3 only.
        let attacker = m.spawn(
            TaskSpec {
                name: "attacker".into(),
                policy: SchedPolicy::Fifo { priority: 99 },
                affinity: CpuSet::ALL,
                activation: Activation::Busy,
                cost: Cost::compute(SimDuration::from_secs(1)),
            },
            cce,
        );
        let root = m.root_cgroup();
        let victim = m.spawn(
            TaskSpec::periodic_fifo(
                "safety",
                20,
                SimDuration::from_micros(2500),
                Cost::compute(SimDuration::from_micros(300)),
            )
            .with_affinity(CpuSet::single(3)),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(200), &mut ev);
        // The RT victim shares core 3 but always preempts the demoted
        // attacker: no skips.
        assert_eq!(m.task_stats(victim).skips, 0);
        assert!(count_completions(&ev, victim) >= 79);
        // The attacker still runs in the gaps.
        assert!(m.task_stats(attacker).busy_time > SimDuration::from_millis(100));
    }

    #[test]
    fn fair_tasks_share_a_core_evenly() {
        let mut m = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        let a = m.spawn(
            TaskSpec::busy_fair("a", Cost::compute(SimDuration::from_secs(1))),
            root,
        );
        let b = m.spawn(
            TaskSpec::busy_fair("b", Cost::compute(SimDuration::from_secs(1))),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(1), &mut ev);
        let ta = m.task_stats(a).busy_time.as_secs_f64();
        let tb = m.task_stats(b).busy_time.as_secs_f64();
        assert!((ta - tb).abs() < 0.02, "a {ta} b {tb}");
    }

    #[test]
    fn fair_weights_bias_share() {
        let mut m = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        let heavy = m.spawn(
            TaskSpec {
                name: "heavy".into(),
                policy: SchedPolicy::Fair { weight: 3072 },
                affinity: CpuSet::ALL,
                activation: Activation::Busy,
                cost: Cost::compute(SimDuration::from_secs(1)),
            },
            root,
        );
        let light = m.spawn(
            TaskSpec::busy_fair("light", Cost::compute(SimDuration::from_secs(1))),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(2), &mut ev);
        let th = m.task_stats(heavy).busy_time.as_secs_f64();
        let tl = m.task_stats(light).busy_time.as_secs_f64();
        assert!((th / tl - 3.0).abs() < 0.2, "ratio {}", th / tl);
    }

    #[test]
    fn overrun_skip_policy_reports_skips() {
        let mut m = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        // Demand 150% of the core: every other release must skip.
        let id = m.spawn(
            TaskSpec::periodic_fifo(
                "over",
                50,
                SimDuration::from_millis(2),
                Cost::compute(SimDuration::from_millis(3)),
            ),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(1), &mut ev);
        let st = m.task_stats(id);
        assert!(st.skips > 100, "skips {}", st.skips);
        assert!(st.completions > 100, "completions {}", st.completions);
        // Effective rate collapses to ~333 Hz-worth of work at 500 Hz asks.
        assert!(st.completions < 400);
    }

    #[test]
    fn sporadic_jobs_run_on_injection() {
        let mut m = machine();
        let root = m.root_cgroup();
        let rx = m.spawn(
            TaskSpec::sporadic_fifo("rx", 30, Cost::compute(SimDuration::from_micros(15))),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(10), &mut ev);
        assert_eq!(count_completions(&ev, rx), 0);
        m.inject_job(rx, 100);
        assert_eq!(m.queued_jobs(rx), 100);
        m.step_until(SimTime::from_millis(20), &mut ev);
        assert_eq!(count_completions(&ev, rx), 100);
        assert_eq!(m.queued_jobs(rx), 0);
    }

    #[test]
    fn kill_stops_execution() {
        let mut m = machine();
        let root = m.root_cgroup();
        let id = m.spawn(
            TaskSpec::periodic_fifo(
                "victim",
                50,
                SimDuration::from_millis(4),
                Cost::compute(SimDuration::from_micros(100)),
            ),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(100), &mut ev);
        let before = m.task_stats(id).completions;
        assert!(before > 0);
        m.kill(id);
        assert!(!m.is_alive(id));
        m.step_until(SimTime::from_millis(200), &mut ev);
        assert_eq!(m.task_stats(id).completions, before);
    }

    #[test]
    fn round_robin_rotates_equal_priority_tasks() {
        // Two always-runnable RR tasks at the same priority on one core:
        // unlike FIFO (where the first-queued task would monopolize), the
        // slice rotation must share the core between them.
        let mut m = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        let slice = SimDuration::from_millis(1);
        let mk = |name: &str| TaskSpec {
            name: name.into(),
            policy: SchedPolicy::RoundRobin {
                priority: 50,
                slice,
            },
            affinity: CpuSet::ALL,
            activation: Activation::Busy,
            cost: Cost::compute(SimDuration::from_secs(1)),
        };
        let a = m.spawn(mk("rr-a"), root);
        let b = m.spawn(mk("rr-b"), root);
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(1), &mut ev);
        let ta = m.task_stats(a).busy_time.as_secs_f64();
        let tb = m.task_stats(b).busy_time.as_secs_f64();
        assert!((ta - tb).abs() < 0.01, "rr share a {ta} b {tb}");
        // A FIFO task set with the same shape starves the second task.
        let mut m2 = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root2 = m2.root_cgroup();
        let fa = m2.spawn(
            TaskSpec {
                name: "fifo-a".into(),
                policy: SchedPolicy::Fifo { priority: 50 },
                affinity: CpuSet::ALL,
                activation: Activation::Busy,
                cost: Cost::compute(SimDuration::from_secs(1)),
            },
            root2,
        );
        let fb = m2.spawn(
            TaskSpec {
                name: "fifo-b".into(),
                policy: SchedPolicy::Fifo { priority: 50 },
                affinity: CpuSet::ALL,
                activation: Activation::Busy,
                cost: Cost::compute(SimDuration::from_secs(1)),
            },
            root2,
        );
        let mut ev2 = Vec::new();
        m2.step_until(SimTime::from_secs(1), &mut ev2);
        assert!(m2.task_stats(fa).busy_time > SimDuration::from_millis(990));
        assert_eq!(m2.task_stats(fb).busy_time, SimDuration::ZERO);
    }

    #[test]
    fn steady_state_assignment_reuse_is_exact() {
        // A flood-like steady state: a deeply backlogged sporadic rx task
        // (completions leave it ready, so no epoch transitions) plus one
        // busy fair flooder — the shape that dominates fleet quanta. In
        // debug builds every reused quantum is cross-checked against the
        // full recomputation inside `assign_cores`, so this test fails if
        // the reuse proof ever misses a case this workload hits.
        let mut m = Machine::new(MachineConfig {
            n_cores: 2,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        let rx = m.spawn(
            TaskSpec::sporadic_fifo("rx", 30, Cost::compute(SimDuration::from_micros(15))),
            root,
        );
        let hog = m.spawn(
            TaskSpec::busy_fair("flooder", Cost::compute(SimDuration::from_secs(1)))
                .with_affinity(CpuSet::single(1)),
            root,
        );
        m.inject_job(rx, 5000);
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(1), &mut ev);
        // One backlogged job completes per quantum: 5000 completions in
        // the first 250 ms, then the rx task parks and the hog keeps its
        // core — both phases reuse the assignment on nearly every quantum.
        assert_eq!(m.task_stats(rx).completions, 5000);
        assert!(m.task_stats(hog).busy_time >= SimDuration::from_millis(990));
        assert!(m.core_stats()[1].busy >= SimDuration::from_millis(990));
    }

    #[test]
    fn task_cgroup_is_recorded() {
        let mut m = machine();
        let cce = m.add_cgroup(Cgroup::container("cce", CpuSet::single(3)));
        let root = m.root_cgroup();
        let a = m.spawn(
            TaskSpec::busy_fair("in-cce", Cost::compute(SimDuration::from_secs(1))),
            cce,
        );
        let b = m.spawn(
            TaskSpec::busy_fair("in-root", Cost::compute(SimDuration::from_secs(1))),
            root,
        );
        assert_eq!(m.task_cgroup(a), cce);
        assert_eq!(m.task_cgroup(b), root);
        assert_eq!(m.cgroup(m.task_cgroup(a)).name, "cce");
    }

    #[test]
    fn idle_rates_reflect_load() {
        let mut m = machine();
        let root = m.root_cgroup();
        // 10% periodic load pinned to core 0.
        m.spawn(
            TaskSpec::periodic_fifo(
                "tick",
                40,
                SimDuration::from_millis(1),
                Cost::compute(SimDuration::from_micros(100)),
            )
            .with_affinity(CpuSet::single(0)),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(2), &mut ev);
        let idle = m.idle_rates();
        assert!((idle[0] - 0.9).abs() < 0.02, "core0 idle {}", idle[0]);
        for (core, rate) in idle.iter().enumerate().skip(1) {
            assert!(*rate > 0.999, "core {core} idle {rate}");
        }
    }

    /// Drives `m` to `target` through [`Machine::leap_to`], falling back
    /// to single steps exactly as the vehicle executor does. Returns the
    /// quanta leaped.
    fn run_leaping(m: &mut Machine, target: SimTime, events: &mut Vec<SchedEvent>) -> u64 {
        let q = m.config().quantum;
        let mut leaped = 0;
        while m.now() + q <= target {
            leaped += m.leap_to(target);
            if m.now() + q <= target {
                m.step(events);
            }
        }
        leaped
    }

    /// Asserts the leaped machine is bit-identical to the stepped one:
    /// clocks, per-task stats, per-core accounting, memory counters, and
    /// the event stream, now and over a further stepped window.
    fn assert_leap_equivalent(mut m: Machine, target: SimTime, expect_leaps: bool) {
        let mut stepped = m.clone();
        let mut ev_s = Vec::new();
        stepped.step_until(target, &mut ev_s);
        let mut ev_l = Vec::new();
        let leaped = run_leaping(&mut m, target, &mut ev_l);
        if expect_leaps {
            assert!(leaped > 0, "fast path never engaged");
        }
        assert_eq!(m.now(), stepped.now());
        assert_eq!(ev_l, ev_s, "event streams diverged");
        for i in 0..m.tasks.len() {
            let id = TaskId(i as u32);
            assert_eq!(
                m.task_stats(id),
                stepped.task_stats(id),
                "stats diverged for {}",
                m.task_name(id)
            );
        }
        assert_eq!(m.core_stats(), stepped.core_stats());
        assert_eq!(m.memory().counters(), stepped.memory().counters());
        assert_eq!(
            m.memory().next_replenish_time(),
            stepped.memory().next_replenish_time()
        );
        assert_eq!(
            m.memory().throttle_events(),
            stepped.memory().throttle_events()
        );
        // The states must remain indistinguishable when stepped onward.
        let onward = target + SimDuration::from_millis(25);
        ev_s.clear();
        ev_l.clear();
        stepped.step_until(onward, &mut ev_s);
        m.step_until(onward, &mut ev_l);
        assert_eq!(ev_l, ev_s, "post-leap behavior diverged");
        assert_eq!(m.core_stats(), stepped.core_stats());
    }

    #[test]
    fn leap_matches_stepped_periodic_mix() {
        // Staggered periodic tasks: idle gaps and single-active spans
        // (even "compute" costs carry light memory noise, so these spans
        // exercise the one-active-core closed form, not just idle leaps).
        let mut m = machine();
        let root = m.root_cgroup();
        m.spawn(
            TaskSpec::periodic_fifo(
                "drv",
                90,
                SimDuration::from_millis(4),
                Cost::compute(SimDuration::from_micros(350)),
            ),
            root,
        );
        m.spawn(
            TaskSpec::periodic_fifo(
                "safety",
                20,
                SimDuration::from_millis(10),
                Cost::memory_bound(SimDuration::from_micros(320), 1.5e6, 0.55),
            )
            .with_offset(SimDuration::from_micros(1200)),
            root,
        );
        assert_leap_equivalent(m, SimTime::from_millis(200), true);
    }

    #[test]
    fn leap_matches_stepped_throttled_hog() {
        // The paper's protected-CCE shape: a fair memory hog on a budgeted
        // core alternates unthrottled spans, a cap quantum, and long
        // throttled spans — all three boundaries must land exactly.
        let mut m = machine();
        let cfg = MemGuardConfig::single_core(4, 3, 0.05, &m.config().dram);
        m.enable_memguard(cfg);
        let root = m.root_cgroup();
        m.spawn(
            TaskSpec::busy_fair(
                "pipeline",
                Cost::memory_bound(SimDuration::from_secs(1), 2.0e6, 0.6),
            )
            .with_affinity(CpuSet::single(3)),
            root,
        );
        m.spawn(
            TaskSpec::periodic_fifo(
                "drv",
                90,
                SimDuration::from_millis(4),
                Cost::compute(SimDuration::from_micros(100)),
            )
            .with_affinity(CpuSet::single(0)),
            root,
        );
        assert_leap_equivalent(m, SimTime::from_millis(150), true);
    }

    #[test]
    fn leap_matches_stepped_round_robin() {
        let mut m = Machine::new(MachineConfig {
            n_cores: 1,
            ..MachineConfig::default()
        });
        let root = m.root_cgroup();
        let slice = SimDuration::from_millis(1);
        for name in ["rr-a", "rr-b"] {
            m.spawn(
                TaskSpec {
                    name: name.into(),
                    policy: SchedPolicy::RoundRobin {
                        priority: 50,
                        slice,
                    },
                    affinity: CpuSet::ALL,
                    activation: Activation::Busy,
                    cost: Cost::compute(SimDuration::from_secs(1)),
                },
                root,
            );
        }
        assert_leap_equivalent(m, SimTime::from_millis(50), true);
    }

    #[test]
    fn leap_matches_stepped_with_injection() {
        // Sporadic injections between leap windows, as packet delivery
        // produces them.
        let mut m = machine();
        let root = m.root_cgroup();
        let rx = m.spawn(
            TaskSpec::sporadic_fifo("rx", 30, Cost::compute(SimDuration::from_micros(90))),
            root,
        );
        let mut stepped = m.clone();
        let mut ev_s = Vec::new();
        let mut ev_l = Vec::new();
        let mut leaped = 0;
        for window in 1..=40u64 {
            let target = SimTime::from_millis(window * 5);
            stepped.step_until(target, &mut ev_s);
            leaped += run_leaping(&mut m, target, &mut ev_l);
            if window % 3 == 0 {
                stepped.inject_job(rx, 7);
                m.inject_job(rx, 7);
            }
        }
        assert!(leaped > 0);
        assert_eq!(ev_l, ev_s);
        assert_eq!(m.task_stats(rx), stepped.task_stats(rx));
        assert_eq!(m.core_stats(), stepped.core_stats());
        assert_eq!(m.memory().counters(), stepped.memory().counters());
    }

    #[test]
    fn next_interesting_time_is_a_sound_lower_bound() {
        let mut m = machine();
        let root = m.root_cgroup();
        m.spawn(
            TaskSpec::periodic_fifo(
                "drv",
                90,
                SimDuration::from_millis(4),
                Cost::compute(SimDuration::from_micros(350)),
            ),
            root,
        );
        let mut ev = Vec::new();
        for _ in 0..2000 {
            let before = ev.len();
            let hint = m.next_interesting_time();
            m.step(&mut ev);
            if ev.len() > before {
                // An event fired in this quantum: the hint must not have
                // pointed past its end.
                assert!(
                    hint <= m.now(),
                    "hint {hint} skipped an event before {}",
                    m.now()
                );
            }
        }
        // Idle machine: the hint is exactly the next release.
        let mut idle = machine();
        let r = idle.root_cgroup();
        idle.spawn(
            TaskSpec::periodic_fifo(
                "late",
                50,
                SimDuration::from_millis(10),
                Cost::compute(SimDuration::from_micros(100)),
            )
            .with_offset(SimDuration::from_millis(7)),
            r,
        );
        assert!(idle.is_idle());
        assert_eq!(idle.next_interesting_time(), SimTime::from_millis(7));
    }

    #[test]
    fn memory_hog_slows_memory_heavy_victim_across_cores() {
        // End-to-end check of the Fig-4 mechanism inside the scheduler: a
        // busy bandwidth hog on core 3 stretches a memory-heavy periodic
        // task on core 0 past its period.
        let run = |with_hog: bool, with_memguard: bool| {
            let mut m = machine();
            if with_memguard {
                let cfg = MemGuardConfig::single_core(4, 3, 0.05, &m.config().dram);
                m.enable_memguard(cfg);
            }
            let root = m.root_cgroup();
            let victim = m.spawn(
                TaskSpec::periodic_fifo(
                    "flight-stack",
                    80,
                    SimDuration::from_millis(4),
                    Cost::memory_bound(SimDuration::from_micros(1200), 2.0e6, 0.8),
                )
                .with_affinity(CpuSet::single(0)),
                root,
            );
            if with_hog {
                m.spawn(
                    TaskSpec::busy_fair(
                        "bandwidth",
                        Cost::streaming(SimDuration::from_secs(1), 14.0e6, 0.95),
                    )
                    .with_affinity(CpuSet::single(3)),
                    root,
                );
            }
            let mut ev = Vec::new();
            m.step_until(SimTime::from_secs(1), &mut ev);
            m.task_stats(victim)
        };

        let healthy = run(false, false);
        assert_eq!(healthy.skips, 0, "no skips when healthy");

        let attacked = run(true, false);
        assert!(
            attacked.skips > 100,
            "hog must cause massive overruns, got {} skips",
            attacked.skips
        );

        let protected = run(true, true);
        assert!(
            protected.skips < 10,
            "MemGuard must prevent overruns, got {} skips",
            protected.skips
        );
    }
}
