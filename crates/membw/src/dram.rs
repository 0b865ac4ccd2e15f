//! Shared DRAM bandwidth and contention model.
//!
//! The paper's memory DoS attack works because all four Cortex-A53 cores of
//! the RPi3 share one LPDDR2 channel (and a small shared L2): a single
//! `Bandwidth`-style hog inflates every other core's memory latency. We use
//! the standard first-order model from the MemGuard / IsolBench literature:
//!
//! ```text
//! dilation_i = 1 + m_i · γ · U_other_i
//! ```
//!
//! where `m_i` is the fraction of task *i*'s execution that stalls on memory
//! at baseline, `U_other_i` is the fraction of bus bandwidth consumed by
//! *other* cores, and `γ` lumps together queueing delay, bank conflicts, and
//! shared-cache pollution. On in-order A53-class parts with a hot hog,
//! victim slowdowns up to ~10× are reported (DeepPicar; IsolBench), which
//! corresponds to `γ ≈ 10–16` for memory-heavy victims.

use sim_core::time::{SimDuration, SimTime};

/// DRAM model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Usable bus bandwidth, cache lines (64 B) per second.
    /// 15 M lines/s ≈ 960 MB/s, the practical streaming rate of the
    /// RPi3's LPDDR2-900.
    pub total_bandwidth: f64,
    /// Latency-inflation sensitivity γ (see module docs).
    pub contention_gamma: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            total_bandwidth: 15.0e6,
            contention_gamma: 14.0,
        }
    }
}

/// Per-core memory demand for one scheduler quantum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoreDemand {
    /// Cache-line fetch rate the running task would sustain unimpeded,
    /// lines/s. Zero for an idle core.
    pub bandwidth: f64,
    /// Fraction of the task's execution that is memory-stalled at baseline
    /// (`m` in the dilation formula), 0–1.
    pub stall_fraction: f64,
    /// `true` for bandwidth-bound streaming workloads (sequential reads or
    /// writes with perfect prefetch, like IsolBench `Bandwidth`): their
    /// progress degrades only by losing bus *share*, not by per-access
    /// latency. Latency-bound tasks (pointer chasing, control code with
    /// cache misses) instead suffer the γ dilation.
    pub streaming: bool,
}

/// Why [`MemorySystem::leap_fair_active`] stopped advancing. The
/// stopping quantum itself is never applied — it belongs to the caller
/// (a re-dispatch on `Rotation`, the stepped path on `Cap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairLeapStop {
    /// Hit `max_k` (the caller's span bound), or declined outright
    /// (0 quanta: residual cross-core service or streaming demand).
    Bound,
    /// The accumulator crossed the quantized-order threshold: the next
    /// dispatch would reorder the fair class.
    Rotation,
    /// The active core's MemGuard budget would cap the next quantum.
    Cap,
}

/// The caller-supplied accumulator [`MemorySystem::leap_fair_active`]
/// drives alongside the memory state: the running fair task's
/// `vruntime` (`acc += inc` per quantum) plus the quantized-order stop
/// threshold against the task's successor in the captured dispatch
/// order.
pub struct FairDrive<'a> {
    /// The running task's vruntime, advanced in place.
    pub acc: &'a mut f64,
    /// Per-quantum increment (`dt_secs × vruntime_scale`) — the same
    /// f64 product the stepped path adds, so the bits agree.
    pub inc: f64,
    /// `(successor_key, successor_id, runner_id)`: the walk stops
    /// *before* the quantum whose dispatch would order the successor
    /// ahead of the runner. `None` when no successor exists (the runner
    /// cannot rotate away).
    pub stop: Option<(u64, u32, u32)>,
}

/// Outcome of one quantum for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreOutcome {
    /// Useful execution progress as a fraction of wall time (1 = full
    /// speed; 0.2 = 5× dilation; 0 = throttled by MemGuard).
    pub progress: f64,
    /// Cache lines actually transferred this quantum.
    pub served_lines: f64,
    /// `true` if MemGuard held the core stalled this quantum.
    pub throttled: bool,
}

/// Cumulative per-core counters (the "performance counters" MemGuard reads).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfCounter {
    /// Total cache lines transferred.
    pub lines: f64,
    /// Wall time spent throttled.
    pub throttled_time: SimDuration,
}

/// MemGuard configuration: a per-core budget of cache lines per regulation
/// period, matching the kernel module the paper deploys (§III-D).
#[derive(Debug, PartialEq)]
pub struct MemGuardConfig {
    /// Regulation period (the paper's MemGuard uses 1 ms).
    pub period: SimDuration,
    /// Per-core budget, lines per period. `None` = unregulated core.
    pub budgets: Vec<Option<f64>>,
}

impl MemGuardConfig {
    /// Regulates only `core` to `bandwidth_fraction` of the bus, leaving
    /// other cores (of `n_cores`) unregulated — the paper's deployment:
    /// only the CCE core is budgeted.
    ///
    /// # Panics
    ///
    /// Panics if `core >= n_cores` or the fraction is outside `(0, 1]`.
    pub fn single_core(
        n_cores: usize,
        core: usize,
        bandwidth_fraction: f64,
        dram: &DramConfig,
    ) -> Self {
        assert!(core < n_cores, "core {core} out of range");
        assert!(
            bandwidth_fraction > 0.0 && bandwidth_fraction <= 1.0,
            "fraction must be in (0,1]: {bandwidth_fraction}"
        );
        let period = SimDuration::from_millis(1);
        let lines_per_period = dram.total_bandwidth * bandwidth_fraction * period.as_secs_f64();
        let mut budgets = vec![None; n_cores];
        budgets[core] = Some(lines_per_period);
        MemGuardConfig { period, budgets }
    }
}

/// The shared memory system: DRAM bus plus optional MemGuard regulation.
///
/// # Examples
///
/// ```
/// use membw::dram::{CoreDemand, DramConfig, MemorySystem};
/// use sim_core::time::{SimDuration, SimTime};
///
/// let mut mem = MemorySystem::new(4, DramConfig::default());
/// let quiet = CoreDemand { bandwidth: 0.2e6, stall_fraction: 0.3, streaming: false };
/// let out = mem.quantum(SimTime::ZERO, SimDuration::from_micros(50), &[quiet; 4]);
/// assert!(out[0].progress > 0.95); // light load: almost no dilation
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    memguard: Option<MemGuardState>,
    counters: Vec<PerfCounter>,
    /// Served bandwidth per core in the previous quantum (lines/s); used to
    /// compute contention with one quantum of lag, which keeps the model
    /// explicit and stable.
    prev_served: Vec<f64>,
    /// Scratch for the quantum being computed (swapped into `prev_served`
    /// at the end of each quantum — no per-quantum allocation).
    served_scratch: Vec<f64>,
    /// Scratch backing the slice returned by [`MemorySystem::quantum`].
    outcomes: Vec<CoreOutcome>,
}

#[derive(Debug)]
struct MemGuardState {
    config: MemGuardConfig,
    used: Vec<f64>,
    next_replenish: SimTime,
    /// Number of throttle episodes per core.
    throttle_events: Vec<u64>,
}

impl Clone for MemGuardConfig {
    fn clone(&self) -> Self {
        MemGuardConfig {
            budgets: self.budgets.clone(),
            ..*self
        }
    }

    /// Field-wise: the budget vector reuses its buffer.
    fn clone_from(&mut self, src: &Self) {
        self.period = src.period;
        self.budgets.clone_from(&src.budgets);
    }
}

impl Clone for MemGuardState {
    fn clone(&self) -> Self {
        MemGuardState {
            config: self.config.clone(),
            used: self.used.clone(),
            throttle_events: self.throttle_events.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.config.clone_from(&src.config);
        self.used.clone_from(&src.used);
        self.next_replenish = src.next_replenish;
        self.throttle_events.clone_from(&src.throttle_events);
    }
}

impl Clone for MemorySystem {
    fn clone(&self) -> Self {
        MemorySystem {
            memguard: self.memguard.clone(),
            counters: self.counters.clone(),
            prev_served: self.prev_served.clone(),
            served_scratch: self.served_scratch.clone(),
            outcomes: self.outcomes.clone(),
            ..*self
        }
    }

    /// Field-wise and allocation-free between memory systems of the same
    /// core count and regulation: every vector reuses its buffer.
    fn clone_from(&mut self, src: &Self) {
        self.config = src.config;
        self.memguard.clone_from(&src.memguard);
        self.counters.clone_from(&src.counters);
        self.prev_served.clone_from(&src.prev_served);
        self.served_scratch.clone_from(&src.served_scratch);
        self.outcomes.clone_from(&src.outcomes);
    }
}

impl MemorySystem {
    /// Creates an unregulated memory system for `n_cores` cores.
    pub fn new(n_cores: usize, config: DramConfig) -> Self {
        MemorySystem {
            config,
            memguard: None,
            counters: vec![PerfCounter::default(); n_cores],
            prev_served: vec![0.0; n_cores],
            served_scratch: vec![0.0; n_cores],
            outcomes: Vec::with_capacity(n_cores),
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.counters.len()
    }

    /// The DRAM parameters.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Installs MemGuard regulation.
    ///
    /// # Panics
    ///
    /// Panics if the budget vector length differs from the core count.
    pub fn enable_memguard(&mut self, config: MemGuardConfig) {
        assert_eq!(
            config.budgets.len(),
            self.n_cores(),
            "budget vector must cover every core"
        );
        let n = self.n_cores();
        self.memguard = Some(MemGuardState {
            next_replenish: SimTime::ZERO,
            used: vec![0.0; n],
            throttle_events: vec![0; n],
            config,
        });
    }

    /// Per-core cumulative counters.
    pub fn counters(&self) -> &[PerfCounter] {
        &self.counters
    }

    /// Throttle episodes per core (0s when MemGuard is off).
    pub fn throttle_events(&self) -> Vec<u64> {
        match &self.memguard {
            Some(s) => s.throttle_events.clone(),
            None => vec![0; self.n_cores()],
        }
    }

    /// The next MemGuard budget-replenish instant, or `None` when
    /// regulation is off. Budgets (and therefore throttle decisions) can
    /// only change at this instant, which makes it a scheduling hint for
    /// event-driven executors.
    pub fn next_replenish_time(&self) -> Option<SimTime> {
        self.memguard.as_ref().map(|mg| mg.next_replenish)
    }

    /// `true` if the regulated core `i` has exhausted its budget, i.e. its
    /// next quantum before a replenish would be fully throttled.
    pub fn core_exhausted(&self, i: usize) -> bool {
        match &self.memguard {
            Some(mg) => match mg.config.budgets[i] {
                Some(budget) => mg.used[i] >= budget,
                None => false,
            },
            None => false,
        }
    }

    /// Advances `quanta` consecutive all-idle scheduler quanta in one call,
    /// bit-identical to calling [`MemorySystem::quantum`] that many times
    /// (starting at `start`, stride `dt`) with every core at
    /// [`CoreDemand::default`].
    ///
    /// The stepped path does three things on an idle quantum, all
    /// replicated here in closed form:
    ///
    /// 1. Replenish fires on every quantum whose start is at or past
    ///    `next_replenish`, resetting budgets and re-arming at that
    ///    quantum's start plus one period — so fires recur with a stride
    ///    of `ceil(period / dt)` quanta from the first firing quantum.
    /// 2. A core that has exhausted its budget stays stalled (accruing
    ///    `throttled_time`) on every quantum before the first replenish,
    ///    even with nothing running.
    /// 3. `prev_served` decays to all zeros after one idle quantum, so
    ///    the quantum after the leap sees zero cross-core contention.
    ///
    /// Durations are integer nanoseconds, so the `dt * n` products below
    /// equal `n` repeated additions exactly — no float accumulation is
    /// involved on this path.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn leap_idle(&mut self, start: SimTime, dt: SimDuration, quanta: u64) {
        assert!(dt.as_nanos() > 0, "quantum must be non-zero");
        if quanta == 0 {
            return;
        }
        if let Some(mg) = &mut self.memguard {
            // Index of the first quantum whose start reaches the pending
            // replenish instant (it need not be grid-aligned).
            let j0 = if mg.next_replenish <= start {
                0
            } else {
                let gap = (mg.next_replenish - start).as_nanos();
                gap.div_ceil(dt.as_nanos())
            };
            for (i, budget) in mg.config.budgets.iter().enumerate() {
                let Some(budget) = budget else { continue };
                if mg.used[i] >= *budget {
                    // A non-positive budget re-exhausts instantly after
                    // every replenish; a positive one stalls only until
                    // the first replenish of the span.
                    let stalled = if *budget <= 0.0 {
                        quanta
                    } else {
                        j0.min(quanta)
                    };
                    if stalled > 0 {
                        self.counters[i].throttled_time += dt * stalled;
                    }
                }
            }
            if j0 < quanta {
                // At least one replenish fires inside the span: budgets
                // reset, and the phase re-arms from the last firing
                // quantum's start (`now + period`, as the stepped update
                // does).
                mg.used.iter_mut().for_each(|u| *u = 0.0);
                let stride = (mg.config.period.as_nanos().div_ceil(dt.as_nanos())).max(1);
                let last_fire = j0 + ((quanta - 1 - j0) / stride) * stride;
                mg.next_replenish = start + dt * last_fire + mg.config.period;
            }
        }
        self.prev_served.iter_mut().for_each(|s| *s = 0.0);
        self.served_scratch.iter_mut().for_each(|s| *s = 0.0);
    }

    /// Advances up to `max_k` quanta during which exactly one core —
    /// `active` — has live, latency-bound demand `d` and every other core
    /// is idle or throttled (serving nothing). Returns the quanta actually
    /// advanced, bit-identical to that many [`MemorySystem::quantum`]
    /// calls with `d` on `active` and [`CoreDemand::default`] elsewhere
    /// (throttled cores short-circuit before their demand is read, so any
    /// demand shape on an exhausted core reduces to the default).
    ///
    /// With zero previous service from the other cores, `u_other` is
    /// exactly zero every quantum, so a latency-bound task runs at exactly
    /// full progress and serves a constant `bandwidth × dt` lines — the
    /// per-quantum float additions (budget draw, performance counters) are
    /// replayed in a loop because repeated f64 addition is not one
    /// multiplication. The walk stops early (returning fewer quanta) at
    /// the quantum a MemGuard budget would cap — partial-service quanta
    /// change the served rate and belong to the stepped path — and returns
    /// 0 without touching state if any *other* core has non-zero previous
    /// service or the demand is streaming (streaming progress depends on
    /// residual bus share, not worth the closed form).
    ///
    /// # Panics
    ///
    /// Panics if `active` is out of range or `dt` is zero.
    pub fn leap_one_active(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        active: usize,
        d: &CoreDemand,
        max_k: u64,
    ) -> u64 {
        assert!(active < self.n_cores(), "core {active} out of range");
        assert!(dt.as_nanos() > 0, "quantum must be non-zero");
        if d.streaming {
            return 0;
        }
        if self
            .prev_served
            .iter()
            .enumerate()
            .any(|(i, &s)| i != active && s != 0.0)
        {
            return 0;
        }
        let dt_s = dt.as_secs_f64();
        // u_other is exactly 0: stall_fraction · γ · 0 = 0, progress 1/1.
        let lines = d.bandwidth * dt_s;
        let mut k = 0u64;
        let mut t = start;
        while k < max_k {
            if let Some(mg) = &mut self.memguard {
                // A replenish due at this quantum fires before anything
                // else, exactly as the stepped path orders it. (If the
                // quantum then turns out to be capped and is left to the
                // stepped path, the early firing is still identical: the
                // stepped quantum would apply the very same reset.)
                if t >= mg.next_replenish {
                    mg.used.iter_mut().for_each(|u| *u = 0.0);
                    mg.next_replenish = t + mg.config.period;
                }
                // Stop *before* the quantum where the active core's budget
                // would cap (or is already exhausted): partial service and
                // throttling belong to the stepped path, and none of this
                // quantum's effects may be applied here.
                if let Some(budget) = mg.config.budgets[active] {
                    if mg.used[active] >= budget || lines >= budget - mg.used[active] {
                        break;
                    }
                    mg.used[active] += lines;
                }
                // Exhausted *other* cores stall through this leaped
                // quantum exactly as the stepped throttle branch does.
                for (i, budget) in mg.config.budgets.iter().enumerate() {
                    let Some(budget) = budget else { continue };
                    if i != active && mg.used[i] >= *budget {
                        self.counters[i].throttled_time += dt;
                    }
                }
            }
            self.counters[active].lines += lines;
            k += 1;
            t += dt;
        }
        if k > 0 {
            for (i, s) in self.prev_served.iter_mut().enumerate() {
                *s = if i == active { lines / dt_s } else { 0.0 };
            }
            // Dead state — overwritten before every read — kept in the
            // steady value the alternating swap would leave after ≥ 2
            // quanta.
            self.served_scratch.copy_from_slice(&self.prev_served);
        }
        k
    }

    /// Residual per-core service rates from the previous quantum (lines
    /// per second). Event-driven executors read these to prove the
    /// zero-cross-contention precondition of the single-active leap
    /// forms without round-tripping through a probe quantum.
    pub fn prev_served(&self) -> &[f64] {
        &self.prev_served
    }

    /// Advances up to `max_k` quanta of the single-active steady state
    /// — at most one core (`active`) with live, latency-bound demand,
    /// every other core idle or throttled — while driving one caller-
    /// supplied linear accumulator (`acc += inc` per quantum) with a
    /// quantized-order stop threshold. Bit-identical to that many
    /// [`MemorySystem::replay_quantum`] calls with `active`'s demand on
    /// its core and [`CoreDemand::default`] elsewhere.
    ///
    /// The accumulator is the fair-class scheduler's `vruntime` of the
    /// single running fair task: the only per-quantum f64 state outside
    /// this memory system in the regime. `stop` is the `(key, id)` pair
    /// of that task's successor in the captured fair dispatch order
    /// plus the task's own id; the walk stops *before* the quantum
    /// whose dispatch would reorder the pair — `(succ_key, succ_id) <
    /// (quantize(acc), id)` — because only the running task's key moves,
    /// and only upward, so the first possible inversion of a sorted
    /// capture is against the immediate successor.
    ///
    /// As in [`MemorySystem::leap_one_active`]: with zero previous
    /// service elsewhere the active core serves a constant
    /// `bandwidth × dt` lines at exactly full progress, the walk stops
    /// before any quantum a MemGuard budget would cap, and it returns
    /// 0 quanta without touching state when another core has residual
    /// service or the demand is streaming. `active: None` covers the
    /// compute-only placement (including a throttled demand core, whose
    /// demand the stepped path never reads): no lines move, exhausted
    /// cores stall, `prev_served` decays to zero.
    ///
    /// # Panics
    ///
    /// Panics if `active` is out of range or `dt` is zero.
    pub fn leap_fair_active(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        active: Option<(usize, CoreDemand)>,
        drive: FairDrive<'_>,
        max_k: u64,
    ) -> (u64, FairLeapStop) {
        let FairDrive { acc, inc, stop } = drive;
        assert!(dt.as_nanos() > 0, "quantum must be non-zero");
        if let Some((core, d)) = &active {
            assert!(*core < self.n_cores(), "core {core} out of range");
            if d.streaming {
                return (0, FairLeapStop::Bound);
            }
            if self
                .prev_served
                .iter()
                .enumerate()
                .any(|(i, &s)| i != *core && s != 0.0)
            {
                return (0, FairLeapStop::Bound);
            }
        }
        let dt_s = dt.as_secs_f64();
        // u_other is exactly 0: stall_fraction · γ · 0 = 0, progress 1/1.
        let lines = active.map(|(_, d)| d.bandwidth * dt_s);
        let mut k = 0u64;
        let mut t = start;
        let reason = loop {
            if k >= max_k {
                break FairLeapStop::Bound;
            }
            // The rotation gate comes first: the stepped dispatch would
            // re-place the fair class at this quantum's start, before
            // any memory effect, so nothing of this quantum is applied.
            if let Some((succ_key, succ_raw, raw)) = stop {
                let key = (*acc * 1e9) as u64;
                if (succ_key, succ_raw) < (key, raw) {
                    break FairLeapStop::Rotation;
                }
            }
            if let Some(mg) = &mut self.memguard {
                // A replenish due at this quantum fires before anything
                // else, exactly as the stepped path orders it (firing
                // and then stopping on the cap is still identical: the
                // stepped quantum would apply the very same reset).
                if t >= mg.next_replenish {
                    mg.used.iter_mut().for_each(|u| *u = 0.0);
                    mg.next_replenish = t + mg.config.period;
                }
                if let Some((core, _)) = active {
                    if let Some(budget) = mg.config.budgets[core] {
                        let lines = lines.unwrap_or_default();
                        if mg.used[core] >= budget || lines >= budget - mg.used[core] {
                            break FairLeapStop::Cap;
                        }
                        mg.used[core] += lines;
                    }
                }
                // Exhausted cores (other than the active one, which the
                // cap gate keeps strictly under budget) stall through
                // this quantum exactly as the stepped throttle branch.
                for (i, budget) in mg.config.budgets.iter().enumerate() {
                    let Some(budget) = budget else { continue };
                    if active.is_none_or(|(c, _)| c != i) && mg.used[i] >= *budget {
                        self.counters[i].throttled_time += dt;
                    }
                }
            }
            if let Some((core, _)) = active {
                self.counters[core].lines += lines.unwrap_or_default();
            }
            *acc += inc;
            k += 1;
            t += dt;
        };
        if k > 0 {
            match active {
                Some((core, _)) => {
                    let rate = lines.unwrap_or_default() / dt_s;
                    for (i, s) in self.prev_served.iter_mut().enumerate() {
                        *s = if i == core { rate } else { 0.0 };
                    }
                }
                None => self.prev_served.iter_mut().for_each(|s| *s = 0.0),
            }
            // Dead state — overwritten before every read — kept in the
            // steady value the alternating swap would leave.
            self.served_scratch.copy_from_slice(&self.prev_served);
        }
        (k, reason)
    }

    /// `true` when some budgeted, non-exhausted core could hit its
    /// MemGuard cap during a quantum starting at `now` with these
    /// demands. The guard the replay path must check before each
    /// [`MemorySystem::replay_quantum`]: capped quanta serve partial
    /// lines and bump `throttle_events`, which the replay does not
    /// model. Conservative — uses the demand's full `bandwidth × dt` as
    /// an upper bound on the lines a quantum can move (progress ≤ 1),
    /// and accounts for a replenish firing at `now` exactly as the
    /// quantum itself would.
    #[inline]
    pub fn cap_risk(&self, now: SimTime, dt: SimDuration, demands: &[CoreDemand]) -> bool {
        let Some(mg) = &self.memguard else {
            return false;
        };
        let dt_s = dt.as_secs_f64();
        let replenished = now >= mg.next_replenish;
        for (i, d) in demands.iter().enumerate() {
            let Some(budget) = mg.config.budgets[i] else {
                continue;
            };
            let used = if replenished { 0.0 } else { mg.used[i] };
            if used >= budget {
                // Already exhausted: the throttle branch moves no lines,
                // so the cap branch is unreachable on this core.
                continue;
            }
            if d.bandwidth * dt_s >= budget - used {
                return true;
            }
        }
        false
    }

    /// One quantum of the exact [`MemorySystem::quantum`] arithmetic for
    /// a replayed leap span: the identical per-core operation sequence —
    /// replenish, throttle branch, compute-only fast path, contention
    /// formula, budget draw, counters, served-rate swap — with per-core
    /// progress written into the caller's slice instead of the outcome
    /// vector. Progress is `0.0` exactly when the core throttled (both
    /// contention formulas are strictly positive), so no separate
    /// throttled flag is returned.
    ///
    /// Callers must rule out the MemGuard cap branch first (see
    /// [`MemorySystem::cap_risk`]); a capped quantum would bump
    /// `throttle_events` and serve partial lines, which this replay does
    /// not model — debug builds assert the precondition.
    ///
    /// # Panics
    ///
    /// Panics if `demands` or `progress` length differs from the core
    /// count.
    pub fn replay_quantum(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        demands: &[CoreDemand],
        progress: &mut [f64],
    ) {
        assert_eq!(demands.len(), self.n_cores(), "one demand per core");
        assert_eq!(progress.len(), self.n_cores(), "one progress slot per core");
        let dt_s = dt.as_secs_f64();

        if let Some(mg) = &mut self.memguard {
            if now >= mg.next_replenish {
                mg.used.iter_mut().for_each(|u| *u = 0.0);
                mg.next_replenish = now + mg.config.period;
            }
        }

        let total_prev: f64 = self.prev_served.iter().sum();
        self.served_scratch.iter_mut().for_each(|s| *s = 0.0);
        let served_now = &mut self.served_scratch;

        for (i, d) in demands.iter().enumerate() {
            let throttled = match &self.memguard {
                Some(mg) => match mg.config.budgets[i] {
                    Some(budget) => mg.used[i] >= budget,
                    None => false,
                },
                None => false,
            };
            if throttled {
                self.counters[i].throttled_time += dt;
                progress[i] = 0.0;
                continue;
            }

            if d.bandwidth == 0.0 && d.stall_fraction == 0.0 && !d.streaming {
                progress[i] = 1.0;
                continue;
            }

            let others = (total_prev - self.prev_served[i]).max(0.0);
            let u_other = (others / self.config.total_bandwidth).clamp(0.0, 1.0);
            let p = if d.streaming {
                let available =
                    (self.config.total_bandwidth - others).max(0.05 * self.config.total_bandwidth);
                (available / d.bandwidth.max(1e-9)).min(1.0)
            } else {
                1.0 / (1.0 + d.stall_fraction * self.config.contention_gamma * u_other)
            };
            let lines = d.bandwidth * dt_s * p;

            if let Some(mg) = &mut self.memguard {
                if let Some(budget) = mg.config.budgets[i] {
                    debug_assert!(
                        lines < (budget - mg.used[i]).max(0.0),
                        "cap risk must be ruled out before replay_quantum"
                    );
                    mg.used[i] += lines;
                }
            }

            self.counters[i].lines += lines;
            served_now[i] = lines / dt_s;
            progress[i] = p;
        }

        std::mem::swap(&mut self.prev_served, &mut self.served_scratch);
    }

    /// Advances one scheduler quantum.
    ///
    /// `demands[i]` describes what the task currently running on core `i`
    /// would consume; the returned outcome tells the scheduler how much
    /// useful progress that task actually made.
    ///
    /// # Panics
    ///
    /// Panics if `demands.len()` differs from the core count.
    pub fn quantum(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        demands: &[CoreDemand],
    ) -> &[CoreOutcome] {
        assert_eq!(demands.len(), self.n_cores(), "one demand per core");
        let dt_s = dt.as_secs_f64();

        // MemGuard: replenish budgets at period boundaries.
        if let Some(mg) = &mut self.memguard {
            if now >= mg.next_replenish {
                mg.used.iter_mut().for_each(|u| *u = 0.0);
                mg.next_replenish = now + mg.config.period;
            }
        }

        let total_prev: f64 = self.prev_served.iter().sum();
        self.outcomes.clear();
        let outcomes = &mut self.outcomes;
        self.served_scratch.iter_mut().for_each(|s| *s = 0.0);
        let served_now = &mut self.served_scratch;

        for (i, d) in demands.iter().enumerate() {
            // Throttle check (uses the budget *before* this quantum's
            // accesses, as the real MemGuard interrupt does).
            let throttled = match &self.memguard {
                Some(mg) => match mg.config.budgets[i] {
                    Some(budget) => mg.used[i] >= budget,
                    None => false,
                },
                None => false,
            };

            if throttled {
                self.counters[i].throttled_time += dt;
                outcomes.push(CoreOutcome {
                    progress: 0.0,
                    served_lines: 0.0,
                    throttled: true,
                });
                continue;
            }

            // Compute-only demand (idle core or pure-CPU task): progress
            // is exactly 1 and no lines move, so skip the contention math.
            // Identical to the general path: stall_fraction 0 ⇒ no
            // dilation, bandwidth 0 ⇒ zero lines served.
            if d.bandwidth == 0.0 && d.stall_fraction == 0.0 && !d.streaming {
                outcomes.push(CoreOutcome {
                    progress: 1.0,
                    served_lines: 0.0,
                    throttled: false,
                });
                continue;
            }

            // Contention from other cores (previous quantum's served rates).
            let others = (total_prev - self.prev_served[i]).max(0.0);
            let u_other = (others / self.config.total_bandwidth).clamp(0.0, 1.0);
            let progress = if d.streaming {
                // Bandwidth-bound: slowed only by losing bus share.
                let available =
                    (self.config.total_bandwidth - others).max(0.05 * self.config.total_bandwidth);
                (available / d.bandwidth.max(1e-9)).min(1.0)
            } else {
                // Latency-bound: per-access latency inflates with others'
                // traffic (queueing + bank conflicts + shared-cache
                // pollution, lumped into γ).
                1.0 / (1.0 + d.stall_fraction * self.config.contention_gamma * u_other)
            };
            let mut lines = d.bandwidth * dt_s * progress;

            // MemGuard accounting: partial quantum until the budget runs out.
            if let Some(mg) = &mut self.memguard {
                if let Some(budget) = mg.config.budgets[i] {
                    let remaining = (budget - mg.used[i]).max(0.0);
                    if lines >= remaining {
                        lines = remaining;
                        mg.throttle_events[i] += 1;
                    }
                    mg.used[i] += lines;
                }
            }

            self.counters[i].lines += lines;
            served_now[i] = lines / dt_s;
            outcomes.push(CoreOutcome {
                progress,
                served_lines: lines,
                throttled: false,
            });
        }

        std::mem::swap(&mut self.prev_served, &mut self.served_scratch);
        &self.outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_micros(50);

    fn idle() -> CoreDemand {
        CoreDemand::default()
    }

    fn hog() -> CoreDemand {
        CoreDemand {
            bandwidth: 14.0e6,
            stall_fraction: 0.95,
            streaming: true,
        }
    }

    fn victim(m: f64) -> CoreDemand {
        CoreDemand {
            bandwidth: 1.0e6,
            stall_fraction: m,
            streaming: false,
        }
    }

    fn run(mem: &mut MemorySystem, demands: &[CoreDemand], quanta: usize) -> Vec<CoreOutcome> {
        let mut t = SimTime::ZERO;
        let mut last = Vec::new();
        for _ in 0..quanta {
            last = mem.quantum(t, DT, demands).to_vec();
            t += DT;
        }
        last
    }

    #[test]
    fn no_contention_full_progress() {
        let mut mem = MemorySystem::new(4, DramConfig::default());
        let out = run(&mut mem, &[victim(0.5), idle(), idle(), idle()], 10);
        assert!((out[0].progress - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hog_dilates_other_cores() {
        let mut mem = MemorySystem::new(4, DramConfig::default());
        let out = run(&mut mem, &[victim(0.7), idle(), idle(), hog()], 100);
        // dilation ≈ 1 + 0.7·γ·U_hog; with γ=14 and the hog near saturation
        // the victim should run at well under a quarter speed.
        assert!(out[0].progress < 0.15, "progress {}", out[0].progress);
        // Compute-bound tasks barely notice.
        let mut mem2 = MemorySystem::new(4, DramConfig::default());
        let out2 = run(&mut mem2, &[victim(0.05), idle(), idle(), hog()], 100);
        assert!(out2[0].progress > 0.5, "progress {}", out2[0].progress);
    }

    #[test]
    fn dilation_grows_with_stall_fraction() {
        let mut prev = 1.1;
        for m in [0.2, 0.4, 0.6, 0.8] {
            let mut mem = MemorySystem::new(2, DramConfig::default());
            let out = run(&mut mem, &[victim(m), hog()], 50);
            assert!(out[0].progress < prev, "m={m}");
            prev = out[0].progress;
        }
    }

    #[test]
    fn own_traffic_does_not_self_dilate() {
        // A single busy core sees no contention from itself.
        let mut mem = MemorySystem::new(2, DramConfig::default());
        let out = run(&mut mem, &[hog(), idle()], 50);
        assert!((out[0].progress - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memguard_budget_caps_served_lines_per_period() {
        let dram = DramConfig::default();
        let mut mem = MemorySystem::new(4, dram);
        mem.enable_memguard(MemGuardConfig::single_core(4, 3, 0.05, &dram));
        // Run exactly one period (1 ms = 20 quanta of 50 µs).
        let demands = [idle(), idle(), idle(), hog()];
        let mut served = 0.0;
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            let out = mem.quantum(t, DT, &demands);
            served += out[3].served_lines;
            t += DT;
        }
        let budget = dram.total_bandwidth * 0.05 * 1e-3;
        assert!(served <= budget + 1e-6, "served {served} > budget {budget}");
        // The hog demands far more than the budget, so it must be pinned at it.
        assert!(served > 0.99 * budget);
    }

    #[test]
    fn memguard_throttles_then_replenishes() {
        let dram = DramConfig::default();
        let mut mem = MemorySystem::new(2, dram);
        mem.enable_memguard(MemGuardConfig::single_core(2, 1, 0.02, &dram));
        let demands = [idle(), hog()];
        // Fill the first period: the hog exhausts 2% quickly, then stalls.
        let mut t = SimTime::ZERO;
        let mut throttled_seen = false;
        for _ in 0..20 {
            let out = mem.quantum(t, DT, &demands);
            throttled_seen |= out[1].throttled;
            t += DT;
        }
        assert!(throttled_seen, "hog must hit the budget within the period");
        // First quantum of the next period: replenished, runs again.
        let out = mem.quantum(t, DT, &demands);
        assert!(!out[1].throttled);
        assert!(out[1].served_lines > 0.0);
    }

    #[test]
    fn memguard_protects_victims_from_hog() {
        let dram = DramConfig::default();
        // Unprotected baseline.
        let mut un = MemorySystem::new(4, dram);
        let base = run(&mut un, &[victim(0.7), idle(), idle(), hog()], 200);
        // Protected.
        let mut pro = MemorySystem::new(4, dram);
        pro.enable_memguard(MemGuardConfig::single_core(4, 3, 0.05, &dram));
        let prot = run(&mut pro, &[victim(0.7), idle(), idle(), hog()], 200);
        assert!(
            prot[0].progress > 0.8,
            "victim must run near full speed under MemGuard, got {}",
            prot[0].progress
        );
        assert!(prot[0].progress > 3.0 * base[0].progress);
    }

    #[test]
    fn counters_accumulate() {
        let mut mem = MemorySystem::new(2, DramConfig::default());
        run(&mut mem, &[victim(0.5), idle()], 100);
        assert!(mem.counters()[0].lines > 0.0);
        assert_eq!(mem.counters()[1].lines, 0.0);
    }

    #[test]
    #[should_panic(expected = "one demand per core")]
    fn quantum_validates_demand_length() {
        let mut mem = MemorySystem::new(4, DramConfig::default());
        let _ = mem.quantum(SimTime::ZERO, DT, &[idle()]);
    }

    /// Steps `quanta` all-idle quanta the slow way, starting at `t`.
    fn step_idle(mem: &mut MemorySystem, mut t: SimTime, quanta: u64) -> SimTime {
        let demands = vec![idle(); mem.n_cores()];
        for _ in 0..quanta {
            let _ = mem.quantum(t, DT, &demands);
            t += DT;
        }
        t
    }

    /// Asserts the two systems are in bit-identical externally-observable
    /// state: counters, throttle bookkeeping, replenish phase, and (via a
    /// probe quantum on clones) contention state.
    fn assert_same_state(a: &MemorySystem, b: &MemorySystem, t: SimTime) {
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.throttle_events(), b.throttle_events());
        assert_eq!(a.next_replenish_time(), b.next_replenish_time());
        let demands = vec![victim(0.7); a.n_cores()];
        let mut ac = a.clone();
        let mut bc = b.clone();
        let oa = ac.quantum(t, DT, &demands).to_vec();
        let ob = bc.quantum(t, DT, &demands).to_vec();
        assert_eq!(oa, ob, "probe quantum diverged");
    }

    #[test]
    fn leap_idle_matches_stepped_without_memguard() {
        let mut stepped = MemorySystem::new(4, DramConfig::default());
        // Build up non-zero prev_served first.
        let mut t = SimTime::ZERO;
        for _ in 0..7 {
            let _ = stepped.quantum(t, DT, &[victim(0.5), idle(), idle(), hog()]);
            t += DT;
        }
        let mut leaped = stepped.clone();
        let end = step_idle(&mut stepped, t, 33);
        leaped.leap_idle(t, DT, 33);
        assert_same_state(&leaped, &stepped, end);
    }

    #[test]
    fn leap_idle_matches_stepped_across_replenish() {
        let dram = DramConfig::default();
        let mut stepped = MemorySystem::new(4, dram);
        stepped.enable_memguard(MemGuardConfig::single_core(4, 3, 0.02, &dram));
        // Exhaust core 3's budget partway into a period so the idle span
        // starts with a stalled core and crosses several replenishes.
        let mut t = SimTime::ZERO;
        for _ in 0..9 {
            let _ = stepped.quantum(t, DT, &[idle(), idle(), idle(), hog()]);
            t += DT;
        }
        assert!(stepped.core_exhausted(3), "hog must exhaust the budget");
        for quanta in [1u64, 5, 11, 20, 21, 40, 67] {
            let mut leaped = stepped.clone();
            let mut slow = stepped.clone();
            let end = step_idle(&mut slow, t, quanta);
            leaped.leap_idle(t, DT, quanta);
            assert_same_state(&leaped, &slow, end);
        }
    }

    #[test]
    fn leap_idle_matches_stepped_from_unaligned_phase() {
        // Start the span on a quantum grid offset from the replenish
        // phase: the first quantum at/past `next_replenish` fires it.
        let dram = DramConfig::default();
        let mut stepped = MemorySystem::new(2, dram);
        stepped.enable_memguard(MemGuardConfig::single_core(2, 1, 0.03, &dram));
        let mut t = SimTime::from_micros(30); // off the 50 µs grid
        for _ in 0..6 {
            let _ = stepped.quantum(t, DT, &[idle(), hog()]);
            t += DT;
        }
        let mut leaped = stepped.clone();
        let end = step_idle(&mut stepped, t, 55);
        leaped.leap_idle(t, DT, 55);
        assert_same_state(&leaped, &stepped, end);
    }

    #[test]
    fn leap_idle_zero_quanta_is_a_no_op() {
        let mut mem = MemorySystem::new(2, DramConfig::default());
        let _ = mem.quantum(SimTime::ZERO, DT, &[hog(), idle()]);
        let before = mem.clone();
        mem.leap_idle(SimTime::from_micros(50), DT, 0);
        assert_eq!(mem.counters(), before.counters());
        assert_eq!(mem.next_replenish_time(), before.next_replenish_time());
    }

    /// A streaming demand for the replay equivalence walks.
    fn stream(bw: f64) -> CoreDemand {
        CoreDemand {
            bandwidth: bw,
            stall_fraction: 0.0,
            streaming: true,
        }
    }

    /// Drives `replay_quantum` and `quantum` side by side over a varied
    /// multi-core demand schedule and asserts bitwise state equality
    /// after every quantum, plus that the replayed progress equals the
    /// stepped outcome's exactly. `cap_risk` gates each replayed quantum
    /// the way the machine's leap path does: when it fires, the replay
    /// copy takes the stepped quantum instead (its conservatism is
    /// checked the other way round — a clear never caps).
    fn replay_walk(mut stepped: MemorySystem, schedule: &[Vec<CoreDemand>], quanta: usize) {
        let mut replayed = stepped.clone();
        let mut progress = vec![0.0; stepped.n_cores()];
        let mut t = SimTime::ZERO;
        let mut replayed_some = false;
        for q in 0..quanta {
            let demands = &schedule[q % schedule.len()];
            let out: Vec<CoreOutcome> = stepped.quantum(t, DT, demands).to_vec();
            if replayed.cap_risk(t, DT, demands) {
                let rout = replayed.quantum(t, DT, demands).to_vec();
                assert_eq!(out, rout, "quantum {q}: stepped copies diverged");
            } else {
                assert!(
                    out.iter().all(|o| o.served_lines >= 0.0),
                    "quantum {q}: stepped path capped without cap_risk firing"
                );
                replayed.replay_quantum(t, DT, demands, &mut progress);
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(
                        progress[i].to_bits(),
                        o.progress.to_bits(),
                        "quantum {q} core {i}: replayed progress diverged"
                    );
                    assert_eq!(o.throttled, progress[i] == 0.0, "quantum {q} core {i}");
                }
                replayed_some = true;
            }
            assert_eq!(
                stepped.counters(),
                replayed.counters(),
                "quantum {q}: counters diverged"
            );
            assert_eq!(stepped.throttle_events(), replayed.throttle_events());
            assert_eq!(
                stepped.next_replenish_time(),
                replayed.next_replenish_time()
            );
            t += DT;
        }
        assert!(replayed_some, "schedule never exercised the replay path");
        assert_same_state(&stepped, &replayed, t);
    }

    #[test]
    fn replay_quantum_matches_stepped_multi_active() {
        let schedule: Vec<Vec<CoreDemand>> = vec![
            vec![victim(0.7), idle(), victim(0.55), hog()],
            vec![victim(0.7), victim(0.4), idle(), hog()],
            vec![idle(), idle(), idle(), hog()],
            vec![victim(0.7), victim(0.55), victim(0.4), hog()],
        ];
        replay_walk(MemorySystem::new(4, DramConfig::default()), &schedule, 120);
    }

    #[test]
    fn replay_quantum_matches_stepped_with_streaming() {
        let schedule: Vec<Vec<CoreDemand>> = vec![
            vec![stream(9e6), victim(0.6), idle(), victim(0.4)],
            vec![stream(9e6), stream(4e6), victim(0.6), idle()],
            vec![idle(), stream(20e6), idle(), victim(0.5)],
        ];
        replay_walk(MemorySystem::new(4, DramConfig::default()), &schedule, 90);
    }

    #[test]
    fn replay_quantum_matches_stepped_under_memguard() {
        let dram = DramConfig::default();
        let mut mem = MemorySystem::new(4, dram);
        // A budget small enough that the hog caps it every period: the
        // walk alternates cap-risk (stepped on both copies) and replayable
        // quanta across many replenish cycles.
        mem.enable_memguard(MemGuardConfig::single_core(4, 3, 0.15, &dram));
        let schedule: Vec<Vec<CoreDemand>> = vec![
            vec![victim(0.7), idle(), victim(0.55), hog()],
            vec![victim(0.7), victim(0.4), idle(), hog()],
            vec![idle(), victim(0.55), victim(0.4), hog()],
        ];
        replay_walk(mem, &schedule, 400);
    }

    #[test]
    fn cap_risk_is_conservative() {
        // Whenever cap_risk says "no", the stepped quantum must not cap:
        // throttle_events may only move on quanta cap_risk flagged.
        let dram = DramConfig::default();
        let mut mem = MemorySystem::new(2, dram);
        mem.enable_memguard(MemGuardConfig::single_core(2, 1, 0.2, &dram));
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            let demands = vec![victim(0.6), hog()];
            let risk = mem.cap_risk(t, DT, &demands);
            let before = mem.throttle_events();
            let _ = mem.quantum(t, DT, &demands);
            if !risk {
                assert_eq!(
                    before,
                    mem.throttle_events(),
                    "capped at {t:?} without cap_risk firing"
                );
            }
            t += DT;
        }
    }
}
