//! Task model: scheduling classes, costs, activation patterns.

use sim_core::time::{SimDuration, SimTime};

/// Identifies a task within a [`crate::machine::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// A set of CPU cores, as a bitmask (like Linux `cpuset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuSet(u64);

impl CpuSet {
    /// All cores allowed.
    pub const ALL: CpuSet = CpuSet(u64::MAX);

    /// The raw bitmask (bit `i` = core `i` allowed); lets the dispatcher
    /// pick the first free allowed core with one `trailing_zeros`.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The empty set.
    pub const NONE: CpuSet = CpuSet(0);

    /// A set containing exactly `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 64`.
    pub fn single(core: usize) -> CpuSet {
        assert!(core < 64, "core index out of range");
        CpuSet(1 << core)
    }

    /// A set from an iterator of core indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use rt_sched::task::CpuSet;
    /// let set = CpuSet::from_cores([0, 1, 2]);
    /// assert!(set.contains(1));
    /// assert!(!set.contains(3));
    /// ```
    pub fn from_cores<I: IntoIterator<Item = usize>>(cores: I) -> CpuSet {
        let mut mask = 0u64;
        for c in cores {
            assert!(c < 64, "core index out of range");
            mask |= 1 << c;
        }
        CpuSet(mask)
    }

    /// `true` if `core` is in the set.
    pub fn contains(self, core: usize) -> bool {
        core < 64 && self.0 & (1 << core) != 0
    }

    /// Set intersection.
    pub fn intersect(self, other: CpuSet) -> CpuSet {
        CpuSet(self.0 & other.0)
    }

    /// `true` if no cores are allowed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of cores in the set.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Scheduling class, mirroring Linux:
/// real-time FIFO/RR classes always preempt the fair (CFS-like) class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// `SCHED_FIFO`: run until blocked; higher `priority` wins (1–99).
    Fifo {
        /// Real-time priority, 1–99 (higher = more urgent).
        priority: u8,
    },
    /// `SCHED_RR`: like FIFO but rotates among equal-priority tasks every
    /// `slice`.
    RoundRobin {
        /// Real-time priority, 1–99.
        priority: u8,
        /// Time slice before rotation.
        slice: SimDuration,
    },
    /// `SCHED_OTHER` (CFS-like): weighted fair sharing among `Fair` tasks.
    Fair {
        /// Relative weight (like a nice level; 1024 = default).
        weight: u32,
    },
}

impl SchedPolicy {
    /// Real-time priority if this is an RT class.
    pub fn rt_priority(&self) -> Option<u8> {
        match self {
            SchedPolicy::Fifo { priority } | SchedPolicy::RoundRobin { priority, .. } => {
                Some(*priority)
            }
            SchedPolicy::Fair { .. } => None,
        }
    }

    /// `true` for FIFO/RR.
    pub fn is_realtime(&self) -> bool {
        self.rt_priority().is_some()
    }
}

/// Execution cost of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Pure execution time with an uncontended memory system.
    pub cpu: SimDuration,
    /// Cache-line fetch rate while running, lines/s (drives DRAM
    /// contention).
    pub mem_bandwidth: f64,
    /// Fraction of execution that stalls on memory at baseline (the `m` of
    /// the dilation model), 0–1.
    pub stall_fraction: f64,
    /// `true` for bandwidth-bound streaming workloads (see
    /// [`membw::dram::CoreDemand::streaming`]).
    pub streaming: bool,
}

impl Cost {
    /// A compute-only cost (no meaningful memory traffic).
    pub fn compute(cpu: SimDuration) -> Cost {
        Cost {
            cpu,
            mem_bandwidth: 0.05e6,
            stall_fraction: 0.05,
            streaming: false,
        }
    }

    /// A memory-heavy cost: `stall_fraction` of execution stalls on memory.
    ///
    /// # Panics
    ///
    /// Panics if `stall_fraction` is outside `[0, 1]`.
    pub fn memory_bound(cpu: SimDuration, mem_bandwidth: f64, stall_fraction: f64) -> Cost {
        assert!(
            (0.0..=1.0).contains(&stall_fraction),
            "stall fraction out of range"
        );
        Cost {
            cpu,
            mem_bandwidth,
            stall_fraction,
            streaming: false,
        }
    }

    /// A streaming (bandwidth-bound) cost, like the IsolBench `Bandwidth`
    /// attack loop.
    ///
    /// # Panics
    ///
    /// Panics if `stall_fraction` is outside `[0, 1]`.
    pub fn streaming(cpu: SimDuration, mem_bandwidth: f64, stall_fraction: f64) -> Cost {
        assert!(
            (0.0..=1.0).contains(&stall_fraction),
            "stall fraction out of range"
        );
        Cost {
            cpu,
            mem_bandwidth,
            stall_fraction,
            streaming: true,
        }
    }
}

/// What happens when a periodic job is still running at its next release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverrunPolicy {
    /// Skip the new release (control tasks: run the freshest iteration
    /// late rather than queueing stale ones). The skip is reported.
    #[default]
    SkipRelease,
    /// Queue the release (work-conserving batch behaviour).
    Queue,
}

/// How a task's jobs arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// A new job every `period`, first at `offset`.
    Periodic {
        /// Job inter-arrival time.
        period: SimDuration,
        /// Release time of the first job.
        offset: SimDuration,
        /// Behaviour on overrun.
        overrun: OverrunPolicy,
    },
    /// Jobs injected externally via
    /// [`crate::machine::Machine::inject_job`] (e.g. one per received
    /// packet).
    Sporadic,
    /// Always runnable, never completes (CPU hogs, busy-polling threads).
    Busy,
}

/// Full description of a task.
#[derive(Debug)]
pub struct TaskSpec {
    /// Human-readable name (appears in events and reports).
    pub name: String,
    /// Scheduling class.
    pub policy: SchedPolicy,
    /// Allowed cores (intersected with the cgroup's cpuset).
    pub affinity: CpuSet,
    /// Activation pattern.
    pub activation: Activation,
    /// Cost of one job (ignored for `Busy`, which always has work).
    pub cost: Cost,
}

impl Clone for TaskSpec {
    fn clone(&self) -> Self {
        TaskSpec {
            name: self.name.clone(),
            ..*self
        }
    }

    /// Field-wise: the name reuses its buffer.
    fn clone_from(&mut self, src: &Self) {
        self.name.clone_from(&src.name);
        self.policy = src.policy;
        self.affinity = src.affinity;
        self.activation = src.activation;
        self.cost = src.cost;
    }
}

impl TaskSpec {
    /// A periodic real-time FIFO task.
    pub fn periodic_fifo(
        name: impl Into<String>,
        priority: u8,
        period: SimDuration,
        cost: Cost,
    ) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            policy: SchedPolicy::Fifo { priority },
            affinity: CpuSet::ALL,
            activation: Activation::Periodic {
                period,
                offset: SimDuration::ZERO,
                overrun: OverrunPolicy::SkipRelease,
            },
            cost,
        }
    }

    /// A periodic fair-class (best-effort) task.
    pub fn periodic_fair(name: impl Into<String>, period: SimDuration, cost: Cost) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            policy: SchedPolicy::Fair { weight: 1024 },
            affinity: CpuSet::ALL,
            activation: Activation::Periodic {
                period,
                offset: SimDuration::ZERO,
                overrun: OverrunPolicy::SkipRelease,
            },
            cost,
        }
    }

    /// A sporadic server (jobs injected per event, e.g. per packet).
    pub fn sporadic_fifo(name: impl Into<String>, priority: u8, cost: Cost) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            policy: SchedPolicy::Fifo { priority },
            affinity: CpuSet::ALL,
            activation: Activation::Sporadic,
            cost,
        }
    }

    /// An always-runnable best-effort task (hogs, spinners).
    pub fn busy_fair(name: impl Into<String>, cost: Cost) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            policy: SchedPolicy::Fair { weight: 1024 },
            affinity: CpuSet::ALL,
            activation: Activation::Busy,
            cost,
        }
    }

    /// Restricts the task to `affinity`.
    pub fn with_affinity(mut self, affinity: CpuSet) -> TaskSpec {
        self.affinity = affinity;
        self
    }

    /// Offsets the first periodic release.
    ///
    /// # Panics
    ///
    /// Panics if the task is not periodic.
    pub fn with_offset(mut self, offset: SimDuration) -> TaskSpec {
        match &mut self.activation {
            Activation::Periodic { offset: o, .. } => *o = offset,
            _ => panic!("offset applies to periodic tasks only"),
        }
        self
    }

    /// Sets the overrun policy.
    ///
    /// # Panics
    ///
    /// Panics if the task is not periodic.
    pub fn with_overrun(mut self, policy: OverrunPolicy) -> TaskSpec {
        match &mut self.activation {
            Activation::Periodic { overrun, .. } => *overrun = policy,
            _ => panic!("overrun policy applies to periodic tasks only"),
        }
        self
    }
}

/// A scheduler event produced during a quantum.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A job finished.
    JobCompleted {
        /// The task whose job finished.
        task: TaskId,
        /// When the job was released.
        release: SimTime,
        /// When it completed.
        completion: SimTime,
    },
    /// A periodic release was skipped because the previous job was still
    /// running ([`OverrunPolicy::SkipRelease`]).
    ReleaseSkipped {
        /// The task that overran.
        task: TaskId,
        /// The release instant that was skipped.
        release: SimTime,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuset_operations() {
        let a = CpuSet::from_cores([0, 1, 2]);
        let b = CpuSet::single(3);
        assert!(a.intersect(b).is_empty());
        assert_eq!(a.count(), 3);
        assert!(CpuSet::ALL.contains(63));
        assert!(!CpuSet::NONE.contains(0));
        assert_eq!(a.intersect(CpuSet::ALL), a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cpuset_rejects_large_index() {
        let _ = CpuSet::single(64);
    }

    #[test]
    fn policy_priorities() {
        assert_eq!(SchedPolicy::Fifo { priority: 90 }.rt_priority(), Some(90));
        assert_eq!(SchedPolicy::Fair { weight: 1024 }.rt_priority(), None);
        assert!(!SchedPolicy::Fair { weight: 1 }.is_realtime());
    }

    #[test]
    fn builders_configure_activation() {
        let t = TaskSpec::periodic_fifo(
            "drv",
            90,
            SimDuration::from_millis(4),
            Cost::compute(SimDuration::from_micros(100)),
        )
        .with_offset(SimDuration::from_micros(500))
        .with_overrun(OverrunPolicy::Queue);
        match t.activation {
            Activation::Periodic {
                period,
                offset,
                overrun,
            } => {
                assert_eq!(period, SimDuration::from_millis(4));
                assert_eq!(offset, SimDuration::from_micros(500));
                assert_eq!(overrun, OverrunPolicy::Queue);
            }
            _ => panic!("expected periodic"),
        }
    }

    #[test]
    #[should_panic(expected = "periodic tasks only")]
    fn offset_on_sporadic_panics() {
        let _ = TaskSpec::sporadic_fifo("rx", 30, Cost::compute(SimDuration::from_micros(10)))
            .with_offset(SimDuration::ZERO);
    }

    #[test]
    fn cost_constructors_validate() {
        let c = Cost::memory_bound(SimDuration::from_micros(500), 2.0e6, 0.7);
        assert_eq!(c.stall_fraction, 0.7);
    }

    #[test]
    #[should_panic(expected = "stall fraction")]
    fn cost_rejects_bad_stall_fraction() {
        let _ = Cost::memory_bound(SimDuration::from_micros(500), 2.0e6, 1.5);
    }
}
