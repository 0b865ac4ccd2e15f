//! Control groups: the resource-restriction mechanism the paper builds its
//! CPU protection on (§III-C).
//!
//! Two restrictions matter for ContainerDrone:
//!
//! * **cpuset** — a cgroup confines every member task to a set of cores
//!   ("Cgroup's cpuset can bind the CCE to a set of CPU cores");
//! * **no-realtime** — Docker "restricts the process's ability to raise
//!   their priority": tasks in a restricted cgroup cannot hold an RT class
//!   and are demoted to the fair class.

use crate::task::{CpuSet, SchedPolicy};

/// Identifies a cgroup within a [`crate::machine::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgroupId(pub(crate) u32);

/// A control group.
#[derive(Debug)]
pub struct Cgroup {
    /// Display name ("/", "docker/cce", …).
    pub name: String,
    /// Cores members may run on.
    pub cpuset: CpuSet,
    /// Whether members may hold real-time scheduling classes.
    pub allow_realtime: bool,
}

impl Clone for Cgroup {
    fn clone(&self) -> Self {
        Cgroup {
            name: self.name.clone(),
            ..*self
        }
    }

    /// Field-wise: the name reuses its buffer.
    fn clone_from(&mut self, src: &Self) {
        self.name.clone_from(&src.name);
        self.cpuset = src.cpuset;
        self.allow_realtime = src.allow_realtime;
    }
}

impl Cgroup {
    /// The root cgroup: all cores, RT allowed.
    pub fn root() -> Cgroup {
        Cgroup {
            name: "/".to_string(),
            cpuset: CpuSet::ALL,
            allow_realtime: true,
        }
    }

    /// A restricted group as Docker creates for a container: bound to
    /// `cpuset`, RT forbidden.
    pub fn container(name: impl Into<String>, cpuset: CpuSet) -> Cgroup {
        Cgroup {
            name: name.into(),
            cpuset,
            allow_realtime: false,
        }
    }

    /// The scheduling policy a member actually gets: RT demoted to fair if
    /// the group forbids it.
    ///
    /// # Examples
    ///
    /// ```
    /// use rt_sched::cgroup::Cgroup;
    /// use rt_sched::task::{CpuSet, SchedPolicy};
    ///
    /// let cce = Cgroup::container("cce", CpuSet::single(3));
    /// let wanted = SchedPolicy::Fifo { priority: 99 };
    /// assert!(!cce.effective_policy(wanted).is_realtime());
    /// ```
    pub fn effective_policy(&self, requested: SchedPolicy) -> SchedPolicy {
        if requested.is_realtime() && !self.allow_realtime {
            SchedPolicy::Fair { weight: 1024 }
        } else {
            requested
        }
    }

    /// The cores a member with `affinity` may actually use.
    pub fn effective_affinity(&self, affinity: CpuSet) -> CpuSet {
        self.cpuset.intersect(affinity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_allows_everything() {
        let root = Cgroup::root();
        let p = SchedPolicy::Fifo { priority: 50 };
        assert_eq!(root.effective_policy(p), p);
        assert_eq!(
            root.effective_affinity(CpuSet::single(2)),
            CpuSet::single(2)
        );
    }

    #[test]
    fn container_demotes_realtime() {
        let c = Cgroup::container("cce", CpuSet::single(3));
        let p = c.effective_policy(SchedPolicy::Fifo { priority: 99 });
        assert_eq!(p, SchedPolicy::Fair { weight: 1024 });
        // Fair stays fair.
        let f = SchedPolicy::Fair { weight: 512 };
        assert_eq!(c.effective_policy(f), f);
    }

    #[test]
    fn container_cpuset_confines_affinity() {
        let c = Cgroup::container("cce", CpuSet::single(3));
        assert_eq!(c.effective_affinity(CpuSet::ALL), CpuSet::single(3));
        assert!(c.effective_affinity(CpuSet::from_cores([0, 1])).is_empty());
    }
}
