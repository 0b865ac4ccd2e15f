//! Shared schedules: one machine advance for a class of vehicles whose
//! machine inputs are identical.
//!
//! A vehicle's seed feeds only its physics and sensor noise. Its
//! scheduler and DRAM trajectory is a pure function of the task set and
//! of the machine operations the runner issues: span advances toward a
//! target, rx-thread job injections and task kills. Vehicles flying the
//! same configuration and attack script therefore usually issue the
//! same operations from the same machine state, and compute the same
//! machine trajectory over and over.
//!
//! A [`SchedTape`] records that trajectory once per poll window. The
//! first member of a class to need an operation *drives*: it runs the
//! operation on its own machine and appends it, with its results (new
//! time, scheduler events, leaped/stepped quanta, leap stop reason), to
//! the tape. Later members *follow*: each compares its own next
//! operation with the tape entry at its position and, on a match, takes
//! the recorded results without touching a machine. A member *leaves*
//! at its first mismatch, before an attack-script entry fires (arming
//! mutates the machine outside the tape) and when it finishes its flight
//! early; it then rebuilds its own machine from the window-start
//! snapshot plus the matched prefix of the tape and runs solo from
//! there. A follower that reaches the end of the tape takes over as
//! driver from the tape's published end state.
//!
//! Exactness: a tape entry is keyed by the operation *and its
//! arguments*, and every operation is a deterministic function of the
//! machine state. Two members that issued the same operations from the
//! same window-start state are in the same state, so the recorded
//! results are the follower's own. At every window end each member's
//! own machine is refreshed from the tape's end state, so reads between
//! windows (`now`, `sched_obs`, task and core statistics) need no
//! indirection.
//!
//! The single-vehicle runner never goes through a tape: its span loop is
//! instantiated with [`Solo`], whose operations are the direct machine
//! calls.

use rt_sched::machine::Machine;
use rt_sched::task::{SchedEvent, TaskId};
use sim_core::time::SimTime;

use super::VehicleInstance;

/// Why a member stopped sharing its class's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveReason {
    /// Its own machine operation differed from the class's tape.
    Mismatch,
    /// One of its attack-script entries fired: arming mutates the
    /// machine outside the tape.
    Arming,
    /// It finished its flight (1 s past a crash) before the class.
    Finished,
}

impl LeaveReason {
    /// Every reason, in label order.
    pub const ALL: [LeaveReason; 3] = [
        LeaveReason::Mismatch,
        LeaveReason::Arming,
        LeaveReason::Finished,
    ];

    /// Stable metric label.
    pub fn label(self) -> &'static str {
        match self {
            LeaveReason::Mismatch => "mismatch",
            LeaveReason::Arming => "arming",
            LeaveReason::Finished => "finished",
        }
    }
}

/// One machine operation of a vehicle's span loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Leap (and step where it must) toward a target.
    Leap(SimTime),
    /// One plain quantum.
    Step,
    /// Inject jobs into a sporadic task.
    Inject(TaskId, usize),
    /// Kill a task.
    Kill(TaskId),
}

/// The leap loop: closed-form machine leaps toward `target`, interleaved
/// with plain steps wherever the machine cannot leap, flushing as soon as
/// a scheduling event needs its end-of-quantum dispatch. Returns the
/// quanta leaped and stepped.
#[inline]
fn leap_toward(m: &mut Machine, events: &mut Vec<SchedEvent>, target: SimTime) -> (u64, u64) {
    let quantum = m.config().quantum;
    let (mut leaped, mut stepped) = (0, 0);
    loop {
        leaped += m.leap_to(target);
        if m.now() + quantum > target {
            break;
        }
        m.step(events);
        stepped += 1;
        if !events.is_empty() {
            // A scheduling event needs its end-of-quantum dispatch;
            // flush here and let the next span resume.
            break;
        }
    }
    (leaped, stepped)
}

/// Runs `op` on `m`; returns the quanta leaped and stepped.
#[inline]
fn execute(m: &mut Machine, op: Op, events: &mut Vec<SchedEvent>) -> (u64, u64) {
    match op {
        Op::Leap(target) => leap_toward(m, events, target),
        Op::Step => {
            m.step(events);
            (0, 1)
        }
        Op::Inject(task, count) => {
            m.inject_job(task, count);
            (0, 0)
        }
        Op::Kill(task) => {
            m.kill(task);
            (0, 0)
        }
    }
}

/// How the span loop reaches the machine. [`Solo`] is the direct call;
/// [`Shared`] goes through a class's tape. The loop is generic over it,
/// so the solo instantiation compiles to the plain machine calls.
pub(crate) trait SchedPort {
    /// `true` for the tape port: enables the leave and kill checks the
    /// solo loop compiles out.
    const SHARED: bool;
    /// The member's machine time.
    fn now(&self, m: &Machine) -> SimTime;
    /// `true` if `task` is alive.
    fn is_alive(&self, m: &Machine, task: TaskId) -> bool;
    /// Stop reason of the most recent leap.
    fn leap_stop(&self, m: &Machine) -> &'static str;
    /// Runs `op`, appending its scheduler events to `events`; returns the
    /// quanta leaped and stepped.
    fn run(&mut self, m: &mut Machine, op: Op, events: &mut Vec<SchedEvent>) -> (u64, u64);
    /// Stops sharing: brings `m` to the member's current state.
    fn leave(&mut self, m: &mut Machine, reason: LeaveReason);
}

/// The direct machine port of an unshared vehicle.
pub(crate) struct Solo;

impl SchedPort for Solo {
    const SHARED: bool = false;

    #[inline]
    fn now(&self, m: &Machine) -> SimTime {
        m.now()
    }

    #[inline]
    fn is_alive(&self, m: &Machine, task: TaskId) -> bool {
        m.is_alive(task)
    }

    #[inline]
    fn leap_stop(&self, m: &Machine) -> &'static str {
        m.obs().last_leap_stop
    }

    #[inline]
    fn run(&mut self, m: &mut Machine, op: Op, events: &mut Vec<SchedEvent>) -> (u64, u64) {
        execute(m, op, events)
    }

    #[inline]
    fn leave(&mut self, _m: &mut Machine, _reason: LeaveReason) {}
}

/// One recorded operation and, for advancing operations, its results.
#[derive(Debug, Clone, Copy)]
struct Entry {
    op: Op,
    now: SimTime,
    leaped: u64,
    stepped: u64,
    stop: &'static str,
    /// Range of this entry's events in [`SchedTape::events`].
    events: (usize, usize),
}

/// One class's machine schedule for one poll window on one shard: the
/// window-start snapshot, the recorded operations, and the machine state
/// at the end of the tape.
///
/// Pool one per (class, shard) and call [`SchedTape::begin_window`] at
/// every poll boundary; buffers keep their capacity, so steady state
/// allocates nothing.
#[derive(Debug)]
pub struct SchedTape {
    entries: Vec<Entry>,
    events: Vec<SchedEvent>,
    /// The class's machine at the window start, taken by the first
    /// driver before its first operation.
    snapshot: Machine,
    /// The class's machine after the last recorded operation, published
    /// whenever a driver stops driving.
    working: Machine,
    /// Event scratch for rebuilds.
    scratch: Vec<SchedEvent>,
}

impl SchedTape {
    /// A tape for `vehicle`'s class (its machine sizes the pooled copies).
    pub fn new(vehicle: &VehicleInstance) -> Self {
        SchedTape {
            entries: Vec::new(),
            events: Vec::new(),
            snapshot: vehicle.rt.machine.clone(),
            working: vehicle.rt.machine.clone(),
            scratch: Vec::new(),
        }
    }

    /// Starts a new poll window with an empty tape.
    pub fn begin_window(&mut self) {
        self.entries.clear();
        self.events.clear();
    }

    /// `true` if both tapes recorded the same operations. Members of a
    /// class start each window in one state, so equal operations end
    /// them in one state too. A fleet compares a class's tapes across its
    /// shards at every poll boundary and unshares the members of a shard
    /// whose tape differs: a driver records its own divergent operations
    /// (its Simplex switch, say) while its followers leave over them, so
    /// one shard's tape can drift from the class's.
    pub fn same_schedule(&self, other: &SchedTape) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.op == b.op)
    }

    /// Brings `m`, a member machine at the window-start state, to the
    /// class state after the first `pos` entries.
    fn load(&mut self, m: &mut Machine, pos: usize) {
        if pos == 0 {
            return;
        }
        if pos == self.entries.len() {
            m.clone_from(&self.working);
            return;
        }
        m.clone_from(&self.snapshot);
        for e in &self.entries[..pos] {
            execute(m, e.op, &mut self.scratch);
            self.scratch.clear();
            debug_assert_eq!(m.now(), e.now, "tape replay diverged");
        }
    }
}

/// A member's position on its class's tape for one poll window.
#[derive(Debug, Clone, Copy)]
pub struct TapeSeat {
    pos: usize,
    role: Role,
    /// The member's machine time while following.
    now: SimTime,
    /// Stop reason of the member's most recent leap while following.
    stop: &'static str,
    /// The rx thread and whether it is alive while following (the only
    /// task whose liveness the runner reads).
    rx: Option<TaskId>,
    rx_alive: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follow,
    Drive,
    Left(LeaveReason),
}

impl TapeSeat {
    /// Why the member left its class this window, if it did.
    pub fn left(&self) -> Option<LeaveReason> {
        match self.role {
            Role::Left(reason) => Some(reason),
            _ => None,
        }
    }
}

/// The tape port of a class member.
pub(crate) struct Shared<'a> {
    pub(crate) tape: &'a mut SchedTape,
    pub(crate) seat: &'a mut TapeSeat,
}

impl Shared<'_> {
    /// Records `op` run on `m` (the driver's own machine).
    fn record(&mut self, m: &mut Machine, op: Op, events: &mut Vec<SchedEvent>) -> (u64, u64) {
        let before = events.len();
        let (leaped, stepped) = execute(m, op, events);
        let start = self.tape.events.len();
        self.tape.events.extend_from_slice(&events[before..]);
        self.tape.entries.push(Entry {
            op,
            now: m.now(),
            leaped,
            stepped,
            stop: m.obs().last_leap_stop,
            events: (start, self.tape.events.len()),
        });
        self.seat.pos += 1;
        (leaped, stepped)
    }

    /// Ends the member's window: a follower takes the published end
    /// state (or leaves, if it did not consume the whole tape), a driver
    /// publishes its machine.
    pub(crate) fn close(&mut self, m: &mut Machine, finished: bool) {
        let len = self.tape.entries.len();
        match self.seat.role {
            Role::Follow | Role::Drive if finished => self.leave(m, LeaveReason::Finished),
            Role::Follow if self.seat.pos != len => self.leave(m, LeaveReason::Mismatch),
            Role::Follow if len > 0 => m.clone_from(&self.tape.working),
            // Nothing ran: the machine still holds the window-start state.
            Role::Follow => {}
            Role::Drive => self.tape.working.clone_from(m),
            Role::Left(_) => {}
        }
    }
}

impl SchedPort for Shared<'_> {
    const SHARED: bool = true;

    fn now(&self, m: &Machine) -> SimTime {
        match self.seat.role {
            Role::Follow => self.seat.now,
            _ => m.now(),
        }
    }

    fn is_alive(&self, m: &Machine, task: TaskId) -> bool {
        match self.seat.role {
            Role::Follow => {
                debug_assert_eq!(Some(task), self.seat.rx, "only rx liveness is read");
                self.seat.rx_alive
            }
            _ => m.is_alive(task),
        }
    }

    fn leap_stop(&self, m: &Machine) -> &'static str {
        match self.seat.role {
            Role::Follow => self.seat.stop,
            _ => m.obs().last_leap_stop,
        }
    }

    fn run(&mut self, m: &mut Machine, op: Op, events: &mut Vec<SchedEvent>) -> (u64, u64) {
        match self.seat.role {
            Role::Left(_) => execute(m, op, events),
            Role::Drive => self.record(m, op, events),
            Role::Follow => {
                let pos = self.seat.pos;
                let Some(&e) = self.tape.entries.get(pos) else {
                    // First to get this far: drive, from the published
                    // end state (or, on an empty tape, from this
                    // member's machine, which becomes the snapshot).
                    if pos == 0 {
                        self.tape.snapshot.clone_from(m);
                    }
                    self.tape.load(m, pos);
                    self.seat.role = Role::Drive;
                    return self.record(m, op, events);
                };
                if e.op != op {
                    self.leave(m, LeaveReason::Mismatch);
                    return execute(m, op, events);
                }
                events.extend_from_slice(&self.tape.events[e.events.0..e.events.1]);
                self.seat.pos += 1;
                match op {
                    Op::Leap(_) | Op::Step => {
                        self.seat.now = e.now;
                        self.seat.stop = e.stop;
                    }
                    Op::Kill(task) if Some(task) == self.seat.rx => self.seat.rx_alive = false,
                    Op::Kill(_) | Op::Inject(..) => {}
                }
                (e.leaped, e.stepped)
            }
        }
    }

    fn leave(&mut self, m: &mut Machine, reason: LeaveReason) {
        match self.seat.role {
            Role::Follow => self.tape.load(m, self.seat.pos),
            Role::Drive => self.tape.working.clone_from(m),
            Role::Left(_) => return,
        }
        self.seat.role = Role::Left(reason);
    }
}

impl VehicleInstance {
    /// Takes this vehicle's seat on its class's tape for the current
    /// poll window. Every member of a class holds the same machine state
    /// here: the one the class's tape ended the previous window with.
    pub fn join_window(&self) -> TapeSeat {
        let m = &self.rt.machine;
        let rx = self.rt.ids.rx;
        TapeSeat {
            pos: 0,
            role: Role::Follow,
            now: m.now(),
            stop: m.obs().last_leap_stop,
            rx,
            rx_alive: rx.is_some_and(|rx| m.is_alive(rx)),
        }
    }
}
