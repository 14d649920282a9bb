//! Timetabling and the serial schedule-generation scheme (SGS).
//!
//! The serial SGS places tasks one at a time, each at the earliest start
//! that respects precedence, machine exclusivity, and the cumulative
//! resource caps. Enumerating all precedence-feasible insertion orders (and
//! mode choices) generates the class of *active* schedules, which is known
//! to contain an optimum for makespan minimization; this is the foundation
//! of both the randomized heuristic and the exact branch-and-bound search.
//!
//! Two timetable representations back the SGS, both behind the shared
//! [`TimetableOps`] feasibility logic:
//!
//! * [`TimetableKind::Event`] (the default, and the only production
//!   backend) stores each resource as a piecewise-constant profile over
//!   breakpoints. A feasibility probe jumps straight to the end of the
//!   first conflicting segment instead of re-checking every time step, and
//!   probe, place and undo all cost O(breakpoints), independent of the
//!   horizon — which is what lets the exact evaluate policy solve at the
//!   finest tick.
//! * [`TimetableKind::Dense`] is the original per-time-step representation,
//!   kept as a slow-but-obviously-correct reference for property tests, the
//!   fuzz oracle and benchmark baselines.

use crate::instance::{EdgeKind, Instance, Mode, ModeId, TaskId};
use crate::schedule::Schedule;

/// Which timetable representation the scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimetableKind {
    /// Piecewise-constant resource profiles over breakpoints: feasibility
    /// probes skip to the next conflict, and probe, place and undo cost
    /// O(breakpoints) whatever the horizon.
    #[default]
    Event,
    /// Dense per-time-step occupancy vectors over the whole horizon: the
    /// original reference implementation, retained for cross-checking.
    Dense,
}

/// Per-dimension conflict probes shared by every timetable backend, plus
/// the [`TimetableOps::fits_at`] / [`TimetableOps::earliest_start_by`]
/// logic written once on top of them.
///
/// Each `*_conflict` hook reports the first position in `[start, end)`
/// where admitting `add` more usage would violate the dimension's cap,
/// together with a *resume* time: the earliest moment the dimension's
/// usage can next change (so every start strictly before it would still
/// conflict, and probing can jump there directly). `u32::MAX` marks a
/// conflict that persists indefinitely.
pub(crate) trait TimetableOps {
    /// The instance whose caps and horizon govern feasibility.
    fn instance(&self) -> &Instance;
    /// First `[start, end)` conflict on `machine`'s exclusive occupancy.
    fn machine_conflict(&self, machine: usize, start: u32, end: u32) -> Option<(u32, u32)>;
    /// First `[start, end)` conflict admitting `add` watts under `cap`.
    fn power_conflict(&self, start: u32, end: u32, add: f64, cap: f64) -> Option<(u32, u32)>;
    /// First `[start, end)` conflict admitting `add` GB/s under `cap`.
    fn bandwidth_conflict(&self, start: u32, end: u32, add: f64, cap: f64) -> Option<(u32, u32)>;
    /// First `[start, end)` conflict admitting `add` cores under `cap`.
    fn cores_conflict(&self, start: u32, end: u32, add: u32, cap: u32) -> Option<(u32, u32)>;
    /// First `[start, end)` conflict admitting `add` units of resource
    /// `resource` under `cap`.
    fn resource_conflict(
        &self,
        resource: usize,
        start: u32,
        end: u32,
        add: f64,
        cap: f64,
    ) -> Option<(u32, u32)>;

    /// Whether `mode` can run during `[start, start + duration)`; on
    /// conflict returns the resume hint of the first dimension found to
    /// conflict, checking the machine's exclusive occupancy first. Any one
    /// dimension's hint skips only infeasible starts (DESIGN.md §11), so
    /// the probe need not look at the others.
    fn fits_at(&self, mode: &Mode, start: u32) -> Result<(), u32> {
        let end = start + mode.duration;
        let instance = self.instance();
        let blocked = |conflict: Option<(u32, u32)>| match conflict {
            Some((_, resume)) => Err(resume),
            None => Ok(()),
        };
        blocked(self.machine_conflict(mode.machine.0, start, end))?;
        if mode.power > 0.0 {
            if let Some(cap) = instance.power_cap() {
                blocked(self.power_conflict(start, end, mode.power, cap))?;
            }
        }
        if mode.bandwidth > 0.0 {
            if let Some(cap) = instance.bandwidth_cap() {
                blocked(self.bandwidth_conflict(start, end, mode.bandwidth, cap))?;
            }
        }
        if mode.cores > 0 {
            if let Some(cap) = instance.core_cap() {
                blocked(self.cores_conflict(start, end, mode.cores, cap))?;
            }
        }
        for &(r, amount) in &mode.resource_usage {
            if amount > 0.0 {
                let cap = instance.resources()[r.0].1;
                blocked(self.resource_conflict(r.0, start, end, amount, cap))?;
            }
        }
        Ok(())
    }

    /// Earliest start in `[est, latest]` at which `mode` fits, or `None`
    /// if there is none before the horizon. Conflict-jump search: each
    /// failed probe advances straight to the returned resume time, so the
    /// number of probes is bounded by the number of usage-change events,
    /// never by the horizon.
    fn earliest_start_by(&self, mode: &Mode, est: u32, latest: u32) -> Option<u32> {
        let last = u64::from(self.instance().horizon())
            .checked_sub(u64::from(mode.duration))?
            .min(u64::from(latest));
        let mut t = est;
        while u64::from(t) <= last {
            match self.fits_at(mode, t) {
                Ok(()) => return Some(t),
                Err(next) => t = next,
            }
        }
        None
    }
}

/// A piecewise-constant profile: `values[i]` holds on
/// `[times[i], times[i + 1])`, and the last segment extends to infinity.
/// `times[0]` is always 0.
struct Profile<V> {
    times: Vec<u32>,
    values: Vec<V>,
}

impl<V> Profile<V>
where
    V: Copy + PartialEq + std::ops::Add<Output = V> + std::ops::Sub<Output = V>,
{
    fn new(zero: V) -> Self {
        Profile {
            times: vec![0],
            values: vec![zero],
        }
    }

    /// Resets to the all-`zero` profile, keeping allocated capacity.
    fn clear(&mut self, zero: V) {
        self.times.clear();
        self.times.push(0);
        self.values.clear();
        self.values.push(zero);
    }

    /// Index of the segment containing time `t`.
    fn segment(&self, t: u32) -> usize {
        self.times.partition_point(|&x| x <= t) - 1
    }

    /// First position in `[start, end)` whose segment value violates the
    /// predicate, together with the end of that segment (the next candidate
    /// time at which the value can change). `u32::MAX` marks an unbounded
    /// final segment.
    fn first_violation(
        &self,
        start: u32,
        end: u32,
        violates: impl Fn(V) -> bool,
    ) -> Option<(u32, u32)> {
        let mut i = self.segment(start);
        while i < self.times.len() && self.times[i] < end {
            if violates(self.values[i]) {
                let pos = self.times[i].max(start);
                let resume = self.times.get(i + 1).copied().unwrap_or(u32::MAX);
                return Some((pos, resume));
            }
            i += 1;
        }
        None
    }

    /// Ensures a breakpoint exists exactly at `t` and returns its index.
    fn ensure_breakpoint(&mut self, t: u32) -> usize {
        let i = self.segment(t);
        if self.times[i] == t {
            i
        } else {
            self.times.insert(i + 1, t);
            self.values.insert(i + 1, self.values[i]);
            i + 1
        }
    }

    /// Removes the breakpoint at `i` when it no longer changes the value.
    fn coalesce_at(&mut self, i: usize) {
        if i > 0 && i < self.values.len() && self.values[i] == self.values[i - 1] {
            self.times.remove(i);
            self.values.remove(i);
        }
    }

    /// Applies `value += delta` (or `-=`) over `[start, end)`.
    fn apply(&mut self, start: u32, end: u32, delta: V, subtract: bool) {
        if start >= end {
            return;
        }
        let first = self.ensure_breakpoint(start);
        let last = self.ensure_breakpoint(end);
        for v in &mut self.values[first..last] {
            *v = if subtract { *v - delta } else { *v + delta };
        }
        // Drop boundary breakpoints that became (or arrived) redundant;
        // highest index first so `first` stays valid.
        self.coalesce_at(last);
        self.coalesce_at(first);
    }
}

/// Event-driven timetable: per-machine occupancy profiles plus shared
/// power/bandwidth/core/resource profiles.
pub struct EventTimetable<'a> {
    instance: &'a Instance,
    machine: Vec<Profile<u32>>,
    power: Profile<f64>,
    bandwidth: Profile<f64>,
    cores: Profile<u32>,
    /// One profile per user-defined resource.
    extra: Vec<Profile<f64>>,
}

impl<'a> EventTimetable<'a> {
    fn new(instance: &'a Instance) -> Self {
        EventTimetable {
            instance,
            machine: (0..instance.num_machines())
                .map(|_| Profile::new(0u32))
                .collect(),
            power: Profile::new(0.0),
            bandwidth: Profile::new(0.0),
            cores: Profile::new(0u32),
            extra: instance
                .resources()
                .iter()
                .map(|_| Profile::new(0.0))
                .collect(),
        }
    }

    fn clear(&mut self) {
        for m in &mut self.machine {
            m.clear(0);
        }
        self.power.clear(0.0);
        self.bandwidth.clear(0.0);
        self.cores.clear(0);
        for r in &mut self.extra {
            r.clear(0.0);
        }
    }

    fn place(&mut self, mode: &Mode, start: u32) {
        let end = start + mode.duration;
        debug_assert!(
            self.machine[mode.machine.0]
                .first_violation(start, end, |v| v > 0)
                .is_none(),
            "machine double-booked"
        );
        self.machine[mode.machine.0].apply(start, end, 1, false);
        if mode.power > 0.0 {
            self.power.apply(start, end, mode.power, false);
        }
        if mode.bandwidth > 0.0 {
            self.bandwidth.apply(start, end, mode.bandwidth, false);
        }
        if mode.cores > 0 {
            self.cores.apply(start, end, mode.cores, false);
        }
        for &(r, amount) in &mode.resource_usage {
            if amount > 0.0 {
                self.extra[r.0].apply(start, end, amount, false);
            }
        }
    }

    fn unplace(&mut self, mode: &Mode, start: u32) {
        let end = start + mode.duration;
        self.machine[mode.machine.0].apply(start, end, 1, true);
        if mode.power > 0.0 {
            self.power.apply(start, end, mode.power, true);
        }
        if mode.bandwidth > 0.0 {
            self.bandwidth.apply(start, end, mode.bandwidth, true);
        }
        if mode.cores > 0 {
            self.cores.apply(start, end, mode.cores, true);
        }
        for &(r, amount) in &mode.resource_usage {
            if amount > 0.0 {
                self.extra[r.0].apply(start, end, amount, true);
            }
        }
    }
}

impl TimetableOps for EventTimetable<'_> {
    fn instance(&self) -> &Instance {
        self.instance
    }

    fn machine_conflict(&self, machine: usize, start: u32, end: u32) -> Option<(u32, u32)> {
        self.machine[machine].first_violation(start, end, |v| v > 0)
    }

    fn power_conflict(&self, start: u32, end: u32, add: f64, cap: f64) -> Option<(u32, u32)> {
        self.power
            .first_violation(start, end, |v| v + add > cap + 1e-9)
    }

    fn bandwidth_conflict(&self, start: u32, end: u32, add: f64, cap: f64) -> Option<(u32, u32)> {
        self.bandwidth
            .first_violation(start, end, |v| v + add > cap + 1e-9)
    }

    fn cores_conflict(&self, start: u32, end: u32, add: u32, cap: u32) -> Option<(u32, u32)> {
        self.cores.first_violation(start, end, |v| v + add > cap)
    }

    fn resource_conflict(
        &self,
        resource: usize,
        start: u32,
        end: u32,
        add: f64,
        cap: f64,
    ) -> Option<(u32, u32)> {
        self.extra[resource].first_violation(start, end, |v| v + add > cap + 1e-9)
    }
}

/// Dense per-time-step occupancy and resource usage over the horizon: the
/// original reference representation.
pub struct DenseTimetable<'a> {
    instance: &'a Instance,
    machine_busy: Vec<Vec<bool>>,
    power: Vec<f64>,
    bandwidth: Vec<f64>,
    cores: Vec<u32>,
    /// One profile per user-defined resource.
    extra: Vec<Vec<f64>>,
}

impl<'a> DenseTimetable<'a> {
    fn new(instance: &'a Instance) -> Self {
        let horizon = instance.horizon() as usize;
        DenseTimetable {
            instance,
            machine_busy: vec![vec![false; horizon]; instance.num_machines()],
            power: vec![0.0; horizon],
            bandwidth: vec![0.0; horizon],
            cores: vec![0; horizon],
            extra: vec![vec![0.0; horizon]; instance.resources().len()],
        }
    }

    fn clear(&mut self) {
        for busy in &mut self.machine_busy {
            busy.fill(false);
        }
        self.power.fill(0.0);
        self.bandwidth.fill(0.0);
        self.cores.fill(0);
        for profile in &mut self.extra {
            profile.fill(0.0);
        }
    }

    fn place(&mut self, mode: &Mode, start: u32) {
        let begin = start as usize;
        let end = begin + mode.duration as usize;
        for u in begin..end {
            debug_assert!(!self.machine_busy[mode.machine.0][u]);
            self.machine_busy[mode.machine.0][u] = true;
            self.power[u] += mode.power;
            self.bandwidth[u] += mode.bandwidth;
            self.cores[u] += mode.cores;
            for &(r, amount) in &mode.resource_usage {
                self.extra[r.0][u] += amount;
            }
        }
    }

    fn unplace(&mut self, mode: &Mode, start: u32) {
        let begin = start as usize;
        let end = begin + mode.duration as usize;
        for u in begin..end {
            self.machine_busy[mode.machine.0][u] = false;
            self.power[u] -= mode.power;
            self.bandwidth[u] -= mode.bandwidth;
            self.cores[u] -= mode.cores;
            for &(r, amount) in &mode.resource_usage {
                self.extra[r.0][u] -= amount;
            }
        }
    }
}

/// First step in `[start, end)` that violates, extended to the end of its
/// maximal violating run (scanning on past `end` up to `horizon`): the run
/// end is the first step at which the dimension's state differs, so it is
/// a valid resume hint — this is what lets the dense backend conflict-jump
/// instead of re-probing every step after a conflict.
fn dense_conflict_run(
    start: u32,
    end: u32,
    horizon: usize,
    violates: impl Fn(usize) -> bool,
) -> Option<(u32, u32)> {
    let pos = (start as usize..end as usize).find(|&u| violates(u))?;
    let mut resume = pos + 1;
    while resume < horizon && violates(resume) {
        resume += 1;
    }
    Some((pos as u32, resume as u32))
}

impl TimetableOps for DenseTimetable<'_> {
    fn instance(&self) -> &Instance {
        self.instance
    }

    fn machine_conflict(&self, machine: usize, start: u32, end: u32) -> Option<(u32, u32)> {
        let busy = &self.machine_busy[machine];
        dense_conflict_run(start, end, busy.len(), |u| busy[u])
    }

    fn power_conflict(&self, start: u32, end: u32, add: f64, cap: f64) -> Option<(u32, u32)> {
        dense_conflict_run(start, end, self.power.len(), |u| {
            self.power[u] + add > cap + 1e-9
        })
    }

    fn bandwidth_conflict(&self, start: u32, end: u32, add: f64, cap: f64) -> Option<(u32, u32)> {
        dense_conflict_run(start, end, self.bandwidth.len(), |u| {
            self.bandwidth[u] + add > cap + 1e-9
        })
    }

    fn cores_conflict(&self, start: u32, end: u32, add: u32, cap: u32) -> Option<(u32, u32)> {
        dense_conflict_run(start, end, self.cores.len(), |u| self.cores[u] + add > cap)
    }

    fn resource_conflict(
        &self,
        resource: usize,
        start: u32,
        end: u32,
        add: f64,
        cap: f64,
    ) -> Option<(u32, u32)> {
        let usage = &self.extra[resource];
        dense_conflict_run(start, end, usage.len(), |u| usage[u] + add > cap + 1e-9)
    }
}

/// Occupancy and resource usage over the horizon, in any representation.
pub enum Timetable<'a> {
    /// Breakpoint profiles (the fast default).
    Event(EventTimetable<'a>),
    /// Per-time-step vectors (the reference).
    Dense(DenseTimetable<'a>),
}

impl<'a> Timetable<'a> {
    /// An empty timetable in the requested representation.
    pub fn with_kind(instance: &'a Instance, kind: TimetableKind) -> Self {
        match kind {
            TimetableKind::Event => Timetable::Event(EventTimetable::new(instance)),
            TimetableKind::Dense => Timetable::Dense(DenseTimetable::new(instance)),
        }
    }

    /// Empties the timetable while keeping its allocations, so one buffer
    /// can be reused across many SGS runs.
    pub fn clear(&mut self) {
        match self {
            Timetable::Event(t) => t.clear(),
            Timetable::Dense(t) => t.clear(),
        }
    }

    /// Whether `mode` can run during `[start, start + duration)`. On
    /// conflict returns the next candidate start worth probing (always
    /// greater than `start`).
    pub fn fits_at(&self, mode: &Mode, start: u32) -> Result<(), u32> {
        match self {
            Timetable::Event(t) => t.fits_at(mode, start),
            Timetable::Dense(t) => t.fits_at(mode, start),
        }
    }

    /// Earliest start `>= est` at which `mode` fits, or `None` if it does
    /// not fit anywhere before the horizon.
    pub fn earliest_start(&self, mode: &Mode, est: u32) -> Option<u32> {
        self.earliest_start_by(mode, est, u32::MAX)
    }

    /// Earliest start in `[est, latest]` at which `mode` fits, or `None`:
    /// equal to `earliest_start(mode, est).filter(|&s| s <= latest)`, but
    /// the search stops once it passes `latest`. Dispatches once so the
    /// whole conflict-jump loop runs monomorphized inside the backend.
    pub fn earliest_start_by(&self, mode: &Mode, est: u32, latest: u32) -> Option<u32> {
        match self {
            Timetable::Event(t) => t.earliest_start_by(mode, est, latest),
            Timetable::Dense(t) => t.earliest_start_by(mode, est, latest),
        }
    }

    /// Marks `mode` as running during `[start, start + duration)`.
    pub fn place(&mut self, mode: &Mode, start: u32) {
        match self {
            Timetable::Event(t) => t.place(mode, start),
            Timetable::Dense(t) => t.place(mode, start),
        }
    }

    /// Reverts a previous [`Timetable::place`] call.
    pub fn unplace(&mut self, mode: &Mode, start: u32) {
        match self {
            Timetable::Event(t) => t.unplace(mode, start),
            Timetable::Dense(t) => t.unplace(mode, start),
        }
    }

    /// Total power drawn at time `t` (test observability).
    pub fn power_at(&self, t: u32) -> f64 {
        match self {
            Timetable::Event(tt) => tt.power.values[tt.power.segment(t)],
            Timetable::Dense(tt) => tt.power[t as usize],
        }
    }

    /// CPU cores occupied at time `t` (test observability).
    pub fn cores_at(&self, t: u32) -> u32 {
        match self {
            Timetable::Event(tt) => tt.cores.values[tt.cores.segment(t)],
            Timetable::Dense(tt) => tt.cores[t as usize],
        }
    }
}

/// Reservation-based admissibility filter for a whole-schedule energy
/// budget.
///
/// While a schedule is being grown, mode `m` is admissible for the
/// unplaced task `t` iff
///
/// ```text
/// spent + energy(m) + (reserved - min_energy[t]) <= cap (+eps)
/// ```
///
/// where `spent` is the energy of the modes already placed and `reserved`
/// is the sum of minimum mode energies over the tasks not yet placed. The
/// filter is *sound* (every complete schedule within the budget passes it
/// at every prefix, because the actual remaining energy is at least the
/// reserved minimum) and *complete* (a leaf reached through admissible
/// steps has total energy within the budget, because `reserved` is zero at
/// the end). It also keeps greedy construction extendable: placing an
/// admissible mode preserves `spent + reserved <= cap`, so every task's
/// minimum-energy mode stays admissible.
pub(crate) struct EnergyFilter {
    cap: f64,
    min_energy: Vec<f64>,
    reserved_total: f64,
}

impl EnergyFilter {
    /// Tolerance for cap comparisons, matching the instance cap checks.
    pub(crate) const EPS: f64 = 1e-9;

    pub(crate) fn new(instance: &Instance, cap: f64) -> Self {
        let min_energy = instance.per_task_min_energy();
        let reserved_total = min_energy.iter().sum();
        EnergyFilter {
            cap,
            min_energy,
            reserved_total,
        }
    }

    /// Whether any mode assignment at all can fit the budget.
    pub(crate) fn root_feasible(&self) -> bool {
        self.reserved_total <= self.cap + Self::EPS
    }

    /// Sum of minimum mode energies over all tasks (the initial reserve).
    pub(crate) fn initial_reserved(&self) -> f64 {
        self.reserved_total
    }

    /// Minimum mode energy of task `t`.
    pub(crate) fn min_energy(&self, t: usize) -> f64 {
        self.min_energy[t]
    }

    /// Whether a mode of energy `mode_energy` is admissible for the
    /// unplaced task `t` given the energy already `spent` and the current
    /// `reserved` minimum for unplaced tasks (including `t`).
    pub(crate) fn admissible(&self, spent: f64, reserved: f64, t: usize, mode_energy: f64) -> bool {
        spent + mode_energy + (reserved - self.min_energy[t]) <= self.cap + Self::EPS
    }
}

/// How the SGS selects a mode for the task being placed.
pub(crate) enum ModeRule<'f> {
    /// Try every mode and keep the one with the earliest finish, breaking
    /// ties towards lower energy.
    GreedyFinish,
    /// Force specific modes for some tasks (used by local search); others
    /// fall back to greedy.
    Forced(&'f [Option<ModeId>]),
}

/// Reusable buffers for [`serial_sgs_into`]: one set per worker, cleared
/// and refilled on every call, so a heuristic evaluating thousands of
/// candidates allocates nothing per pass. After a successful run the
/// buffers hold that run's schedule; [`Self::schedule`] clones it out, so
/// callers racing through candidates only pay for the ones they keep.
pub(crate) struct SgsScratch {
    starts: Vec<u32>,
    modes: Vec<ModeId>,
    finish: Vec<Option<u32>>,
    remaining_preds: Vec<usize>,
    ready: Vec<usize>,
}

impl SgsScratch {
    pub(crate) fn new(n: usize) -> Self {
        SgsScratch {
            starts: vec![0; n],
            modes: vec![ModeId(0); n],
            finish: vec![None; n],
            remaining_preds: vec![0; n],
            ready: Vec::with_capacity(n),
        }
    }

    /// The schedule left behind by the last successful run.
    pub(crate) fn schedule(&self) -> Schedule {
        Schedule {
            starts: self.starts.clone(),
            modes: self.modes.clone(),
        }
    }
}

/// Why [`serial_sgs_into`] stopped without a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SgsStop {
    /// The partial schedule proved that the makespan would reach the
    /// cutoff.
    CutOff,
    /// Some task has no admissible mode that fits before the horizon.
    Infeasible,
}

/// Runs the serial SGS over a ready list ordered by `priority` (highest
/// first), reusing `timetable` and `scratch` as working space (both are
/// cleared on entry). Returns the schedule's makespan — the schedule
/// itself stays in `scratch` — or why there is none.
///
/// With a `cutoff`, the run stops with [`SgsStop::CutOff`] as soon as its
/// partial schedule proves a makespan of at least `cutoff`; `tails` are the
/// per-task tails of [`crate::bounds::tails`]. Below the cutoff the run is
/// the uncut one, step for step: it returns the same makespan and leaves
/// the same schedule (DESIGN.md §4c, "Incumbent cutoff").
#[allow(clippy::too_many_arguments)]
pub(crate) fn serial_sgs_into(
    instance: &Instance,
    priority: &[f64],
    mode_rule: &ModeRule<'_>,
    energy: Option<&EnergyFilter>,
    tails: &[u32],
    cutoff: Option<u32>,
    timetable: &mut Timetable<'_>,
    scratch: &mut SgsScratch,
) -> Result<u32, SgsStop> {
    timetable.clear();
    let n = instance.num_tasks();
    let mut spent = 0.0f64;
    let mut reserved = energy.map_or(0.0, EnergyFilter::initial_reserved);
    if energy.is_some_and(|f| !f.root_feasible()) {
        return Err(SgsStop::Infeasible);
    }
    // Every task must finish before `limit`: the cutoff when it lies within
    // the horizon, else one step past the horizon, which the probes enforce
    // anyway. A run that cannot stay below it stops for that reason.
    let (limit, stop) = match cutoff {
        Some(c) if c <= instance.horizon() => (u64::from(c), SgsStop::CutOff),
        _ => (u64::from(instance.horizon()) + 1, SgsStop::Infeasible),
    };
    let SgsScratch {
        starts,
        modes,
        finish,
        remaining_preds,
        ready,
    } = scratch;
    starts.clear();
    starts.resize(n, 0);
    modes.clear();
    modes.resize(n, ModeId(0));
    finish.clear();
    finish.resize(n, None);
    remaining_preds.clear();
    remaining_preds.extend((0..n).map(|t| instance.predecessors(TaskId(t)).len()));
    ready.clear();
    ready.extend((0..n).filter(|&t| remaining_preds[t] == 0));
    let mut makespan = 0u32;

    for _ in 0..n {
        // Highest-priority ready task; ties broken by index for determinism.
        let (pos, &t) = ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                priority[a]
                    .partial_cmp(&priority[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .ok_or(SgsStop::Infeasible)?;
        ready.swap_remove(pos);
        let task = TaskId(t);
        let est = instance
            .incoming(task)
            .iter()
            .map(|e| match e.kind {
                EdgeKind::FinishToStart => {
                    finish[e.before.0].expect("ready tasks have scheduled predecessors") + e.lag
                }
                EdgeKind::StartToStart => starts[e.before.0] + e.lag,
            })
            .max()
            .unwrap_or(0);
        // `tails[t]` is measured from this task's start, so whichever mode
        // it gets, the workload cannot finish before `est + tails[t]`.
        if u64::from(est) + u64::from(tails[t]) >= limit {
            return Err(stop);
        }

        let chosen = match mode_rule {
            ModeRule::Forced(forced) if forced[t].is_some() => {
                let mode_id = forced[t].expect("checked is_some");
                let mode = instance.mode(task, mode_id);
                if energy.is_some_and(|f| !f.admissible(spent, reserved, t, mode.energy())) {
                    return Err(SgsStop::Infeasible);
                }
                // Only a start that finishes before `limit` can be used.
                last_start_before(limit, mode)
                    .and_then(|latest| timetable.earliest_start_by(mode, est, latest))
                    .map(|s| (mode_id, s, mode))
            }
            _ => {
                let mut best: Option<(ModeId, u32, &Mode)> = None;
                for (i, mode) in instance.task(task).modes.iter().enumerate() {
                    // Probe only up to the last start at which `mode` still
                    // beats the best: finishing earlier, or at the same step
                    // with strictly lower energy. Until there is a best, the
                    // bound is finishing before `limit`; the best does, so
                    // from then on its bound is the tighter one. Any start
                    // found is thus better, and a mode whose earliest start
                    // lies past the bound would have lost the comparison,
                    // or could not finish before `limit`, anyway.
                    let beats = best.map_or(limit, |(_, bs, bm)| {
                        u64::from(bs)
                            + u64::from(bm.duration)
                            + u64::from(mode.energy() < bm.energy())
                    });
                    let latest = match last_start_before(beats, mode) {
                        Some(latest) if latest >= est => latest,
                        _ => continue,
                    };
                    if energy.is_some_and(|f| !f.admissible(spent, reserved, t, mode.energy())) {
                        continue;
                    }
                    if let Some(s) = timetable.earliest_start_by(mode, est, latest) {
                        best = Some((ModeId(i), s, mode));
                    }
                }
                best
            }
        };

        // No mode finishes before `limit`: the greedy choice, or the forced
        // mode, would have finished at or past it.
        let (mode_id, start, mode) = chosen.ok_or(stop)?;
        if let Some(f) = energy {
            spent += mode.energy();
            reserved -= f.min_energy(t);
        }
        timetable.place(mode, start);
        starts[t] = start;
        modes[t] = mode_id;
        finish[t] = Some(start + mode.duration);
        makespan = makespan.max(start + mode.duration);
        // The finish is below `limit`; the tail from the actual start may
        // not be. (`finish + tails[t] - min_duration` would overestimate:
        // across a start-to-start edge the tail does not follow the finish.)
        if u64::from(start) + u64::from(tails[t]) >= limit {
            return Err(stop);
        }
        for &s in instance.successors(task) {
            remaining_preds[s.0] -= 1;
            if remaining_preds[s.0] == 0 {
                ready.push(s.0);
            }
        }
    }

    Ok(makespan)
}

/// The last start at which `mode` finishes strictly before `finish_before`,
/// or `None` if there is none.
fn last_start_before(finish_before: u64, mode: &Mode) -> Option<u32> {
    finish_before
        .checked_sub(u64::from(mode.duration) + 1)
        .map(|latest| u32::try_from(latest).unwrap_or(u32::MAX))
}

/// One-shot [`serial_sgs_into`] with freshly allocated working space.
#[cfg(test)]
pub(crate) fn serial_sgs(
    instance: &Instance,
    priority: &[f64],
    mode_rule: &ModeRule<'_>,
) -> Option<Schedule> {
    let mut timetable = Timetable::with_kind(instance, TimetableKind::Event);
    let mut scratch = SgsScratch::new(instance.num_tasks());
    serial_sgs_into(
        instance,
        priority,
        mode_rule,
        None,
        &crate::bounds::tails(instance),
        None,
        &mut timetable,
        &mut scratch,
    )
    .ok()
    .map(|_| scratch.schedule())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::tails;
    use crate::instance::{InstanceBuilder, MachineId, Mode, ResourceId};
    use hilp_testkit::strategies::{arb_instance, InstanceParams};
    use proptest::prelude::*;
    use proptest::TestCaseError;

    const ALL_KINDS: [TimetableKind; 2] = [TimetableKind::Event, TimetableKind::Dense];

    #[test]
    fn earliest_start_skips_busy_windows() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 3)]);
        b.add_task("b", vec![Mode::on(cpu, 2)]);
        b.set_horizon(10);
        let inst = b.build().unwrap();
        for kind in ALL_KINDS {
            let mut tt = Timetable::with_kind(&inst, kind);
            let mode = Mode::on(cpu, 3);
            tt.place(&mode, 2); // busy [2, 5)
            let probe = Mode::on(cpu, 2);
            assert_eq!(tt.earliest_start(&probe, 0), Some(0));
            assert_eq!(tt.earliest_start(&probe, 1), Some(5));
            assert_eq!(tt.earliest_start(&probe, 4), Some(5));
        }
    }

    #[test]
    fn earliest_start_respects_horizon() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 3)]);
        b.set_horizon(5);
        let inst = b.build().unwrap();
        for kind in ALL_KINDS {
            let tt = Timetable::with_kind(&inst, kind);
            let probe = Mode::on(cpu, 3);
            assert_eq!(tt.earliest_start(&probe, 2), Some(2));
            assert_eq!(tt.earliest_start(&probe, 3), None);
        }
    }

    #[test]
    fn earliest_start_respects_power_headroom() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        b.add_task("a", vec![Mode::on(cpu, 4).power(6.0)]);
        b.add_task("b", vec![Mode::on(gpu, 2).power(5.0)]);
        b.set_power_cap(10.0);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        for kind in ALL_KINDS {
            let mut tt = Timetable::with_kind(&inst, kind);
            tt.place(&Mode::on(cpu, 4).power(6.0), 0);
            let probe = Mode::on(gpu, 2).power(5.0);
            // 6 + 5 > 10 during [0,4): must wait until step 4.
            assert_eq!(tt.earliest_start(&probe, 0), Some(4));
        }
    }

    #[test]
    fn unplace_restores_headroom() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 2)]);
        b.set_horizon(10);
        let inst = b.build().unwrap();
        for kind in ALL_KINDS {
            let mut tt = Timetable::with_kind(&inst, kind);
            let mode = Mode::on(cpu, 2).power(3.0).bandwidth(1.0).cores(1);
            tt.place(&mode, 0);
            assert_eq!(tt.earliest_start(&Mode::on(cpu, 1), 0), Some(2));
            tt.unplace(&mode, 0);
            assert_eq!(tt.earliest_start(&Mode::on(cpu, 1), 0), Some(0));
            assert_eq!(tt.power_at(0), 0.0);
            assert_eq!(tt.cores_at(0), 0);
        }
    }

    #[test]
    fn clear_resets_a_reused_buffer() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 3)]);
        b.set_horizon(10);
        let inst = b.build().unwrap();
        for kind in ALL_KINDS {
            let mut tt = Timetable::with_kind(&inst, kind);
            let mode = Mode::on(cpu, 3).power(2.0);
            tt.place(&mode, 1);
            assert_eq!(tt.earliest_start(&Mode::on(cpu, 2), 0), Some(4));
            tt.clear();
            assert_eq!(tt.earliest_start(&Mode::on(cpu, 2), 0), Some(0));
            assert_eq!(tt.power_at(2), 0.0);
        }
    }

    #[test]
    fn event_probe_jumps_over_long_busy_segments() {
        // The event timetable must resolve this in one re-probe (resume at
        // the busy segment's end), not by stepping through 1000 steps; the
        // observable contract is just that both representations agree.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 1000)]);
        b.add_task("b", vec![Mode::on(cpu, 5)]);
        b.set_horizon(2000);
        let inst = b.build().unwrap();
        for kind in ALL_KINDS {
            let mut tt = Timetable::with_kind(&inst, kind);
            tt.place(&Mode::on(cpu, 1000), 0);
            assert_eq!(tt.earliest_start(&Mode::on(cpu, 5), 0), Some(1000));
        }
    }

    #[test]
    fn every_backend_conflict_jumps_in_a_bounded_probe_count() {
        // Regression: the dense backend used to answer `Err(t + 1)` and
        // linearly rescan all 1000 steps of the busy window; every backend
        // must now return the end of the blocking run so the conflict-jump
        // search finishes in two probes, whether the machine itself is busy
        // or the machine is free and the power or core cap blocks.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        b.add_task("a", vec![Mode::on(cpu, 1000)]);
        b.add_task("b", vec![Mode::on(cpu, 5)]);
        b.set_power_cap(10.0);
        b.set_core_cap(4);
        b.set_horizon(2000);
        let inst = b.build().unwrap();
        let cases = [
            ("machine", Mode::on(cpu, 1000), Mode::on(cpu, 5)),
            (
                "power cap",
                Mode::on(cpu, 1000).power(6.0),
                Mode::on(gpu, 5).power(5.0),
            ),
            (
                "core cap",
                Mode::on(cpu, 1000).cores(3),
                Mode::on(gpu, 5).cores(2),
            ),
        ];
        for (blocker, placed, probe) in &cases {
            for kind in ALL_KINDS {
                let mut tt = Timetable::with_kind(&inst, kind);
                tt.place(placed, 0);
                assert_eq!(tt.fits_at(probe, 0), Err(1000), "{kind:?} {blocker} hint");
                let mut probes = 0u32;
                let mut t = 0u32;
                let start = loop {
                    probes += 1;
                    match tt.fits_at(probe, t) {
                        Ok(()) => break t,
                        Err(next) => t = next,
                    }
                };
                assert_eq!(start, 1000, "{kind:?} {blocker}");
                assert_eq!(
                    tt.earliest_start(probe, 0),
                    Some(1000),
                    "{kind:?} {blocker}"
                );
                assert_eq!(probes, 2, "{kind:?} {blocker} must need exactly two probes");
            }
        }
    }

    #[test]
    fn sgs_respects_precedence_chains() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let setup = b.add_task("setup", vec![Mode::on(cpu, 1)]);
        let compute = b.add_task("compute", vec![Mode::on(gpu, 3)]);
        let teardown = b.add_task("teardown", vec![Mode::on(cpu, 1)]);
        b.add_precedence(setup, compute);
        b.add_precedence(compute, teardown);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = serial_sgs(&inst, &[0.0, 0.0, 0.0], &ModeRule::GreedyFinish).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.makespan(&inst), 5);
    }

    #[test]
    fn sgs_prefers_faster_mode() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t = b.add_task("t", vec![Mode::on(cpu, 8), Mode::on(gpu, 3)]);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = serial_sgs(&inst, &[0.0], &ModeRule::GreedyFinish).unwrap();
        assert_eq!(inst.mode(t, sched.modes[0]).machine, gpu);
    }

    #[test]
    fn sgs_breaks_finish_ties_towards_lower_energy() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("hungry");
        let m1 = b.add_machine("frugal");
        let t = b.add_task(
            "t",
            vec![Mode::on(m0, 3).power(50.0), Mode::on(m1, 3).power(5.0)],
        );
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = serial_sgs(&inst, &[0.0], &ModeRule::GreedyFinish).unwrap();
        assert_eq!(inst.mode(t, sched.modes[0]).machine, m1);
    }

    #[test]
    fn later_start_with_an_equal_finish_and_lower_energy_wins() {
        // `first` holds the frugal machine during [0, 2), so the frugal
        // mode starts two steps after the hungry one yet finishes at the
        // same step 5 with less energy: the bounded probe must still reach
        // start 2 and pick it.
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("hungry");
        let m1 = b.add_machine("frugal");
        b.add_task("first", vec![Mode::on(m1, 2)]);
        let t = b.add_task(
            "t",
            vec![Mode::on(m0, 5).power(50.0), Mode::on(m1, 3).power(5.0)],
        );
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = serial_sgs(&inst, &[1.0, 0.0], &ModeRule::GreedyFinish).unwrap();
        assert_eq!(inst.mode(t, sched.modes[t.0]).machine, m1);
        assert_eq!(sched.starts[t.0], 2);
    }

    #[test]
    fn forced_modes_are_honored() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t = b.add_task("t", vec![Mode::on(cpu, 8), Mode::on(gpu, 3)]);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let forced = vec![Some(ModeId(0))];
        let sched = serial_sgs(&inst, &[0.0], &ModeRule::Forced(&forced)).unwrap();
        assert_eq!(inst.mode(t, sched.modes[0]).machine, cpu);
    }

    #[test]
    fn sgs_returns_none_when_horizon_is_too_small() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 4)]);
        b.add_task("b", vec![Mode::on(cpu, 4)]);
        b.set_horizon(6);
        let inst = b.build().unwrap();
        assert!(serial_sgs(&inst, &[0.0, 0.0], &ModeRule::GreedyFinish).is_none());
    }

    #[test]
    fn priorities_steer_the_ready_list() {
        // Two independent tasks on one machine: the higher-priority one
        // goes first.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let a = b.add_task("a", vec![Mode::on(cpu, 2)]);
        let c = b.add_task("b", vec![Mode::on(cpu, 2)]);
        b.set_horizon(10);
        let inst = b.build().unwrap();
        let sched = serial_sgs(&inst, &[0.0, 1.0], &ModeRule::GreedyFinish).unwrap();
        assert_eq!(sched.starts[c.0], 0);
        assert_eq!(sched.starts[a.0], 2);
    }

    #[test]
    fn cutoff_bounds_by_the_tail_from_the_start_across_start_to_start_edges() {
        // `a` is placed on m1 over [0, 10) because `c` holds m0 until 15,
        // and `b` waits only for `a` to start, so the schedule ends at 20.
        // The bound `start + tails[a]` reads 0 + 20; one from `a`'s finish,
        // `finish + tails[a] - min_duration[a]`, would read 10 + 20 - 1 = 29
        // and wrongly cut off the run at 21.
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let m2 = b.add_machine("m2");
        b.add_task("c", vec![Mode::on(m0, 15)]);
        let a = b.add_task("a", vec![Mode::on(m0, 1), Mode::on(m1, 10)]);
        let after = b.add_task("b", vec![Mode::on(m2, 20)]);
        b.add_initiation_interval(a, after, 0);
        b.set_horizon(40);
        let inst = b.build().unwrap();
        let tails = tails(&inst);
        for kind in ALL_KINDS {
            let mut tt = Timetable::with_kind(&inst, kind);
            let mut scratch = SgsScratch::new(inst.num_tasks());
            let mut run = |cutoff| {
                let makespan = serial_sgs_into(
                    &inst,
                    &[3.0, 2.0, 1.0],
                    &ModeRule::GreedyFinish,
                    None,
                    &tails,
                    cutoff,
                    &mut tt,
                    &mut scratch,
                );
                (makespan, scratch.schedule())
            };
            let (uncut, schedule) = run(None);
            assert_eq!(uncut, Ok(20), "{kind:?}");
            assert_eq!(inst.mode(a, schedule.modes[a.0]).machine, m1, "{kind:?}");
            assert_eq!(run(Some(21)), (Ok(20), schedule), "{kind:?}");
            assert_eq!(run(Some(20)).0, Err(SgsStop::CutOff), "{kind:?}");
        }
    }

    /// `arb_instance`, rebuilt as this build's [`Instance`]: the testkit
    /// links the library build of this crate, whose types are distinct from
    /// the unit-test build's. The fingerprints must match.
    fn arb_local_instance(params: InstanceParams) -> BoxedStrategy<Instance> {
        arb_instance(params)
            .prop_map(|drawn| {
                let mut b = InstanceBuilder::new();
                for label in drawn.machines() {
                    b.add_machine(label.clone());
                }
                for (label, capacity) in drawn.resources() {
                    b.add_resource(label.clone(), *capacity);
                }
                for task in drawn.tasks() {
                    let modes = task
                        .modes
                        .iter()
                        .map(|m| {
                            let mut mode = Mode::on(MachineId(m.machine.0), m.duration)
                                .power(m.power)
                                .bandwidth(m.bandwidth)
                                .cores(m.cores);
                            for &(r, amount) in &m.resource_usage {
                                mode = mode.uses(ResourceId(r.0), amount);
                            }
                            mode
                        })
                        .collect();
                    b.add_task(task.label.clone(), modes);
                }
                let mut order = drawn.topological_order().to_vec();
                order.sort_by_key(|task| task.0);
                for &task in &order {
                    for e in drawn.outgoing(task) {
                        let (before, after) = (TaskId(e.before.0), TaskId(e.after.0));
                        // The drawn `EdgeKind` cannot be named here, only
                        // told apart by its name.
                        if format!("{:?}", e.kind) == "StartToStart" {
                            b.add_initiation_interval(before, after, e.lag);
                        } else {
                            b.add_precedence_lagged(before, after, e.lag);
                        }
                    }
                }
                if let Some(cap) = drawn.power_cap() {
                    b.set_power_cap(cap);
                }
                if let Some(cap) = drawn.bandwidth_cap() {
                    b.set_bandwidth_cap(cap);
                }
                if let Some(cap) = drawn.core_cap() {
                    b.set_core_cap(cap);
                }
                if let Some(cap) = drawn.energy_cap() {
                    b.set_energy_cap(cap);
                }
                b.set_horizon(drawn.horizon());
                let local = b.build().expect("a drawn instance rebuilds");
                assert_eq!(local.fingerprint(), drawn.fingerprint());
                local
            })
            .boxed()
    }

    /// On every backend, for greedy and forced mode rules, with and without
    /// an energy budget: a run cut off at `cutoff` stops exactly when the
    /// uncut run fails or reaches `cutoff`, and otherwise returns the uncut
    /// makespan and leaves the uncut schedule in the scratch.
    fn check_cutoff_contract(
        inst: &Instance,
        priority: &[f64],
        forced: &[Option<usize>],
        energy_slack: f64,
    ) -> Result<(), TestCaseError> {
        let n = inst.num_tasks();
        let tails = tails(inst);
        let forced: Vec<Option<ModeId>> = (0..n)
            .map(|t| forced[t].map(|k| ModeId(k % inst.tasks()[t].modes.len())))
            .collect();
        let filter = EnergyFilter::new(inst, inst.min_total_energy() * (1.0 + energy_slack));
        for rule in [ModeRule::GreedyFinish, ModeRule::Forced(&forced)] {
            for energy in [None, Some(&filter)] {
                for kind in ALL_KINDS {
                    let mut tt = Timetable::with_kind(inst, kind);
                    let mut scratch = SgsScratch::new(n);
                    let mut run = |cutoff| {
                        let makespan = serial_sgs_into(
                            inst,
                            &priority[..n],
                            &rule,
                            energy,
                            &tails,
                            cutoff,
                            &mut tt,
                            &mut scratch,
                        );
                        (makespan, scratch.schedule())
                    };
                    let (uncut, schedule) = run(None);
                    match uncut {
                        Ok(m) => {
                            for cutoff in [m - 1, m, m + 1, u32::MAX] {
                                let (cut, cut_schedule) = run(Some(cutoff));
                                if cutoff <= m {
                                    prop_assert_eq!(
                                        cut,
                                        Err(SgsStop::CutOff),
                                        "{:?}: cutoff {} <= makespan {}",
                                        kind,
                                        cutoff,
                                        m
                                    );
                                } else {
                                    prop_assert_eq!(cut, Ok(m), "{:?}: cutoff {}", kind, cutoff);
                                    prop_assert_eq!(&cut_schedule, &schedule, "{:?}", kind);
                                }
                            }
                        }
                        Err(stop) => {
                            prop_assert_eq!(stop, SgsStop::Infeasible, "{:?}", kind);
                            for cutoff in [1, inst.horizon(), u32::MAX] {
                                prop_assert!(run(Some(cutoff)).0.is_err(), "{:?}", kind);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cutoff_stops_exactly_the_runs_that_reach_it_on_tiny_instances(
            inst in arb_local_instance(InstanceParams::tiny()),
            priority in prop::collection::vec(0.0..1.0f64, 10),
            forced in prop::collection::vec(prop::option::of(0..4usize), 10),
            energy_slack in 0.0..0.5f64,
        ) {
            check_cutoff_contract(&inst, &priority, &forced, energy_slack)?;
        }

        #[test]
        fn cutoff_stops_exactly_the_runs_that_reach_it_on_small_instances(
            inst in arb_local_instance(InstanceParams::small()),
            priority in prop::collection::vec(0.0..1.0f64, 10),
            forced in prop::collection::vec(prop::option::of(0..4usize), 10),
            energy_slack in 0.0..0.5f64,
        ) {
            check_cutoff_contract(&inst, &priority, &forced, energy_slack)?;
        }
    }
}
