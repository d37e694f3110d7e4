//! Scheduler-visible simulation state.
//!
//! [`SimState`] is the read-only interface handed to a
//! [`crate::Scheduler`] each slot. It enforces the paper's information
//! model: deadline-aware workflows are fully described (DAG, estimated
//! demands, estimated runtimes — they are recurring), while ad-hoc jobs
//! expose no size information ([`JobView::estimated_remaining`] is `None`).

use crate::cluster::ClusterConfig;
use crate::job::{JobClass, JobRuntime, WorkflowSubmission};
use flowtime_dag::{JobId, ResourceVec, Workflow, WorkflowId, NUM_RESOURCES};
use std::collections::BTreeSet;

/// Scheduler-visible snapshot of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobView {
    /// Unique job id.
    pub id: JobId,
    /// Workload class and workflow linkage.
    pub class: JobClass,
    /// Resources per concurrent task.
    pub per_task: ResourceVec,
    /// Slot the job was submitted.
    pub arrival_slot: u64,
    /// Slot the job became runnable (dependencies met), if it has.
    pub ready_slot: Option<u64>,
    /// Estimated remaining work in task-slots; `None` for ad-hoc jobs,
    /// whose size is unknown to schedulers.
    pub estimated_remaining: Option<u64>,
    /// Estimated total work in task-slots; `None` for ad-hoc jobs.
    pub estimated_total: Option<u64>,
    /// Estimated duration of one task in slots; `None` for ad-hoc jobs.
    pub task_slots: Option<u64>,
    /// The most concurrent tasks the job can usefully run this slot
    /// (its parallelism cap, shrunk by its currently pending tasks — the
    /// analogue of a YARN application's outstanding container requests).
    pub max_tasks_this_slot: u64,
    /// Milestone deadline for this job, when tracked.
    pub deadline_slot: Option<u64>,
    /// Work completed so far, in task-slots.
    pub done_work: u64,
}

impl JobView {
    /// True if the job is an ad-hoc (best-effort) job.
    pub fn is_adhoc(&self) -> bool {
        self.class.is_adhoc()
    }
}

/// Scheduler-visible snapshot of one workflow.
#[derive(Debug, Clone)]
pub struct WorkflowView<'a> {
    /// The static description (DAG, estimated job specs, window).
    pub workflow: &'a Workflow,
    /// Engine job id of each DAG node.
    pub job_ids: &'a [JobId],
    /// Completion flag of each DAG node.
    pub completed: &'a [bool],
    /// How many nodes have completed (the `true` entries of `completed`).
    pub completed_count: usize,
}

impl WorkflowView<'_> {
    /// The workflow id.
    pub fn id(&self) -> WorkflowId {
        self.workflow.id()
    }

    /// True once every node has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_count == self.completed.len()
    }
}

pub(crate) struct WorkflowInstance {
    pub submission: WorkflowSubmission,
    pub job_ids: Vec<JobId>,
    /// Completion flag of each DAG node, set by
    /// [`SimState::mark_node_complete`] the moment the node's job
    /// completes, so views lend it instead of re-deriving it.
    pub completed: Vec<bool>,
    /// Number of `true` entries in `completed`.
    pub completed_count: usize,
}

impl WorkflowInstance {
    pub(crate) fn new(submission: WorkflowSubmission, job_ids: Vec<JobId>) -> Self {
        WorkflowInstance {
            completed: vec![false; job_ids.len()],
            completed_count: 0,
            submission,
            job_ids,
        }
    }

    /// True once every node has completed.
    pub(crate) fn is_complete(&self) -> bool {
        self.completed_count == self.job_ids.len()
    }
}

#[cfg(test)]
thread_local! {
    /// Id → row translations done on this thread; lets a test pin "this
    /// view was built without touching the job table".
    pub(crate) static ROW_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(any(test, feature = "oracle"))]
thread_local! {
    static VIEWS_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`JobView`]s built on this thread so far — what a counted test reads
/// around one `plan_slot` to pin "a slot builds the views it grants, not
/// one per runnable job". Test and `oracle` builds only.
#[cfg(any(test, feature = "oracle"))]
pub fn views_built() -> u64 {
    VIEWS_BUILT.with(std::cell::Cell::get)
}

/// The resource dimensions a task of shape `need` uses none of.
fn zero_dims(need: ResourceVec) -> impl Iterator<Item = usize> {
    (0..NUM_RESOURCES).filter(move |&r| need.dim(r) == 0)
}

/// Which live index [`SimState::enter`] / [`SimState::leave`] move a row
/// into or out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Live {
    /// Arrived and incomplete: `visible` and its deadline subset.
    Visible,
    /// Also ready: `runnable`, its deadline subset and the zero-need
    /// counts.
    Runnable,
}

/// The engine's world state, exposed read-only to schedulers.
pub struct SimState {
    pub(crate) now: u64,
    pub(crate) cluster: ClusterConfig,
    /// The dense job table: `jobs[i].id == JobId::new(i)`, asserted where
    /// rows are appended (`Engine::assemble`, `OnlineEngine::splice`), so
    /// [`Self::row`] is a bounds test, not a map probe.
    pub(crate) jobs: Vec<JobRuntime>,
    pub(crate) workflows: Vec<WorkflowInstance>,
    /// Arrived, ready, incomplete jobs keyed `(arrival_slot, id)` — the
    /// iteration order [`Self::runnable`] promises. Maintained
    /// incrementally by the engine's event queue. This set, the three
    /// below it and `zero_need` change only through [`Self::enter`] and
    /// [`Self::leave`].
    pub(crate) runnable: BTreeSet<(u64, JobId)>,
    /// The deadline-class rows of `runnable`, same key.
    pub(crate) runnable_deadline: BTreeSet<(u64, JobId)>,
    /// Arrived, incomplete jobs (superset of `runnable`), same key.
    pub(crate) visible: BTreeSet<(u64, JobId)>,
    /// The deadline-class rows of `visible`, same key.
    pub(crate) visible_deadline: BTreeSet<(u64, JobId)>,
    /// Per resource dimension, the `runnable` rows whose task needs none
    /// of it (see [`Self::runnable_zero_need`]).
    pub(crate) zero_need: [usize; NUM_RESOURCES],
    /// Every job that has left `visible`, in order of departure.
    /// Append-only, so the invariant checker folds each departed row
    /// exactly once by remembering how far it has read.
    pub(crate) departed: Vec<JobId>,
    /// Count of jobs not yet complete — lets the engine's run loop test
    /// for termination without scanning every job each slot.
    pub(crate) incomplete: usize,
    /// Mid-run node-crash windows ([`crate::faults::RuntimeFaultPlan`]).
    /// Unlike the cluster's own maintenance windows these are *revealed
    /// only*: they cap [`Self::capacity_now`] but never
    /// [`Self::capacity_at`], so planning schedulers cannot foresee them.
    pub(crate) crash_overlay: Vec<crate::cluster::CapacityWindow>,
}

impl SimState {
    /// The current slot index.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Base cluster capacity (ignoring time-varying windows).
    pub fn capacity(&self) -> ResourceVec {
        self.cluster.capacity()
    }

    /// The capacity in force during the *current* slot — what an
    /// allocation for this slot is validated against. Mid-run node
    /// crashes shrink this below [`Self::capacity_at`]`(now)`: the crash
    /// overlay is revealed slot by slot, never ahead of time.
    pub fn capacity_now(&self) -> ResourceVec {
        let base = self.cluster.capacity_at(self.now);
        self.crash_overlay
            .iter()
            .rev()
            .find(|w| w.from_slot <= self.now && self.now < w.to_slot)
            .map_or(base, |w| base.min(&w.capacity))
    }

    /// The capacity in force during an arbitrary slot (for planners that
    /// look ahead across maintenance windows). Deliberately excludes
    /// mid-run crash windows — schedulers must not foresee failures.
    pub fn capacity_at(&self, slot: u64) -> ResourceVec {
        self.cluster.capacity_at(slot)
    }

    /// Duration of one slot in seconds.
    pub fn slot_seconds(&self) -> f64 {
        self.cluster.slot_seconds()
    }

    /// The table row of `id`, or `None` for an id no row carries.
    pub(crate) fn row(&self, id: JobId) -> Option<usize> {
        #[cfg(test)]
        ROW_LOOKUPS.with(|c| c.set(c.get() + 1));
        usize::try_from(id.as_u64())
            .ok()
            .filter(|&row| row < self.jobs.len())
    }

    /// The table row of an id the engine issued itself (index sets, event
    /// heap, workflow node tables, an allocation `check_slot` accepted).
    pub(crate) fn issued_row(&self, id: JobId) -> usize {
        self.row(id).expect("engine-issued job id is a table row")
    }

    /// The runtime row behind an engine-issued id.
    pub(crate) fn issued(&self, id: JobId) -> &JobRuntime {
        &self.jobs[self.issued_row(id)]
    }

    /// True when every row sits at the index its id names, from `from` on.
    pub(crate) fn ids_are_dense(&self, from: usize) -> bool {
        self.jobs[from..]
            .iter()
            .zip(from as u64..)
            .all(|(job, row)| job.id == JobId::new(row))
    }

    /// Records that `node` of workflow `w` completed.
    pub(crate) fn mark_node_complete(&mut self, w: usize, node: usize) {
        let inst = &mut self.workflows[w];
        if !std::mem::replace(&mut inst.completed[node], true) {
            inst.completed_count += 1;
        }
    }

    fn view_of(&self, job: &JobRuntime) -> JobView {
        #[cfg(any(test, feature = "oracle"))]
        VIEWS_BUILT.with(|c| c.set(c.get() + 1));
        let (estimated_remaining, estimated_total, task_slots) = match job.class {
            JobClass::AdHoc => (None, None, None),
            JobClass::Deadline { .. } => (
                Some(job.estimated_remaining()),
                Some(job.estimate.work()),
                Some(job.estimate.task_slots()),
            ),
        };
        JobView {
            id: job.id,
            class: job.class,
            per_task: job.estimate.per_task(),
            arrival_slot: job.arrival_slot,
            ready_slot: job.ready_slot,
            estimated_remaining,
            estimated_total,
            task_slots,
            max_tasks_this_slot: job
                .estimate
                .effective_parallel()
                .min(job.remaining_actual()),
            deadline_slot: job.deadline_slot,
            done_work: job.done_work,
        }
    }

    /// The views of the rows `keys` names, in key order, each built only
    /// when it is pulled.
    fn views<'a>(&'a self, keys: &'a BTreeSet<(u64, JobId)>) -> impl Iterator<Item = JobView> + 'a {
        keys.iter().map(|&(_, id)| self.view_of(self.issued(id)))
    }

    /// Jobs that have arrived, are ready, and are incomplete — the set a
    /// scheduler may allocate to this slot. Ordered by arrival slot, then
    /// id, for determinism. Lazy: a view is built when it is pulled, so a
    /// scheduler that stops early pays for the views it read.
    pub fn runnable(&self) -> impl Iterator<Item = JobView> + '_ {
        self.views(&self.runnable)
    }

    /// The deadline-class (workflow) jobs of [`Self::runnable`], same
    /// order, read from their own index.
    pub fn runnable_deadline(&self) -> impl Iterator<Item = JobView> + '_ {
        self.views(&self.runnable_deadline)
    }

    /// The ad-hoc jobs of [`Self::runnable`], same order: a deadline row
    /// it skips costs a class test, not a view.
    pub fn runnable_adhoc(&self) -> impl Iterator<Item = JobView> + '_ {
        self.runnable
            .iter()
            .map(|&(_, id)| self.issued(id))
            .filter(|job| job.class.is_adhoc())
            .map(|job| self.view_of(job))
    }

    /// All arrived, incomplete jobs — including workflow jobs whose
    /// dependencies are still pending (useful for planning ahead). Same
    /// order and laziness as [`Self::runnable`].
    pub fn visible(&self) -> impl Iterator<Item = JobView> + '_ {
        self.views(&self.visible)
    }

    /// The deadline-class jobs of [`Self::visible`], same order, read
    /// from their own index.
    pub fn visible_deadline(&self) -> impl Iterator<Item = JobView> + '_ {
        self.views(&self.visible_deadline)
    }

    /// Per resource dimension `r`, how many [`Self::runnable`] jobs have
    /// tasks that need none of `r`. Where that count is zero and `r` is
    /// used up, no runnable job fits another task this slot.
    pub fn runnable_zero_need(&self) -> [usize; NUM_RESOURCES] {
        self.zero_need
    }

    /// Puts the job at `row` into the `live` index and its derived ones
    /// (the deadline subset; for `runnable`, the zero-need counts). Every
    /// insert into the live indices goes through here; inserting a row
    /// already present changes nothing.
    pub(crate) fn enter(&mut self, live: Live, row: usize) {
        let job = &self.jobs[row];
        let key = (job.arrival_slot, job.id);
        let deadline = !job.class.is_adhoc();
        let need = job.estimate.per_task();
        let (set, subset) = match live {
            Live::Visible => (&mut self.visible, &mut self.visible_deadline),
            Live::Runnable => (&mut self.runnable, &mut self.runnable_deadline),
        };
        if !set.insert(key) {
            return;
        }
        if deadline {
            subset.insert(key);
        }
        if live == Live::Runnable {
            for r in zero_dims(need) {
                self.zero_need[r] += 1;
            }
        }
    }

    /// Takes the job at `row` out of the `live` index and its derived
    /// ones; a row leaving `visible` is logged in `departed`. Every remove
    /// from the live indices goes through here; removing an absent row
    /// changes nothing.
    pub(crate) fn leave(&mut self, live: Live, row: usize) {
        let job = &self.jobs[row];
        let key = (job.arrival_slot, job.id);
        let deadline = !job.class.is_adhoc();
        let need = job.estimate.per_task();
        let (set, subset) = match live {
            Live::Visible => (&mut self.visible, &mut self.visible_deadline),
            Live::Runnable => (&mut self.runnable, &mut self.runnable_deadline),
        };
        if !set.remove(&key) {
            return;
        }
        if deadline {
            subset.remove(&key);
        }
        match live {
            Live::Visible => self.departed.push(key.1),
            Live::Runnable => {
                for r in zero_dims(need) {
                    self.zero_need[r] -= 1;
                }
            }
        }
    }

    /// Rebuilds the live indices and the `incomplete` counter from a full
    /// scan of the job table. The heap engine keeps them incrementally;
    /// this is the reference path used by the linear-scan oracle (and by
    /// `Engine::new` to seed the counter).
    pub(crate) fn rebuild_indices(&mut self) {
        let was_visible = std::mem::take(&mut self.visible);
        self.visible_deadline.clear();
        self.runnable.clear();
        self.runnable_deadline.clear();
        self.zero_need = [0; NUM_RESOURCES];
        self.incomplete = 0;
        for row in 0..self.jobs.len() {
            let job = &self.jobs[row];
            if job.is_complete() || job.shed_slot.is_some() {
                continue;
            }
            self.incomplete += 1;
            if job.arrival_slot > self.now {
                continue;
            }
            let runnable = job.is_runnable(self.now);
            self.enter(Live::Visible, row);
            if runnable {
                self.enter(Live::Runnable, row);
            }
        }
        self.departed
            .extend(was_visible.difference(&self.visible).map(|&(_, id)| id));
    }

    /// True when the derived indices are what a recount of `runnable` and
    /// `visible` gives: the reference the invariant checker holds
    /// [`Self::enter`] / [`Self::leave`] to on every slot of a test or
    /// `oracle` build.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn derived_indices_agree(&self) -> bool {
        let deadline_rows = |set: &BTreeSet<(u64, JobId)>| -> BTreeSet<(u64, JobId)> {
            set.iter()
                .filter(|&&(_, id)| !self.issued(id).class.is_adhoc())
                .copied()
                .collect()
        };
        let mut zero_need = [0; NUM_RESOURCES];
        for &(_, id) in &self.runnable {
            for r in zero_dims(self.issued(id).estimate.per_task()) {
                zero_need[r] += 1;
            }
        }
        deadline_rows(&self.runnable) == self.runnable_deadline
            && deadline_rows(&self.visible) == self.visible_deadline
            && zero_need == self.zero_need
    }

    /// Looks up one job by id (visible only once arrived).
    pub fn job(&self, id: JobId) -> Option<JobView> {
        self.row(id)
            .map(|row| &self.jobs[row])
            .filter(|j| j.arrival_slot <= self.now)
            .map(|j| self.view_of(j))
    }

    /// Workflows that have arrived, with per-node completion status. The
    /// flags are lent from the engine's own bookkeeping: a view costs the
    /// same for a finished workflow as for a live one, and no job row is
    /// read to build it.
    pub fn workflows(&self) -> Vec<WorkflowView<'_>> {
        self.workflows
            .iter()
            .filter(|w| w.submission.workflow.submit_slot() <= self.now)
            .map(|w| WorkflowView {
                workflow: &w.submission.workflow,
                job_ids: &w.job_ids,
                completed: &w.completed,
                completed_count: w.completed_count,
            })
            .collect()
    }

    /// Sum of resources held by an allocation mapping `job → tasks`.
    pub(crate) fn allocation_usage(&self, pairs: &[(JobId, u64)]) -> ResourceVec {
        pairs.iter().fold(ResourceVec::zero(), |acc, &(id, q)| {
            acc + self.issued(id).estimate.per_task() * q
        })
    }
}
