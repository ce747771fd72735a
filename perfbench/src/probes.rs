//! Timing decorators for the traced run. Each wraps one public seam of
//! the simulator — the three policy trait objects in
//! [`PipelinePolicies`] and the AVF [`SimObserver`] — forwards every
//! trait method to the wrapped object unchanged, and charges the host
//! time of the hot-path methods to a shared [`Probes`] record. The
//! decorators never touch simulated state, so a traced point must
//! reproduce its untraced statistics bit for bit (the sweep checks it).

use micro_isa::{DynSeq, Pc, ThreadId};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};
use smt_sim::dispatch::DispatchGovernor;
use smt_sim::fetch::{FetchPolicy, FetchView};
use smt_sim::pipeline::PipelinePolicies;
use smt_sim::{FetchPolicyKind, GovernorView, IntervalSnapshot, IssuePolicy, ReadyInst};
use smt_sim::{RetireEvent, SimObserver};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Host time and call count accumulated at one seam.
#[derive(Debug, Default)]
pub struct Seam {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Seam {
    /// Run `f`, charging its wall time and one call to this seam.
    /// Returns the result and the instant `f` returned.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Instant) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.ns.set(self.ns.get() + (end - start).as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        (r, end)
    }

    pub fn seconds(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Everything the decorators of one traced workload record.
#[derive(Debug, Default)]
pub struct Probes {
    pub fetch: Seam,
    pub issue: Seam,
    pub governor: Seam,
    pub observer: Seam,
    /// Last time the fetch policy of a *marked* pipeline was consulted —
    /// the fault-injection golden run is marked, so this is when its
    /// last simulated cycle fetched.
    pub marked_last_fetch: Cell<Option<Instant>>,
}

impl Probes {
    pub fn new() -> Rc<Probes> {
        Rc::new(Probes::default())
    }

    /// Wrap all three policy seams of `policies`. With `mark`, the
    /// fetch decorator also stamps [`Probes::marked_last_fetch`].
    pub fn wrap(self: &Rc<Probes>, policies: PipelinePolicies, mark: bool) -> PipelinePolicies {
        PipelinePolicies {
            fetch: Box::new(TimedFetch {
                inner: policies.fetch,
                probes: Rc::clone(self),
                mark,
            }),
            issue: Box::new(TimedIssue {
                inner: policies.issue,
                probes: Rc::clone(self),
            }),
            governor: Box::new(TimedGovernor {
                inner: policies.governor,
                probes: Rc::clone(self),
            }),
        }
    }
}

pub struct TimedFetch {
    inner: Box<dyn FetchPolicy>,
    probes: Rc<Probes>,
    mark: bool,
}

impl FetchPolicy for TimedFetch {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> FetchPolicyKind {
        self.inner.kind()
    }

    fn thread_order(&mut self, view: &FetchView) -> Vec<ThreadId> {
        let inner = &mut self.inner;
        let (order, end) = self.probes.fetch.time(|| inner.thread_order(view));
        if self.mark {
            self.probes.marked_last_fetch.set(Some(end));
        }
        order
    }

    fn gate(&self, view: &FetchView, tid: ThreadId) -> bool {
        self.probes.fetch.time(|| self.inner.gate(view, tid)).0
    }

    fn flush_on_l2_miss(&self) -> bool {
        self.probes.fetch.time(|| self.inner.flush_on_l2_miss()).0
    }

    fn on_load_fetched(&mut self, tid: ThreadId, seq: DynSeq, pc: Pc) {
        let inner = &mut self.inner;
        self.probes
            .fetch
            .time(|| inner.on_load_fetched(tid, seq, pc));
    }

    fn on_load_issued(&mut self, tid: ThreadId, pc: Pc, l1_miss: bool) {
        let inner = &mut self.inner;
        self.probes
            .fetch
            .time(|| inner.on_load_issued(tid, pc, l1_miss));
    }

    fn on_load_gone(&mut self, tid: ThreadId, seq: DynSeq) {
        let inner = &mut self.inner;
        self.probes.fetch.time(|| inner.on_load_gone(tid, seq));
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

pub struct TimedIssue {
    inner: Box<dyn IssuePolicy>,
    probes: Rc<Probes>,
}

impl IssuePolicy for TimedIssue {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prioritize(&mut self, ready: &mut Vec<ReadyInst>) {
        let inner = &mut self.inner;
        self.probes.issue.time(|| inner.prioritize(ready));
    }
}

pub struct TimedGovernor {
    inner: Box<dyn DispatchGovernor>,
    probes: Rc<Probes>,
}

impl DispatchGovernor for TimedGovernor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_cycle(&mut self, view: &GovernorView) {
        let inner = &mut self.inner;
        self.probes.governor.time(|| inner.begin_cycle(view));
    }

    fn on_interval(&mut self, snapshot: &IntervalSnapshot, view: &GovernorView) {
        let inner = &mut self.inner;
        self.probes
            .governor
            .time(|| inner.on_interval(snapshot, view));
    }

    fn allow_dispatch(&mut self, view: &GovernorView, tid: ThreadId) -> bool {
        let inner = &mut self.inner;
        self.probes
            .governor
            .time(|| inner.allow_dispatch(view, tid))
            .0
    }

    fn on_l2_miss(&mut self, tid: ThreadId) {
        let inner = &mut self.inner;
        self.probes.governor.time(|| inner.on_l2_miss(tid));
    }

    fn flush_override(&self) -> bool {
        self.probes.governor.time(|| self.inner.flush_override()).0
    }

    fn set_tracer(&mut self, tracer: sim_trace::Tracer) {
        self.inner.set_tracer(tracer)
    }

    fn set_metrics(&mut self, metrics: sim_metrics::Metrics) {
        self.inner.set_metrics(metrics)
    }

    fn set_profiling(&mut self, on: bool) {
        self.inner.set_profiling(on)
    }

    fn profile_report(&self) -> Option<sim_profile::ProfileReport> {
        self.inner.profile_report()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

/// Decorator around a [`SimObserver`] (the AVF collector in the sweeps).
pub struct TimedObserver<'a, O: SimObserver> {
    pub inner: &'a mut O,
    pub probes: &'a Probes,
}

impl<O: SimObserver> SimObserver for TimedObserver<'_, O> {
    fn on_commit(&mut self, ev: &RetireEvent) {
        let inner = &mut self.inner;
        self.probes.observer.time(|| inner.on_commit(ev));
    }

    fn on_squash(&mut self, ev: &RetireEvent) {
        let inner = &mut self.inner;
        self.probes.observer.time(|| inner.on_squash(ev));
    }

    fn on_finish(&mut self, final_cycle: u64) {
        let inner = &mut self.inner;
        self.probes.observer.time(|| inner.on_finish(final_cycle));
    }
}
