//! The traced run: timing wrappers around the built-in policies, an
//! observer that closes pass spans, and the per-layer totals they add up
//! to.
//!
//! A pass span opens when `Ordering::order` is entered (the first thing
//! `Scheduler::schedule` does) and closes when the engine emits
//! `SimEvent::PassCompleted`. Inside it, order, placement (`plan`,
//! `nominal_shape`, `best_dilation`) and observer callbacks are timed as
//! children; what is left is the pass's own work: profile build, backfill
//! scan, admission loop, and starting the chosen jobs. Each pass keeps
//! one fixed-size record of its children's summed durations and call
//! counts, so the trace stays O(passes); records are written out after
//! the run.
//!
//! The wrappers only delegate, so a traced run's trace hash must equal the
//! untraced one; the benchmark checks that on every traced run.
//!
//! State lives in a thread-local: the policies and observers of one
//! `Simulation::run_with` all run on the calling thread.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::{Duration, Instant};

use dmhpc_sched::{
    Demand, MemoryPolicy, OrderPolicy, Ordering, PassDirective, Placement, PlannedAllocation,
    QueuedJob, SchedContext,
};
use dmhpc_sim::observe::{Observer, RunContext, RunEnd, SimEvent, TraceSink};
use dmhpc_sim::SimError;
use dmhpc_workload::Job;

/// Timed work of one child layer: calls and summed nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Calls made.
    pub calls: u64,
    /// Summed duration of the calls, nanoseconds.
    pub ns: u64,
}

impl Work {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    fn merge(&mut self, o: Work) {
        self.calls += o.calls;
        self.ns += o.ns;
    }
}

/// Child work attributed to one pass (or to the engine, outside passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Children {
    /// `Ordering::order`.
    pub order: Work,
    /// Queue entries handed to `order`.
    pub order_entries: u64,
    /// `Placement::plan`.
    pub plan: Work,
    /// `plan` calls that returned a placement.
    pub plan_ok: u64,
    /// `Placement::nominal_shape`.
    pub nominal: Work,
    /// `Placement::best_dilation`.
    pub best_dilation: Work,
    /// Observer callbacks.
    pub observer: Work,
}

impl Children {
    fn merge(&mut self, o: &Children) {
        self.order.merge(o.order);
        self.order_entries += o.order_entries;
        self.plan.merge(o.plan);
        self.plan_ok += o.plan_ok;
        self.nominal.merge(o.nominal);
        self.best_dilation.merge(o.best_dilation);
        self.observer.merge(o.observer);
    }

    pub fn ns(&self) -> u64 {
        self.order.ns + self.plan.ns + self.nominal.ns + self.best_dilation.ns + self.observer.ns
    }
}

/// One scheduling pass.
#[derive(Debug, Clone, Copy)]
pub struct PassSpan {
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Timed children.
    pub children: Children,
    /// Jobs the pass started.
    pub started: u64,
    /// Queue depth when the pass began.
    pub depth: u64,
}

/// How arrivals reach the engine, for reconstructing its pending set.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// A closed batch: every arrival is scheduled up front.
    Closed(u64),
    /// An open stream: one pending arrival until the horizon is reached.
    Open(u64),
}

/// Everything one traced run recorded.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    open: Option<(Instant, Children, u64)>,
    /// Closed pass spans, in run order.
    pub spans: Vec<PassSpan>,
    /// Child work that happened outside any pass.
    pub outside: Children,
    /// Events delivered to the tracing observer.
    pub dispatches: u64,
    /// `JobRejected` events.
    pub rejected: u64,
    /// `JobDeferred` events.
    pub deferred: u64,
    /// `FaultApplied` + `FaultCleared` events.
    pub fault_events: u64,
    /// `JobInterrupted` events.
    pub interruptions: u64,
    /// Rework charged by interruptions, seconds.
    pub rework_s: f64,
    /// Largest live pending-event set reconstructed from the stream.
    pub pending_peak: u64,
    arrivals: Arrivals,
    submitted: u64,
    running: u64,
    faults_total: u64,
}

impl Tracer {
    fn new(arrivals: Arrivals, faults_total: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            open: None,
            spans: Vec::new(),
            outside: Children::default(),
            dispatches: 0,
            rejected: 0,
            deferred: 0,
            fault_events: 0,
            interruptions: 0,
            rework_s: 0.0,
            pending_peak: 0,
            arrivals,
            submitted: 0,
            running: 0,
            faults_total,
        }
    }

    fn children(&mut self) -> &mut Children {
        match &mut self.open {
            Some((_, c, _)) => c,
            None => &mut self.outside,
        }
    }

    fn close(&mut self, at: Instant, started: u64) {
        if let Some((start, children, depth)) = self.open.take() {
            self.spans.push(PassSpan {
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: at.duration_since(start).as_nanos() as u64,
                children,
                started,
                depth,
            });
        }
    }

    /// Live pending events: arrivals not yet delivered, one finish per
    /// running job, and fault actions not yet applied. Stale finish stamps
    /// left behind by re-dilation are not visible from outside the engine,
    /// so this is a lower bound on the queue's length.
    fn pending(&self) -> u64 {
        let arrivals = match self.arrivals {
            Arrivals::Closed(n) => n.saturating_sub(self.submitted),
            Arrivals::Open(n) => u64::from(self.submitted < n),
        };
        arrivals + self.running + self.faults_total.saturating_sub(self.fault_events)
    }

    fn on_event(&mut self, ev: &SimEvent, at: Instant) {
        self.dispatches += 1;
        match ev {
            SimEvent::JobSubmitted {
                resubmit: false, ..
            } => self.submitted += 1,
            SimEvent::AllocationGrabbed { .. } => self.running += 1,
            SimEvent::AllocationReleased { .. } => self.running = self.running.saturating_sub(1),
            SimEvent::JobInterrupted { rework_s, .. } => {
                self.interruptions += 1;
                self.rework_s += rework_s;
            }
            SimEvent::JobRejected { .. } => self.rejected += 1,
            SimEvent::JobDeferred { .. } => self.deferred += 1,
            SimEvent::FaultApplied { .. } | SimEvent::FaultCleared { .. } => self.fault_events += 1,
            SimEvent::PassCompleted { started, .. } => self.close(at, *started as u64),
            _ => {}
        }
        self.pending_peak = self.pending_peak.max(self.pending());
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    TRACER.with(|t| t.borrow_mut().as_mut().map(f))
}

/// Start recording on this thread.
pub fn begin(arrivals: Arrivals, faults_total: u64) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(arrivals, faults_total)));
}

/// Stop recording and hand back what was recorded.
pub fn end() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// A built-in ordering, timed. Its entry opens the pass span.
#[derive(Debug)]
pub struct TimedOrder(pub OrderPolicy);

impl Ordering for TimedOrder {
    fn name(&self) -> &str {
        Ordering::name(&self.0)
    }

    fn order(&self, entries: &mut [QueuedJob], ctx: &SchedContext<'_>) {
        let t0 = Instant::now();
        Ordering::order(&self.0, entries, ctx);
        let d = t0.elapsed();
        let depth = entries.len() as u64;
        with(|t| {
            t.close(t0, 0);
            let mut children = Children::default();
            children.order.add(d);
            children.order_entries = depth;
            t.open = Some((t0, children, depth));
        });
    }

    fn directive(&self, entries: &[QueuedJob], ctx: &SchedContext<'_>) -> PassDirective {
        Ordering::directive(&self.0, entries, ctx)
    }
}

/// A built-in placement policy, timed per method.
#[derive(Debug)]
pub struct TimedPlacement(pub MemoryPolicy);

impl Placement for TimedPlacement {
    fn name(&self) -> &str {
        Placement::name(&self.0)
    }

    fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
        let t0 = Instant::now();
        let r = Placement::nominal_shape(&self.0, job, ctx);
        let d = t0.elapsed();
        with(|t| t.children().nominal.add(d));
        r
    }

    fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
        let t0 = Instant::now();
        let r = Placement::plan(&self.0, job, ctx);
        let d = t0.elapsed();
        let ok = r.is_some();
        with(|t| {
            let c = t.children();
            c.plan.add(d);
            c.plan_ok += u64::from(ok);
        });
        r
    }

    fn best_dilation(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<f64> {
        let t0 = Instant::now();
        let r = Placement::best_dilation(&self.0, job, ctx);
        let d = t0.elapsed();
        with(|t| t.children().best_dilation.add(d));
        r
    }
}

/// The observer that closes pass spans and counts events. Its own
/// callback time is recorded as observer work.
#[derive(Debug, Default)]
pub struct TraceObserver;

impl Observer for TraceObserver {
    fn on_event(&mut self, ev: &SimEvent) {
        let t0 = Instant::now();
        with(|t| {
            t.on_event(ev, t0);
            let d = t0.elapsed();
            t.children().observer.add(d);
        });
    }
}

/// A `TraceSink` whose `on_event` is timed.
pub struct TimedSink {
    /// The wrapped sink.
    pub sink: TraceSink,
    /// Timed `on_event` calls.
    pub work: Work,
}

impl Observer for TimedSink {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.sink.on_run_start(ctx);
    }

    fn on_event(&mut self, ev: &SimEvent) {
        let t0 = Instant::now();
        self.sink.on_event(ev);
        self.work.add(t0.elapsed());
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        self.sink.on_run_end(end);
    }

    fn failure(&self) -> Option<SimError> {
        self.sink.failure()
    }
}

/// Per-layer totals of one or more traced runs (fleet sites add up).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Pass durations, nanoseconds.
    pub pass_ns: Vec<u64>,
    /// Children summed over every pass.
    pub in_pass: Children,
    /// Children outside passes.
    pub outside: Children,
    /// Jobs started by passes.
    pub started: u64,
    /// Passes that started nothing.
    pub idle_passes: u64,
    /// Summed queue depth at pass start.
    pub depth_sum: u64,
    /// Events delivered to the tracing observer.
    pub dispatches: u64,
    /// Rejections.
    pub rejected: u64,
    /// Deferrals.
    pub deferred: u64,
    /// Fault transitions.
    pub fault_events: u64,
    /// Interruptions.
    pub interruptions: u64,
    /// Rework, seconds.
    pub rework_s: f64,
    /// Largest reconstructed pending set.
    pub pending_peak: u64,
}

impl Layers {
    /// Fold one run's recording in.
    pub fn add(&mut self, t: &Tracer) {
        for s in &t.spans {
            self.pass_ns.push(s.dur_ns);
            self.in_pass.merge(&s.children);
            self.started += s.started;
            self.idle_passes += u64::from(s.started == 0);
            self.depth_sum += s.depth;
        }
        self.outside.merge(&t.outside);
        self.dispatches += t.dispatches;
        self.rejected += t.rejected;
        self.deferred += t.deferred;
        self.fault_events += t.fault_events;
        self.interruptions += t.interruptions;
        self.rework_s += t.rework_s;
        self.pending_peak = self.pending_peak.max(t.pending_peak);
    }

    /// Summed pass duration, nanoseconds.
    pub fn pass_total_ns(&self) -> u64 {
        self.pass_ns.iter().sum()
    }

    /// Pass time not covered by any timed child, nanoseconds.
    pub fn pass_self_ns(&self) -> u64 {
        self.pass_total_ns().saturating_sub(self.in_pass.ns())
    }

    /// Every timed child, in and out of passes.
    pub fn all_children(&self) -> Children {
        let mut c = self.in_pass;
        c.merge(&self.outside);
        c
    }
}

/// Write the pass spans of labelled traced runs as JSON lines.
pub fn write_spans(path: &std::path::Path, runs: &[(String, Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (label, t) in runs {
        for s in &t.spans {
            let c = &s.children;
            writeln!(
                out,
                "{{\"run\":\"{label}\",\"span\":\"sched.pass\",\"start_ns\":{},\"dur_ns\":{},\"depth\":{},\"started\":{},\
\"order_ns\":{},\"plan_calls\":{},\"plan_ok\":{},\"plan_ns\":{},\"nominal_calls\":{},\"nominal_ns\":{},\
\"best_dilation_calls\":{},\"best_dilation_ns\":{},\"observer_calls\":{},\"observer_ns\":{}}}",
                s.start_ns,
                s.dur_ns,
                s.depth,
                s.started,
                c.order.ns,
                c.plan.calls,
                c.plan_ok,
                c.plan.ns,
                c.nominal.calls,
                c.nominal.ns,
                c.best_dilation.calls,
                c.best_dilation.ns,
                c.observer.calls,
                c.observer.ns,
            )?;
        }
    }
    out.flush()
}
