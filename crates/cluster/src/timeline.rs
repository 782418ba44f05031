//! Discrete-event fluid timeline: spans and flow sets on a shared clock.
//!
//! [`ClusterNet::transfer`](crate::net::ClusterNet::transfer) prices one
//! flow set in isolation. The timeline generalizes that to *many* tasks
//! live at once: fixed-duration **spans** (compute, parameter updates) and
//! fluid **flow batches** (collective steps) all advance against one
//! simulated clock, and every batch admitted mid-flight re-triggers the
//! max-min rate computation so concurrent transfers contend exactly as the
//! fluid model says they should (preemptable fluid flows).
//!
//! The driver pattern is event-reactive: callers admit tasks at the
//! current clock, call [`FluidTimeline::advance`] to step to the next
//! completion, and admit successor tasks in response. Because admissions
//! only ever happen at event times, the schedule is a deterministic
//! function of the admitted task sequence — no wall-clock, no randomness.
//!
//! Per-link carried bytes are accumulated as flows progress, so after a
//! run the timeline can report average utilization per link *class* (SoC
//! links, board NICs, switch backplane) — the observability half of the
//! paper's §2.3 bottleneck story.

use crate::net::{ClusterNet, Flow};
use crate::Seconds;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Handle to a task admitted to the timeline. Ids are dense and assigned
/// in admission order, which also fixes the tie-break order when several
/// tasks complete at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

/// One completed task: which, and when the clock read at completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The completed task.
    pub id: TaskId,
    /// Simulated completion time, seconds from timeline start.
    pub at: Seconds,
}

/// Average utilization per link class over a horizon: bytes actually
/// carried divided by what the class could have carried. All values are
/// fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkClassUtil {
    /// SoC SAS links (tx + rx).
    pub soc_links: f64,
    /// Board NIC uplinks (tx + rx) — the paper's shared bottleneck.
    pub board_nics: f64,
    /// Switch backplane.
    pub switch: f64,
}

/// Drain threshold matching `ClusterNet`'s fluid integration: a flow with
/// fewer residual bytes than this is complete.
const DRAIN_EPS: f64 = 1e-9;
/// Residual-seconds threshold below which a span or latency is complete.
const TIME_EPS: f64 = 1e-12;

struct FlowState {
    path: Vec<usize>,
    remaining: f64,
}

enum Work {
    Span {
        remaining: Seconds,
    },
    Batch {
        latency_left: Seconds,
        flows: Vec<FlowState>,
    },
}

/// Max scratches parked per thread; repeated pricing is serial per
/// thread, so a small pool covers nested timelines without hoarding.
const SCRATCH_POOL_CAP: usize = 4;
/// Max recycled flow-path buffers kept inside one scratch.
const PATH_POOL_CAP: usize = 512;
/// Max distinct active flow sets whose max-min rates one run memoizes.
/// A priced epoch cycles through a few dozen; a run that overflows the
/// cap starts its memo over.
const RATE_MEMO_CAP: usize = 1024;

/// Reusable buffers for one timeline run: the task/event queue, the live
/// set, per-link carried bytes, the `step()` workspace, a free-list of
/// flow-path buffers and the max-min rate memo. Parked in a thread-local
/// pool between runs so repeated pricing (the autotuner's bread and
/// butter) stops paying allocation churn per call.
#[derive(Default)]
struct TimelineScratch {
    tasks: Vec<Work>,
    live: Vec<usize>,
    carried: Vec<f64>,
    /// `step()` workspace: (task, flow) of each active path.
    locate: Vec<(usize, usize)>,
    /// `step()` workspace: the ordered active path list, flattened as
    /// `len, links..` per flow — the rate memo's key.
    key: Vec<usize>,
    /// Max-min rates per ordered active path list. The order is part of
    /// the key because it fixes the solver's float operations, so a hit
    /// returns exactly the bits a fresh solve would. Link capacities are
    /// fixed within a run but not across `ClusterNet`s, so `reset()`
    /// clears it.
    rate_memo: HashMap<Vec<usize>, Vec<f64>>,
    /// Recycled `FlowState` path buffers, harvested as batches are
    /// reported.
    path_pool: Vec<Vec<usize>>,
}

/// Parks a finished batch's path buffers on the free-list (up to its cap).
fn recycle_paths(pool: &mut Vec<Vec<usize>>, flows: Vec<FlowState>) {
    for mut f in flows {
        if pool.len() == PATH_POOL_CAP {
            break;
        }
        f.path.clear();
        pool.push(f.path);
    }
}

impl TimelineScratch {
    /// Clears run state, harvesting the path buffers of batches never
    /// reported. Capacity is what the free-list exists to keep.
    fn reset(&mut self) {
        for w in self.tasks.drain(..) {
            if let Work::Batch { flows, .. } = w {
                recycle_paths(&mut self.path_pool, flows);
            }
        }
        self.live.clear();
        self.carried.clear();
        self.locate.clear();
        self.key.clear();
        self.rate_memo.clear();
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<TimelineScratch>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_ACQUIRES: Cell<u64> = const { Cell::new(0) };
    static SCRATCH_MISSES: Cell<u64> = const { Cell::new(0) };
    static RATE_SOLVES: Cell<u64> = const { Cell::new(0) };
    static RATE_HITS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

fn acquire_scratch() -> TimelineScratch {
    bump(&SCRATCH_ACQUIRES);
    let parked = SCRATCH_POOL.with(|p| p.borrow_mut().pop());
    parked.unwrap_or_else(|| {
        bump(&SCRATCH_MISSES);
        TimelineScratch::default()
    })
}

fn release_scratch(mut scratch: TimelineScratch) {
    scratch.reset();
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    });
}

/// Counters over the calling thread's scratch free-list and rate memo
/// (both are thread-local, so the counters are too — measurements can't
/// be polluted by other threads pricing concurrently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Scratch acquisitions — one per [`FluidTimeline::new`].
    pub acquires: u64,
    /// Acquisitions that allocated fresh because the pool was empty.
    /// `acquires > misses` witnesses buffer reuse across runs.
    pub misses: u64,
    /// Steps that ran the max-min solver: the first time a run saw its
    /// active flow set.
    pub rate_solves: u64,
    /// Steps that reused memoized max-min rates for an active flow set
    /// the run had already solved.
    pub rate_hits: u64,
}

/// Snapshot of this thread's scratch counters (see [`ScratchStats`]).
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        acquires: SCRATCH_ACQUIRES.with(|c| c.get()),
        misses: SCRATCH_MISSES.with(|c| c.get()),
        rate_solves: RATE_SOLVES.with(|c| c.get()),
        rate_hits: RATE_HITS.with(|c| c.get()),
    }
}

/// Zeroes this thread's scratch counters (the parked buffers stay, so a
/// post-reset acquisition still hits the pool).
pub fn reset_scratch_stats() {
    for counter in [&SCRATCH_ACQUIRES, &SCRATCH_MISSES, &RATE_SOLVES, &RATE_HITS] {
        counter.with(|c| c.set(0));
    }
}

impl Work {
    fn is_complete(&self) -> bool {
        match self {
            Work::Span { remaining } => *remaining <= TIME_EPS,
            Work::Batch {
                latency_left,
                flows,
            } => *latency_left <= TIME_EPS && flows.iter().all(|f| f.remaining <= DRAIN_EPS),
        }
    }
}

/// The event-driven timeline simulator (see the module docs for the
/// driver contract).
///
/// Host cost tracks the *live* tasks, not every task admitted: a batch's
/// flow state goes back to the free-list as soon as its completion is
/// reported, and max-min rates are solved once per distinct ordered
/// active flow set and memoized for the rest of the run (a priced epoch
/// admits ~10⁵ batches but revisits a few dozen active sets).
pub struct FluidTimeline<'n> {
    net: &'n ClusterNet,
    now: Seconds,
    /// All run state lives in the scratch: the task/event queue, the
    /// unreported-task live set (kept in admission order, so each event
    /// is O(live) instead of O(all admitted) — an epoch can admit ~10⁵
    /// tasks but only ~10² are ever live at once), per-link carried
    /// bytes, the `step()` workspace and the rate memo. Acquired from a
    /// thread-local free-list and parked again on drop.
    scratch: TimelineScratch,
}

impl std::fmt::Debug for FluidTimeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidTimeline")
            .field("now", &self.now)
            .field("tasks", &self.scratch.tasks.len())
            .finish()
    }
}

impl Drop for FluidTimeline<'_> {
    fn drop(&mut self) {
        release_scratch(std::mem::take(&mut self.scratch));
    }
}

impl<'n> FluidTimeline<'n> {
    /// Creates an empty timeline over a cluster network at clock zero.
    pub fn new(net: &'n ClusterNet) -> Self {
        let mut scratch = acquire_scratch();
        scratch.carried.resize(net.num_links(), 0.0);
        FluidTimeline {
            now: 0.0,
            net,
            scratch,
        }
    }

    /// Current simulated clock, seconds.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Admits a fixed-duration span (compute, update, stall) starting at
    /// the current clock.
    ///
    /// # Panics
    /// Panics if `duration` is negative or not finite.
    pub fn start_span(&mut self, duration: Seconds) -> TaskId {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid span duration"
        );
        self.push(Work::Span {
            remaining: duration,
        })
    }

    /// Admits a fluid flow batch (one collective step) starting at the
    /// current clock. The batch first waits out `latency` seconds of
    /// protocol setup, then its flows drain under max-min fair sharing
    /// with every other active batch; it completes when the last flow
    /// drains. Self-flows and zero-byte flows are dropped (they complete
    /// instantly, as in [`ClusterNet::transfer`]).
    ///
    /// # Panics
    /// Panics if `latency` is negative or not finite.
    pub fn start_flows(&mut self, flows: &[Flow], latency: Seconds) -> TaskId {
        assert!(latency.is_finite() && latency >= 0.0, "invalid latency");
        let mut states = Vec::with_capacity(flows.len());
        for f in flows {
            if f.bytes > 0.0 && f.src != f.dst {
                // recycled path buffers: the free-list's hottest customer
                let mut path = self.scratch.path_pool.pop().unwrap_or_default();
                self.net.path_into(f, &mut path);
                states.push(FlowState {
                    path,
                    remaining: f.bytes,
                });
            }
        }
        self.push(Work::Batch {
            latency_left: latency,
            flows: states,
        })
    }

    fn push(&mut self, work: Work) -> TaskId {
        let id = TaskId(self.scratch.tasks.len());
        self.scratch.live.push(id.0);
        self.scratch.tasks.push(work);
        id
    }

    /// Advances to the next task completion and returns it; `None` when
    /// every admitted task has already been reported. Simultaneous
    /// completions are reported one at a time, in [`TaskId`] order,
    /// without moving the clock between them.
    pub fn advance(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.harvest() {
                return Some(c);
            }
            if !self.step() {
                return None;
            }
        }
    }

    /// Reports one complete-but-unreported task, lowest id first (`live`
    /// is kept in admission order, so a linear scan finds it). A reported
    /// batch's flow state is never read again, so its path buffers go
    /// straight back to the free-list.
    fn harvest(&mut self) -> Option<Completion> {
        let TimelineScratch {
            tasks,
            live,
            path_pool,
            ..
        } = &mut self.scratch;
        let pos = live.iter().position(|&i| tasks[i].is_complete())?;
        let i = live.remove(pos);
        if let Work::Batch { flows, .. } = &mut tasks[i] {
            recycle_paths(path_pool, std::mem::take(flows));
        }
        Some(Completion {
            id: TaskId(i),
            at: self.now,
        })
    }

    /// Integrates the fluid system forward to the next event (span end,
    /// latency expiry, or flow drain). Returns `false` if nothing is live.
    fn step(&mut self) -> bool {
        // Gather the active flow set (batches past their setup latency)
        // as the rate memo's key: every path, in live order.
        let TimelineScratch {
            tasks,
            live,
            carried,
            locate,
            key,
            rate_memo,
            ..
        } = &mut self.scratch;
        locate.clear();
        key.clear();
        let mut dt = f64::INFINITY;
        for &ti in live.iter() {
            match &tasks[ti] {
                Work::Span { remaining } => dt = dt.min(*remaining),
                Work::Batch {
                    latency_left,
                    flows,
                } => {
                    if *latency_left > TIME_EPS {
                        dt = dt.min(*latency_left);
                    } else {
                        for (fi, f) in flows.iter().enumerate() {
                            if f.remaining > DRAIN_EPS {
                                key.push(f.path.len());
                                key.extend_from_slice(&f.path);
                                locate.push((ti, fi));
                            }
                        }
                    }
                }
            }
        }
        let rates: &[f64] = if locate.is_empty() {
            &[]
        } else if let Some(hit) = rate_memo.get(key.as_slice()) {
            bump(&RATE_HITS);
            hit
        } else {
            // A new active set: solve it once for the rest of the run.
            bump(&RATE_SOLVES);
            let paths: Vec<Vec<usize>> = locate
                .iter()
                .map(|&(ti, fi)| match &tasks[ti] {
                    Work::Batch { flows, .. } => flows[fi].path.clone(),
                    Work::Span { .. } => unreachable!("only batches carry flows"),
                })
                .collect();
            let active: Vec<usize> = (0..paths.len()).collect();
            let solved = self.net.max_min_rates(&active, &paths);
            if rate_memo.len() == RATE_MEMO_CAP {
                rate_memo.clear();
            }
            rate_memo.entry(key.clone()).or_insert(solved)
        };
        for (&(ti, fi), &r) in locate.iter().zip(rates) {
            debug_assert!(r > 0.0, "max-min must give every flow a rate");
            if let Work::Batch { flows, .. } = &tasks[ti] {
                dt = dt.min(flows[fi].remaining / r);
            }
        }
        if !dt.is_finite() {
            return false; // nothing live at all
        }
        // Integrate forward by dt.
        self.now += dt;
        for &ti in live.iter() {
            match &mut tasks[ti] {
                Work::Span { remaining } => *remaining -= dt,
                Work::Batch { latency_left, .. } => {
                    if *latency_left > TIME_EPS {
                        *latency_left -= dt;
                    }
                }
            }
        }
        for (&(ti, fi), &r) in locate.iter().zip(rates) {
            if let Work::Batch { flows, .. } = &mut tasks[ti] {
                let moved = r * dt;
                flows[fi].remaining -= moved;
                for &l in &flows[fi].path {
                    carried[l] += moved;
                }
            }
        }
        true
    }

    /// Average utilization per link class over `[0, horizon]` seconds:
    /// bytes carried by the class divided by the class's aggregate
    /// capacity times the horizon. Zero for a non-positive horizon.
    pub fn class_utilization(&self, horizon: Seconds) -> LinkClassUtil {
        if horizon <= 0.0 {
            return LinkClassUtil::default();
        }
        let caps = self.net.link_caps();
        let socs = 2 * self.net.spec().total_socs();
        let boards = 2 * self.net.spec().boards;
        let class = |range: std::ops::Range<usize>| -> f64 {
            let carried: f64 = self.scratch.carried[range.clone()].iter().sum();
            let cap: f64 = caps[range].iter().sum();
            if cap <= 0.0 {
                0.0
            } else {
                (carried / (cap * horizon)).clamp(0.0, 1.0)
            }
        };
        LinkClassUtil {
            soc_links: class(0..socs),
            board_nics: class(socs..socs + boards),
            switch: class(socs + boards..socs + boards + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, SocId};

    const MB: f64 = 1e6;

    fn net() -> ClusterNet {
        ClusterNet::new(ClusterSpec::paper_server())
    }

    fn drain(tl: &mut FluidTimeline<'_>) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = tl.advance() {
            out.push(c);
        }
        out
    }

    #[test]
    fn lone_span_completes_at_duration() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        let id = tl.start_span(2.5);
        let c = tl.advance().unwrap();
        assert_eq!(c.id, id);
        assert!((c.at - 2.5).abs() < 1e-12);
        assert!(tl.advance().is_none());
    }

    #[test]
    fn spans_complete_in_time_order_with_id_tiebreak() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        let a = tl.start_span(2.0);
        let b = tl.start_span(1.0);
        let c = tl.start_span(2.0);
        let done = drain(&mut tl);
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![b, a, c]);
        assert!((done[1].at - 2.0).abs() < 1e-12);
        assert!((done[2].at - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lone_batch_matches_transfer_makespan_plus_latency() {
        let n = net();
        let flows = [Flow::new(SocId(0), SocId(5), 125.0 * MB)];
        let reference = n.transfer(&flows).makespan;
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&flows, 0.021);
        let c = tl.advance().unwrap();
        assert!((c.at - (reference + 0.021)).abs() < 1e-9, "{}", c.at);
    }

    #[test]
    fn concurrent_batches_contend_like_one_transfer() {
        // both flows share board 0's NIC: together they take 2 s
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&[Flow::new(SocId(0), SocId(5), 125.0 * MB)], 0.0);
        tl.start_flows(&[Flow::new(SocId(1), SocId(6), 125.0 * MB)], 0.0);
        let done = drain(&mut tl);
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at - 2.0).abs() < 1e-3, "{}", c.at);
        }
    }

    #[test]
    fn late_batch_preempts_bandwidth_mid_flight() {
        // A: 250 MB on soc 0's tx link (2 s alone). After 1 s a second
        // batch grabs half the link; A's last 125 MB takes 2 more seconds.
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        let a = tl.start_flows(&[Flow::new(SocId(0), SocId(1), 250.0 * MB)], 0.0);
        let gate = tl.start_span(1.0);
        let first = tl.advance().unwrap();
        assert_eq!(first.id, gate);
        let b = tl.start_flows(&[Flow::new(SocId(0), SocId(2), 125.0 * MB)], 0.0);
        let done = drain(&mut tl);
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at - 3.0).abs() < 1e-3, "task {:?} at {}", c.id, c.at);
        }
        assert!(done.iter().any(|c| c.id == a) && done.iter().any(|c| c.id == b));
    }

    #[test]
    fn empty_batch_completes_after_latency_only() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&[Flow::new(SocId(3), SocId(3), 1e9)], 0.5);
        let c = tl.advance().unwrap();
        assert!((c.at - 0.5).abs() < 1e-12);
        let instant = tl.start_flows(&[], 0.0);
        let c2 = tl.advance().unwrap();
        assert_eq!(c2.id, instant);
        assert!((c2.at - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_accounts_only_touched_classes() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)], 0.0);
        let c = tl.advance().unwrap();
        let util = tl.class_utilization(c.at);
        assert!(util.soc_links > 0.0 && util.soc_links <= 1.0);
        assert_eq!(util.board_nics, 0.0);
        assert_eq!(util.switch, 0.0);
        assert_eq!(tl.class_utilization(0.0), LinkClassUtil::default());
    }

    #[test]
    fn runs_are_deterministic() {
        let n = net();
        let run = || {
            let mut tl = FluidTimeline::new(&n);
            tl.start_flows(&[Flow::new(SocId(0), SocId(7), 40.0 * MB)], 0.009);
            tl.start_span(0.3);
            tl.start_flows(
                &[
                    Flow::new(SocId(2), SocId(9), 80.0 * MB),
                    Flow::new(SocId(4), SocId(11), 60.0 * MB),
                ],
                0.021,
            );
            let done = drain(&mut tl);
            (done, tl.class_utilization(1.0))
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid span duration")]
    fn rejects_negative_span() {
        let n = net();
        FluidTimeline::new(&n).start_span(-1.0);
    }

    #[test]
    fn scratch_is_reused_across_runs_without_changing_results() {
        let n = net();
        let run = || {
            let mut tl = FluidTimeline::new(&n);
            tl.start_flows(
                &[
                    Flow::new(SocId(0), SocId(7), 40.0 * MB),
                    Flow::new(SocId(2), SocId(9), 80.0 * MB),
                ],
                0.009,
            );
            tl.start_span(0.3);
            drain(&mut tl)
        };
        let cold = run(); // parks a scratch on drop
        reset_scratch_stats();
        let warm = run();
        let stats = scratch_stats();
        assert_eq!(stats.acquires, 1);
        assert_eq!(stats.misses, 0, "warm run must reuse the parked scratch");
        assert_eq!(cold, warm, "reuse must not change results");
    }

    /// The step logic before the rate memo and flow freeing, kept as the
    /// reference: max-min is re-solved on every step and flow state lives
    /// until the run ends.
    struct Reference<'n> {
        net: &'n ClusterNet,
        now: Seconds,
        tasks: Vec<Work>,
        live: Vec<usize>,
        carried: Vec<f64>,
    }

    impl<'n> Reference<'n> {
        fn new(net: &'n ClusterNet) -> Self {
            Reference {
                net,
                now: 0.0,
                tasks: Vec::new(),
                live: Vec::new(),
                carried: vec![0.0; net.num_links()],
            }
        }

        fn push(&mut self, work: Work) {
            self.live.push(self.tasks.len());
            self.tasks.push(work);
        }

        fn advance(&mut self) -> Option<Completion> {
            loop {
                if let Some(pos) = self.live.iter().position(|&i| self.tasks[i].is_complete()) {
                    let i = self.live.remove(pos);
                    return Some(Completion {
                        id: TaskId(i),
                        at: self.now,
                    });
                }
                if !self.step() {
                    return None;
                }
            }
        }

        fn step(&mut self) -> bool {
            let mut paths = Vec::new();
            let mut locate = Vec::new();
            let mut dt = f64::INFINITY;
            for &ti in &self.live {
                match &self.tasks[ti] {
                    Work::Span { remaining } => dt = dt.min(*remaining),
                    Work::Batch {
                        latency_left,
                        flows,
                    } => {
                        if *latency_left > TIME_EPS {
                            dt = dt.min(*latency_left);
                        } else {
                            for (fi, f) in flows.iter().enumerate() {
                                if f.remaining > DRAIN_EPS {
                                    paths.push(f.path.clone());
                                    locate.push((ti, fi));
                                }
                            }
                        }
                    }
                }
            }
            let active: Vec<usize> = (0..paths.len()).collect();
            let rates = if active.is_empty() {
                Vec::new()
            } else {
                self.net.max_min_rates(&active, &paths)
            };
            for (&(ti, fi), &r) in locate.iter().zip(&rates) {
                if let Work::Batch { flows, .. } = &self.tasks[ti] {
                    dt = dt.min(flows[fi].remaining / r);
                }
            }
            if !dt.is_finite() {
                return false;
            }
            self.now += dt;
            for &ti in &self.live {
                match &mut self.tasks[ti] {
                    Work::Span { remaining } => *remaining -= dt,
                    Work::Batch { latency_left, .. } => {
                        if *latency_left > TIME_EPS {
                            *latency_left -= dt;
                        }
                    }
                }
            }
            for (&(ti, fi), &r) in locate.iter().zip(&rates) {
                if let Work::Batch { flows, .. } = &mut self.tasks[ti] {
                    let moved = r * dt;
                    flows[fi].remaining -= moved;
                    for &l in &flows[fi].path {
                        self.carried[l] += moved;
                    }
                }
            }
            true
        }
    }

    /// One scripted admission.
    #[derive(Clone)]
    enum Task {
        Span(Seconds),
        Batch(Vec<Flow>, Seconds),
    }

    /// The two simulators under one driver.
    trait Sim {
        fn admit(&mut self, task: &Task);
        fn next(&mut self) -> Option<Completion>;
        fn carried(&self) -> Vec<f64>;
    }

    impl Sim for FluidTimeline<'_> {
        fn admit(&mut self, task: &Task) {
            match task {
                Task::Span(d) => self.start_span(*d),
                Task::Batch(flows, latency) => self.start_flows(flows, *latency),
            };
        }
        fn next(&mut self) -> Option<Completion> {
            self.advance()
        }
        fn carried(&self) -> Vec<f64> {
            self.scratch.carried.clone()
        }
    }

    impl Sim for Reference<'_> {
        fn admit(&mut self, task: &Task) {
            match task {
                Task::Span(d) => self.push(Work::Span { remaining: *d }),
                Task::Batch(flows, latency) => {
                    let flows = flows
                        .iter()
                        .filter(|f| f.bytes > 0.0 && f.src != f.dst)
                        .map(|f| FlowState {
                            path: self.net.path(f),
                            remaining: f.bytes,
                        })
                        .collect();
                    self.push(Work::Batch {
                        latency_left: *latency,
                        flows,
                    });
                }
            }
        }
        fn next(&mut self) -> Option<Completion> {
            self.advance()
        }
        fn carried(&self) -> Vec<f64> {
            self.carried.clone()
        }
    }

    /// A ring-style collective step: each member sends to the next.
    fn ring(socs: usize, start: usize, len: usize, stride: usize, bytes: f64) -> Vec<Flow> {
        let member = |k: usize| SocId((start + k * stride) % socs);
        (0..len)
            .map(|k| Flow::new(member(k), member((k + 1) % len), bytes))
            .collect()
    }

    /// Decodes one drawn word into the admissions made after a
    /// completion: a span, a ring batch, a repeat of the previous batch,
    /// or a batch plus a span.
    fn decode(word: u64, socs: usize, last: &mut Option<Task>) -> Vec<Task> {
        let span = Task::Span(((word >> 2) % 400) as f64 * 1e-3);
        let batch = Task::Batch(
            ring(
                socs,
                (word >> 11) as usize % socs,
                2 + (word >> 19) as usize % 7,
                1 + (word >> 27) as usize % 6,
                1e4 * (1 + (word >> 33) % 2000) as f64,
            ),
            if (word >> 45) & 1 == 0 { 0.0 } else { 0.009 },
        );
        match word % 4 {
            0 => vec![span],
            1 => {
                *last = Some(batch.clone());
                vec![batch]
            }
            2 => vec![last.clone().unwrap_or(span)],
            _ => {
                *last = Some(batch.clone());
                vec![batch, span]
            }
        }
    }

    /// Replays a script event-reactively: the first admissions at clock
    /// zero, one more set after each completion.
    fn replay(sim: &mut dyn Sim, script: &[Vec<Task>]) -> Vec<(TaskId, u64)> {
        let mut admissions = script.iter();
        for t in admissions.next().into_iter().flatten() {
            sim.admit(t);
        }
        let mut out = Vec::new();
        loop {
            let c = sim.next();
            if let Some(c) = c {
                out.push((c.id, c.at.to_bits()));
            }
            match admissions.next() {
                Some(tasks) => tasks.iter().for_each(|t| sim.admit(t)),
                None if c.is_none() => return out,
                None => {}
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Memoized rates and freed flow state change nothing: every
        /// completion and every link's carried bytes match the
        /// solve-every-step reference bit for bit.
        #[test]
        fn memoized_steps_match_the_solve_every_step_reference(
            boards in 1usize..13,
            loaded in 0u8..2,
            words in proptest::collection::vec(0u64..u64::MAX, 1..48),
        ) {
            let mut spec = ClusterSpec::paper_server();
            spec.boards = boards;
            let n = ClusterNet::new(spec).with_background_load(if loaded == 1 { 0.3 } else { 0.0 });
            let socs = spec.total_socs();
            let mut last = None;
            let script: Vec<Vec<Task>> =
                words.iter().map(|&w| decode(w, socs, &mut last)).collect();
            let mut reference = Reference::new(&n);
            let expected = replay(&mut reference, &script);
            let mut tl = FluidTimeline::new(&n);
            let got = replay(&mut tl, &script);
            proptest::prop_assert_eq!(got, expected);
            let bits = |c: Vec<f64>| c.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(tl.carried()), bits(reference.carried()));
        }
    }

    #[test]
    fn repeated_ring_steps_solve_max_min_once() {
        // one SoC per board: every flow crosses the board NICs and gets
        // the same share, so each step has exactly one active flow set
        let n = net();
        let members: Vec<usize> = (0..12).map(|b| 5 * b).collect();
        let flows: Vec<Flow> = (0..12)
            .map(|k| Flow::new(SocId(members[k]), SocId(members[(k + 1) % 12]), 2.0 * MB))
            .collect();
        let mut tl = FluidTimeline::new(&n);
        reset_scratch_stats();
        for _ in 0..200 {
            tl.start_flows(&flows, 0.009);
            tl.advance().unwrap();
        }
        assert!(tl.advance().is_none());
        let stats = scratch_stats();
        assert_eq!(stats.rate_solves, 1, "{stats:?}");
        assert_eq!(stats.rate_hits, 199, "{stats:?}");
    }

    #[test]
    fn rate_memo_does_not_leak_across_networks() {
        // same flow set, halved capacity: the parked scratch must not
        // hand the unloaded network's rates to the loaded one
        let idle = net();
        let loaded = net().with_background_load(0.5);
        let run = |n: &ClusterNet| {
            let mut tl = FluidTimeline::new(n);
            tl.start_flows(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)], 0.0);
            tl.advance().unwrap().at
        };
        let fast = run(&idle);
        let slow = run(&loaded);
        assert!((fast - 1.0).abs() < 1e-9, "{fast}");
        assert!((slow - 2.0).abs() < 1e-9, "{slow}");
    }
}
