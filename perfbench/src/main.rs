//! One repetition of a benchmark workload, timed from outside the library
//! through the workspace crates' public APIs.
//!
//! ```text
//! socflow-perfbench <workload> --seed <n> --threads <t> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Prints one JSON object on stdout: the environment, the repetition's
//! host-clock numbers (`host`), the outputs that must repeat bit for bit
//! for a seed (`exact`), its operation and failure counts and, with
//! `--trace 1`, the per-layer counters (`layer`) and the recorded spans.
//! `run.py` drives the repetitions, checks the results and prints the
//! benchmark's verdict. Each repetition is its own process, so the
//! process-wide plan memo starts cold, as it does for a CLI invocation.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow::autotune::price_plan_uncached;
use socflow::checkpoint::{Checkpoint, CheckpointPolicy};
use socflow::fleet::{standard_job_mix, FleetPolicy, FleetSim, FleetSpec};
use socflow::prelude::*;
use socflow_cluster::timeline::scratch_stats;
use socflow_nn::loss::softmax_cross_entropy;
use socflow_nn::{Mode, Precision};
use socflow_telemetry::{Event, EventSink};
use socflow_tensor::{profile, runtime};

/// Absolute accuracy target of both training workloads: 8.5× the
/// 10-class chance level. Never lowered to make a run pass.
const TARGET_ACCURACY: f32 = 0.85;
/// Training samples of the synthetic CIFAR-10 workload.
const TRAIN_SAMPLES: usize = 2048;
/// Epochs of each training run.
const EPOCHS: usize = 10;
/// Channel-width scaling of the trained VGG-11 (the CLI's default).
const VGG_WIDTH: f32 = 0.22;
/// Timed `forward` + `backward` samples per precision in a traced run:
/// the p95 then has ten samples beyond it.
const NN_STEP_SAMPLES: usize = 200;

/// `plan_fleet`: the tune passes (model, SoCs, pinned default groups, width).
/// 60 SoCs is the paper's server; the 20-SoC slice maps 7 groups onto a
/// multi-CG topology.
const TUNE_PASSES: [(ModelKind, usize, usize, f32); 4] = [
    (ModelKind::Vgg11, 60, 8, 0.22),
    (ModelKind::ResNet18, 60, 8, 0.18),
    (ModelKind::MobileNetV1, 60, 8, 0.22),
    (ModelKind::Vgg11, 20, 7, 0.22),
];
/// `plan_fleet`: the multi-server tidal fleet.
const FLEET_SERVERS: usize = 16;
const FLEET_SOCS_PER_SERVER: usize = 60;
const FLEET_JOBS: usize = 240;
const FLEET_HORIZON_HOURS: usize = 168;
const FLEET_INTERARRIVAL_S: f64 = 1800.0;

// ---------------------------------------------------------------------
// JSON output

enum J {
    N(f64),
    S(String),
    B(bool),
    A(Vec<J>),
    O(Vec<(String, J)>),
}

impl J {
    fn write(&self, out: &mut String) {
        match self {
            // Display prints the shortest digits that round-trip, so the
            // reader gets the exact bits back
            J::N(v) if v.is_finite() => out.push_str(&format!("{v}")),
            J::N(_) => out.push_str("null"),
            J::S(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::B(b) => out.push_str(if *b { "true" } else { "false" }),
            J::A(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::O(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::S(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// An ordered map of named numbers.
#[derive(Default)]
struct Nums(Vec<(String, f64)>);

impl Nums {
    fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn json(self) -> J {
        J::O(self.0.into_iter().map(|(k, v)| (k, J::N(v))).collect())
    }
}

// ---------------------------------------------------------------------
// Spans and the timestamping sink

struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Records spans around the benchmark's calls into each layer, in memory;
/// they are written out with the result. Off in untraced runs.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Records a finished span under the innermost open one.
    fn record(&self, name: &str, start: f64, end: f64) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        spans.len() - 1
    }

    /// Opens a span; children recorded before [`Tracer::close`] nest in it.
    fn open(&self, name: &str) -> Option<usize> {
        self.on.then(|| {
            let id = self.record(name, self.now(), f64::NAN);
            self.open.borrow_mut().push(id);
            id
        })
    }

    fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            self.open.borrow_mut().pop();
            self.spans.borrow_mut()[id].end = self.now();
        }
    }

    fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span whose children are recorded after the fact.
    fn with_children(&self, name: &str, start: f64, end: f64, children: &[(&str, f64, f64)]) {
        if !self.on {
            return;
        }
        let id = self.record(name, start, end);
        self.open.borrow_mut().push(id);
        for &(child, s, e) in children {
            self.record(child, s, e);
        }
        self.open.borrow_mut().pop();
    }

    fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    fn json(&self) -> J {
        J::A(
            self.spans
                .borrow()
                .iter()
                .map(|s| {
                    J::O(vec![
                        ("name".into(), J::S(s.name.clone())),
                        (
                            "parent".into(),
                            s.parent.map_or(J::N(f64::NAN), |p| J::N(p as f64)),
                        ),
                        ("start".into(), J::N(s.start)),
                        ("end".into(), J::N(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

#[derive(Default)]
struct SinkTally {
    epoch_stamps: Vec<f64>,
    transfers: u64,
    transfer_bytes: f64,
    peak_link_util: f64,
    ckpt_persisted: u64,
    ckpt_bytes: u64,
    probes: usize,
}

/// The benchmark's telemetry sink: counts every event and stamps
/// `EpochCompleted` with the host clock.
struct StampSink {
    t0: Instant,
    events: AtomicU64,
    tally: Mutex<SinkTally>,
}

impl EventSink for StampSink {
    fn emit(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let now = self.t0.elapsed().as_secs_f64();
        let mut t = self.tally.lock().expect("sink tally poisoned by a panic");
        match event {
            Event::EpochCompleted { .. } => t.epoch_stamps.push(now),
            Event::Transfer {
                total_bytes,
                link_utilization,
                ..
            } => {
                t.transfers += 1;
                t.transfer_bytes += total_bytes;
                t.peak_link_util = t.peak_link_util.max(*link_utilization);
            }
            Event::CheckpointPersisted { bytes, .. } => {
                t.ckpt_persisted += 1;
                t.ckpt_bytes += bytes;
            }
            Event::PlanComputed { probes, .. } => t.probes = *probes,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Layer counters

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Kernel-profiler and worker-pool totals at one instant.
struct Counters {
    kernels: Vec<profile::KernelTotal>,
    pool: runtime::PoolStats,
}

impl Counters {
    fn now() -> Self {
        Counters {
            kernels: profile::snapshot(),
            pool: runtime::stats(),
        }
    }

    fn kernel_seconds_since(&self, base: &Counters) -> f64 {
        self.kernels
            .iter()
            .zip(&base.kernels)
            .map(|(n, b)| n.nanos.saturating_sub(b.nanos) as f64 / 1e9)
            .sum()
    }

    /// `tensor.*` and `runtime.*` deltas since `base`.
    fn report_since(&self, base: &Counters, layer: &mut Nums) {
        for (n, b) in self.kernels.iter().zip(&base.kernels) {
            layer.set(
                &format!("tensor.{}.calls", n.op),
                n.calls.saturating_sub(b.calls) as f64,
            );
            layer.set(
                &format!("tensor.{}.s", n.op),
                n.nanos.saturating_sub(b.nanos) as f64 / 1e9,
            );
        }
        let (p, q) = (&self.pool, &base.pool);
        layer.set("runtime.jobs", p.jobs.saturating_sub(q.jobs) as f64);
        layer.set("runtime.chunks", p.chunks.saturating_sub(q.chunks) as f64);
        let busy = p.busy_nanos.saturating_sub(q.busy_nanos) as f64;
        let wall = p.wall_nanos.saturating_sub(q.wall_nanos) as f64 * p.threads as f64;
        layer.set(
            "runtime.busy_share",
            if wall > 0.0 { busy / wall } else { 0.0 },
        );
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Workloads

/// What one repetition produced.
#[derive(Default)]
struct Outcome {
    host: Nums,
    exact: Nums,
    layer: Nums,
    /// Operations attempted: training runs, tune passes, fleet jobs.
    attempted: u64,
    /// Operations that missed their goal, with the reasons in `failures`.
    failed: u64,
    failures: Vec<String>,
    /// Wrong outputs: any entry makes the repetition incorrect.
    errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations;
        self.failures.push(why);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Training {
    MixedVgg11,
    Fp32Groups8,
}

fn training_spec(kind: Training, seed: u64) -> TrainJobSpec {
    let (method, socs) = match kind {
        // full SoCFlow: heuristic group count, FP32 CPU + INT8 NPU arms
        Training::MixedVgg11 => (MethodSpec::SocFlow(SocFlowConfig::full()), 16),
        // the paper's default topology, FP32 only: no probes, no INT8
        Training::Fp32Groups8 => (
            MethodSpec::SocFlow(SocFlowConfig {
                groups: Some(8),
                mixed_precision: false,
                ..SocFlowConfig::full()
            }),
            32,
        ),
    };
    let mut spec = TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, method);
    spec.socs = socs;
    spec.epochs = EPOCHS;
    spec.seed = seed;
    spec.lr = 0.05;
    spec
}

fn training(
    kind: Training,
    seed: u64,
    tracer: &Tracer,
    sink: Option<Arc<StampSink>>,
    work_dir: &Path,
) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let spec = training_spec(kind, seed);
    let ckpt_dir = work_dir.join(format!("ckpt-{}", std::process::id()));
    let c0 = Counters::now();
    let scratch0 = scratch_stats();
    let root = tracer.open("workload");

    // set-up: data generation, then planning (the group probes run here)
    let workload = tracer.span("data.generate", || {
        Workload::standard(&spec, TRAIN_SAMPLES, 8, VGG_WIDTH)
    });
    let mut sched = GlobalScheduler::new(spec, workload.clone());
    if let Some(s) = &sink {
        sched = sched.with_sink(s.clone());
    }
    let resolved = tracer.span("scheduler.plan", || sched.resolved_spec());
    let setup_s = tracer.now();

    let mut engine = Engine::new(resolved, workload.clone());
    if kind == Training::Fp32Groups8 {
        let policy = CheckpointPolicy {
            every_epochs: Some(1),
            on_reclaim: true,
        };
        engine = engine
            .with_timeline(true)
            .with_overlap(true)
            .with_checkpointing(ckpt_dir.clone(), policy);
    }
    if let Some(s) = &sink {
        engine = engine.with_sink(s.clone());
    }
    let c1 = Counters::now();
    let run_start = tracer.now();
    let result = engine.run();
    let run_end = tracer.now();
    let c2 = Counters::now();
    // per-epoch spans from the sink's host stamps
    let epoch_s: Vec<f64> = match &sink {
        Some(s) => {
            let stamps = &s.tally.lock().expect("sink tally poisoned").epoch_stamps;
            let epochs: Vec<(&str, f64, f64)> = stamps
                .iter()
                .scan(run_start, |prev, &t| {
                    Some(("engine.epoch", std::mem::replace(prev, t), t))
                })
                .collect();
            tracer.with_children("engine.run", run_start, run_end, &epochs);
            epochs.iter().map(|&(_, s, e)| e - s).collect()
        }
        None => Vec::new(),
    };
    let tta = result.time_to_accuracy(TARGET_ACCURACY);
    let energy = result.energy_to_accuracy(TARGET_ACCURACY);
    let engine_s = run_end - run_start;
    let wall_s = tracer.now();
    tracer.close(root);

    if tta.is_none() {
        out.fail(
            1,
            format!(
                "missed the {TARGET_ACCURACY} accuracy target (best {:.4})",
                result.best_accuracy()
            ),
        );
    }
    out.host.set("setup_s", setup_s);
    out.host.set("wall_s", wall_s);
    out.host.set(
        "train_samples_per_s",
        (EPOCHS * workload.train.len()) as f64 / engine_s,
    );
    out.host.set("peak_rss_mb", peak_rss_mb());

    let groups = match resolved.method {
        MethodSpec::SocFlow(c) => c.groups.unwrap_or(0),
        _ => 0,
    };
    let epochs = result.epoch_time.len().max(1) as f64;
    out.exact
        .set("best_accuracy", result.best_accuracy() as f64);
    out.exact.set("sim_tta_s", tta.unwrap_or(f64::NAN));
    out.exact.set(
        "sim_epoch_s",
        result.epoch_time.iter().sum::<f64>() / epochs,
    );
    out.exact
        .set("sim_energy_kj", energy.map_or(f64::NAN, |j| j / 1e3));
    out.exact.set("groups", groups as f64);

    if let Some(sink) = &sink {
        let scratch2 = scratch_stats();
        let tally = sink.tally.lock().expect("sink tally poisoned");
        let l = &mut out.layer;
        l.set("data.generate_s", tracer.total("data.generate"));
        l.set("scheduler.plan_s", tracer.total("scheduler.plan"));
        l.set("scheduler.probes", tally.probes as f64);
        l.set("scheduler.groups", groups as f64);
        l.set("engine.run_s", engine_s);
        l.set("engine.epoch_s.p50", quantile(&epoch_s, 0.5));
        l.set("engine.epoch_s.max", quantile(&epoch_s, 1.0));
        l.set(
            "engine.kernel_share",
            c2.kernel_seconds_since(&c1) / (engine_s * runtime::threads() as f64),
        );
        c2.report_since(&c0, l);
        let b = result.breakdown;
        let total = b.total().max(f64::MIN_POSITIVE);
        l.set("cluster.compute_share", b.compute / total);
        l.set("cluster.sync_share", b.sync / total);
        l.set("cluster.update_share", b.update / total);
        l.set("cluster.transfers", tally.transfers as f64);
        l.set("cluster.bytes_mb", tally.transfer_bytes / 1e6);
        l.set("cluster.peak_link_util", tally.peak_link_util);
        l.set(
            "cluster.scratch_acquires",
            (scratch2.acquires - scratch0.acquires) as f64,
        );
        l.set(
            "cluster.scratch_misses",
            (scratch2.misses - scratch0.misses) as f64,
        );
        l.set("checkpoint.persisted", tally.ckpt_persisted as f64);
        l.set("checkpoint.bytes_mb", tally.ckpt_bytes as f64 / 1e6);
        l.set(
            "telemetry.events",
            sink.events.load(Ordering::Relaxed) as f64,
        );
        drop(tally);

        // layer probes outside the workload: single nn steps, checkpoint I/O
        let extra = tracer.open("extra");
        nn_steps(kind, &resolved, &workload, tracer, &mut out.layer);
        if kind == Training::Fp32Groups8 {
            checkpoint_io(&ckpt_dir, work_dir, tracer, &mut out);
        }
        tracer.close(extra);
    }
    if kind == Training::Fp32Groups8 {
        if let Err(e) = std::fs::remove_dir_all(&ckpt_dir) {
            out.errors
                .push(format!("cannot remove {}: {e}", ckpt_dir.display()));
        }
    }
    out
}

/// Times single `forward` + `backward` steps on the workload's per-SoC
/// batch: FP32 always, INT8 where the workload runs the INT8 arm.
fn nn_steps(
    kind: Training,
    resolved: &TrainJobSpec,
    workload: &Workload,
    tracer: &Tracer,
    l: &mut Nums,
) {
    let batch_size = GlobalScheduler::new(*resolved, workload.clone()).per_soc_batch();
    let batch = workload.train.head_batch(batch_size);
    let mut net = resolved.model.build(
        workload.model_cfg,
        &mut StdRng::seed_from_u64(resolved.seed),
    );
    let arms = [
        ("fp32", Precision::Fp32, true),
        ("int8", Precision::Int8, kind == Training::MixedVgg11),
    ];
    for (name, precision, runs) in arms {
        let (p50, p95) = (
            format!("nn.{name}_step_ms.p50"),
            format!("nn.{name}_step_ms.p95"),
        );
        if !runs {
            l.set(&p50, 0.0);
            l.set(&p95, 0.0);
            continue;
        }
        let mode = Mode::train(precision);
        let mut step = || {
            let logits = net.forward(&batch.images, mode);
            let (_, grad) = softmax_cross_entropy(&logits, &batch.labels);
            net.backward(&grad, mode);
            net.zero_grad();
        };
        // warm the allocator and caches before timing
        for _ in 0..3 {
            step();
        }
        let span = format!("nn.{name}_step");
        let start = tracer.now();
        let mut stamps = Vec::with_capacity(NN_STEP_SAMPLES);
        for _ in 0..NN_STEP_SAMPLES {
            let s = tracer.now();
            step();
            stamps.push((span.as_str(), s, tracer.now()));
        }
        tracer.with_children(&format!("{span}s"), start, tracer.now(), &stamps);
        let ms: Vec<f64> = stamps.iter().map(|&(_, s, e)| (e - s) * 1e3).collect();
        l.set(&p50, quantile(&ms, 0.5));
        l.set(&p95, quantile(&ms, 0.95));
    }
}

/// Times the read of the run's final checkpoint and a write of it beside,
/// then checks the copy reads back equal.
fn checkpoint_io(ckpt_dir: &Path, work_dir: &Path, tracer: &Tracer, out: &mut Outcome) {
    let copy_dir = work_dir.join(format!("ckpt-copy-{}", std::process::id()));
    let ckpt = match tracer.span("checkpoint.load", || Checkpoint::load(ckpt_dir)) {
        Ok(c) => c,
        Err(e) => return out.errors.push(e),
    };
    let saved = tracer.span("checkpoint.save", || ckpt.save(&copy_dir));
    match saved.and_then(|_| Checkpoint::load(&copy_dir)) {
        Ok(back) if back == ckpt => {}
        Ok(_) => out
            .errors
            .push("checkpoint changed across save + load".into()),
        Err(e) => out.errors.push(e),
    }
    if let Err(e) = std::fs::remove_dir_all(&copy_dir) {
        out.errors
            .push(format!("cannot remove {}: {e}", copy_dir.display()));
    }
    out.layer
        .set("checkpoint.save_s", tracer.total("checkpoint.save"));
    out.layer
        .set("checkpoint.load_s", tracer.total("checkpoint.load"));
}

fn plan_fleet(seed: u64, tracer: &Tracer, sink: Option<Arc<StampSink>>) -> Outcome {
    let mut out = Outcome::default();
    let c0 = Counters::now();
    let scratch0 = scratch_stats();
    let root = tracer.open("workload");

    // set-up: each pass's job spec, scaled workload and gradient layout,
    // then the fleet's job mix
    let setup = tracer.open("setup.models");
    let passes: Vec<(TrainJobSpec, Workload, Vec<socflow_nn::GradReady>)> = TUNE_PASSES
        .iter()
        .map(|&(model, socs, groups, width)| {
            let mut spec = TrainJobSpec::new(
                model,
                DatasetPreset::Cifar10,
                MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
            );
            spec.socs = socs;
            spec.seed = seed;
            spec.lr = 0.05;
            // tuning reads only the model geometry, so a small sample
            // count suffices
            let workload = tracer.span("data.generate", || Workload::standard(&spec, 64, 8, width));
            let layout = spec
                .model
                .build(workload.model_cfg, &mut StdRng::seed_from_u64(seed))
                .grad_layout();
            (spec, workload, layout)
        })
        .collect();
    tracer.close(setup);
    let jobs = tracer.span("setup.jobs", || {
        standard_job_mix(FLEET_JOBS, FLEET_INTERARRIVAL_S, seed)
    });
    let setup_s = tracer.now();

    let mut reports = Vec::new();
    let mut tune_s = 0.0;
    for (spec, workload, _) in &passes {
        out.attempted += 1;
        let mut sched = GlobalScheduler::new(*spec, workload.clone());
        if let Some(s) = &sink {
            sched = sched.with_sink(s.clone());
        }
        let t = Instant::now();
        let report = tracer.span("autotune.pass", || sched.tune());
        tune_s += t.elapsed().as_secs_f64();
        if report.best().predicted_s > report.default_plan.predicted_s {
            out.fail(
                1,
                format!(
                    "{} on {} SoCs: tuned plan slower than the default",
                    spec.model, spec.socs
                ),
            );
        }
        reports.push(report);
    }

    let fleet_spec = FleetSpec {
        servers: FLEET_SERVERS,
        socs_per_server: FLEET_SOCS_PER_SERVER,
        seed,
        horizon_hours: FLEET_HORIZON_HOURS,
        policy: FleetPolicy::Tidal,
    };
    let mut sim = FleetSim::new(fleet_spec, jobs);
    if let Some(s) = &sink {
        sim = sim.with_sink(s.clone());
    }
    let t = Instant::now();
    let fleet = tracer.span("fleet.run", || sim.run());
    let fleet_s = t.elapsed().as_secs_f64();
    let c2 = Counters::now();
    let wall_s = tracer.now();
    tracer.close(root);

    out.attempted += fleet.jobs.len() as u64;
    let unfinished = fleet
        .jobs
        .iter()
        .filter(|j| j.completed_s.is_none())
        .count();
    if unfinished > 0 {
        out.fail(
            unfinished as u64,
            format!(
                "{unfinished} of {} fleet jobs unfinished at the horizon",
                fleet.jobs.len()
            ),
        );
    }
    let evaluated: usize = reports.iter().map(|r| r.evaluated).sum();
    out.host.set("setup_s", setup_s);
    out.host.set("wall_s", wall_s);
    out.host.set("tune_plans_per_s", evaluated as f64 / tune_s);
    out.host.set(
        "fleet_sim_hours_per_s",
        (FLEET_SERVERS * FLEET_HORIZON_HOURS) as f64 / fleet_s,
    );
    out.host.set("peak_rss_mb", peak_rss_mb());

    out.exact.set(
        "tuned_epoch_s",
        reports.iter().map(|r| r.best().predicted_s).sum(),
    );
    out.exact.set("fleet_mean_jct_s", fleet.mean_jct_s);
    out.exact.set("autotune.evaluated", evaluated as f64);
    out.exact
        .set("fleet.jobs_completed", fleet.completed as f64);
    out.exact.set("fleet.preemptions", fleet.preemptions as f64);
    out.exact.set("fleet.utilization", fleet.utilization);

    if let Some(sink) = &sink {
        let l = &mut out.layer;
        l.set("data.generate_s", tracer.total("data.generate"));
        c2.report_since(&c0, l);
        l.set("autotune.evaluated", evaluated as f64);
        l.set(
            "autotune.pruned",
            reports.iter().map(|r| r.pruned).sum::<usize>() as f64,
        );
        l.set(
            "autotune.skipped",
            reports.iter().map(|r| r.skipped).sum::<usize>() as f64,
        );
        l.set("autotune.pass_s", tune_s / reports.len() as f64);
        l.set("fleet.run_s", fleet_s);
        l.set("fleet.jobs_completed", fleet.completed as f64);
        l.set("fleet.preemptions", fleet.preemptions as f64);
        l.set("fleet.utilization", fleet.utilization);
        l.set(
            "telemetry.events",
            sink.events.load(Ordering::Relaxed) as f64,
        );

        // host cost of pricing each tuned candidate with the memo bypassed;
        // the uncached price must equal the memoized one bit for bit
        let extra = tracer.open("extra");
        let mut stamps = Vec::new();
        let start = tracer.now();
        for ((spec, _, layout), report) in passes.iter().zip(&reports) {
            for choice in &report.ranked {
                let s = tracer.now();
                let price = price_plan_uncached(spec, layout, &choice.candidate);
                stamps.push(("cluster.price_plan", s, tracer.now()));
                if price.to_bits() != choice.predicted_s.to_bits() {
                    out.errors.push(format!(
                        "{} on {} SoCs: uncached price {price} != memoized {}",
                        spec.model, spec.socs, choice.predicted_s
                    ));
                }
            }
        }
        tracer.with_children("cluster.price_all", start, tracer.now(), &stamps);
        tracer.close(extra);
        let scratch2 = scratch_stats();
        let price_ms: Vec<f64> = stamps.iter().map(|&(_, s, e)| (e - s) * 1e3).collect();
        let l = &mut out.layer;
        l.set("cluster.price_ms.p50", quantile(&price_ms, 0.5));
        l.set("cluster.price_ms.p95", quantile(&price_ms, 0.95));
        l.set(
            "cluster.scratch_acquires",
            (scratch2.acquires - scratch0.acquires) as f64,
        );
        l.set(
            "cluster.scratch_misses",
            (scratch2.misses - scratch0.misses) as f64,
        );
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    threads: usize,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload name")?;
    let mut args = Args {
        workload,
        seed: 42,
        threads: 2,
        trace: false,
        work_dir: PathBuf::from("."),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--threads" => args.threads = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? == 1,
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("socflow-perfbench: {e}");
            std::process::exit(2);
        }
    };
    runtime::set_threads(args.threads);
    if args.trace {
        profile::set_enabled(true);
    }
    let t0 = Instant::now();
    let tracer = Tracer::new(args.trace, t0);
    let sink = args.trace.then(|| {
        Arc::new(StampSink {
            t0,
            events: AtomicU64::new(0),
            tally: Mutex::new(SinkTally::default()),
        })
    });
    let out = match args.workload.as_str() {
        "mixed_vgg11" => Some(training(
            Training::MixedVgg11,
            args.seed,
            &tracer,
            sink.clone(),
            &args.work_dir,
        )),
        "fp32_groups8" => Some(training(
            Training::Fp32Groups8,
            args.seed,
            &tracer,
            sink.clone(),
            &args.work_dir,
        )),
        "plan_fleet" => Some(plan_fleet(args.seed, &tracer, sink.clone())),
        _ => None,
    };
    let Some(out) = out else {
        eprintln!("socflow-perfbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };

    let env = J::O(vec![
        (
            "nproc".into(),
            J::N(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("threads".into(), J::N(runtime::threads() as f64)),
        ("simd".into(), J::B(cfg!(feature = "simd"))),
        ("seed".into(), J::N(args.seed as f64)),
    ]);
    let doc = J::O(vec![
        ("workload".into(), J::S(args.workload.clone())),
        ("env".into(), env),
        ("attempted".into(), J::N(out.attempted as f64)),
        ("failed".into(), J::N(out.failed as f64)),
        (
            "failures".into(),
            J::A(out.failures.into_iter().map(J::S).collect()),
        ),
        (
            "errors".into(),
            J::A(out.errors.into_iter().map(J::S).collect()),
        ),
        ("host".into(), out.host.json()),
        ("exact".into(), out.exact.json()),
        ("layer".into(), out.layer.json()),
        ("spans".into(), tracer.json()),
    ]);
    let mut text = String::new();
    doc.write(&mut text);
    println!("{text}");
}
