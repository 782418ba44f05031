//! `socflow-cli bench` — reproducible benchmark baselines.
//!
//! `bench kernels` is the host micro-kernel suite; `bench faults` is the
//! fault-tolerance recovery experiment (simulated, machine-independent);
//! `bench timeline` compares the closed-form Eq. 1 epoch pricing against
//! the event-driven fluid timeline across logical-group counts (also
//! simulated and machine-independent). `bench e2e` wall-clocks one full
//! training run (train step + eval + aggregation) at worker-pool sizes
//! 1/2/4/all, verifying along the way that the accuracy trajectory is
//! bit-identical at every pool size. `bench fleet` replays the tidal-trace
//! multi-tenant scheduler comparison, `bench streaming` measures
//! time-to-accuracy under live per-SoC data streams (uniform vs
//! heterogeneous rates, rate-aware regrouping on vs off), and
//! `bench autotune` runs the plan-space search for the bundled model
//! families and reports tuned-vs-default predicted epoch seconds.
//!
//! Runs the tensor micro-kernels the training hot path lives in (tiled
//! GEMM variants, the i8 GEMM, transpose, the pooled conv2d
//! forward/backward, the fused fake-quantize pass and the f32 → i8
//! quantizer) on fixed shapes with deterministic inputs, and
//! reports minimum wall time per iteration plus achieved GFLOP/s. With
//! `--json <path>` the numbers are also written as a machine-readable
//! baseline file (`BENCH_kernels.json` in the repo root records one
//! reference machine); CI's bench-smoke job runs `--fast` to keep the
//! harness itself from rotting.
//!
//! Minimum-of-N timing is used instead of the mean: the minimum estimates
//! the noise-free cost of the kernel, which is the number optimization
//! work should be judged against.

use socflow_tensor::conv::{self, ConvParams, ConvScratch};
use socflow_tensor::quant::{self, QuantFormat, QuantParams};
use socflow_tensor::{linalg, Tensor};
use std::time::Instant;

/// One benchmark measurement.
struct Measurement {
    op: &'static str,
    shape: String,
    iters: u32,
    ns_per_iter: f64,
    /// Floating-point (or element, for data-movement ops) operations per
    /// iteration — the numerator of the GFLOP/s column.
    flops: f64,
}

impl Measurement {
    fn gflops(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            self.flops / self.ns_per_iter
        } else {
            0.0
        }
    }
}

/// Deterministic pseudo-random fill (splitmix-style), so every run of the
/// suite — on any machine — benches identical inputs.
fn fill(data: &mut [f32], mut seed: u64) {
    for v in data.iter_mut() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((seed >> 33) as u32 as f64 / u32::MAX as f64 - 0.5) as f32;
    }
}

fn tensor(shape: impl Into<socflow_tensor::Shape>, seed: u64) -> Tensor {
    let mut t = Tensor::zeros(shape);
    fill(t.data_mut(), seed);
    t
}

/// Minimum wall time of `iters` timed runs after `warmup` untimed ones.
fn time_min(iters: u32, warmup: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs the full suite. `fast` trims iteration counts to smoke-test level.
fn run_suite(fast: bool) -> Vec<Measurement> {
    let (iters, warmup) = if fast { (3, 1) } else { (20, 3) };
    let mut out = Vec::new();

    // --- GEMM family at the transformer/classifier-head scale -----------
    let (m, k, n) = (128, 128, 128);
    let a = tensor([m, k], 0x5eed_0001);
    let b = tensor([k, n], 0x5eed_0002);
    let mut c = Tensor::zeros([m, n]);
    let gemm_flops = 2.0 * (m * k * n) as f64;
    let ns = time_min(iters, warmup, || {
        linalg::matmul_slices(a.data(), b.data(), c.data_mut(), m, k, n);
    });
    out.push(Measurement {
        op: "matmul",
        shape: format!("{m}x{k}x{n}"),
        iters,
        ns_per_iter: ns,
        flops: gemm_flops,
    });

    let at = tensor([k, m], 0x5eed_0003); // Aᵀ stored (k, m)
    let ns = time_min(iters, warmup, || {
        linalg::matmul_at_b_slices(at.data(), b.data(), c.data_mut(), m, k, n);
    });
    out.push(Measurement {
        op: "matmul_at_b",
        shape: format!("{m}x{k}x{n}"),
        iters,
        ns_per_iter: ns,
        flops: gemm_flops,
    });

    let bt = tensor([n, k], 0x5eed_0004); // Bᵀ stored (n, k)
    let ns = time_min(iters, warmup, || {
        linalg::matmul_a_bt_slices(a.data(), bt.data(), c.data_mut(), m, k, n);
    });
    out.push(Measurement {
        op: "matmul_a_bt",
        shape: format!("{m}x{k}x{n}"),
        iters,
        ns_per_iter: ns,
        flops: gemm_flops,
    });

    // Awkward edge-tail shape: exercises the partial-tile paths.
    let (m2, k2, n2) = (96, 33, 65);
    let a2 = tensor([m2, k2], 0x5eed_0005);
    let b2 = tensor([k2, n2], 0x5eed_0006);
    let mut c2 = Tensor::zeros([m2, n2]);
    let ns = time_min(iters, warmup, || {
        linalg::matmul_slices(a2.data(), b2.data(), c2.data_mut(), m2, k2, n2);
    });
    out.push(Measurement {
        op: "matmul",
        shape: format!("{m2}x{k2}x{n2}"),
        iters,
        ns_per_iter: ns,
        flops: 2.0 * (m2 * k2 * n2) as f64,
    });

    // --- Integer GEMM (the INT8 replica arm's execution path) -----------
    // Same shapes as the f32 family; the 128³ pair is what the measured
    // β = t_f32 / (t_f32 + t_i8) is computed from.
    let (mut qa, mut qbt) = (Vec::new(), Vec::new());
    quant::quantize_into(&a, QuantParams::from_tensor(&a), &mut qa);
    quant::quantize_into(&bt, QuantParams::from_tensor(&bt), &mut qbt);
    let mut ci = vec![0i32; m * n];
    let ns = time_min(iters, warmup, || {
        linalg::matmul_i8_a_bt_slices(&qa, &qbt, &mut ci, m, k, n);
    });
    out.push(Measurement {
        op: "matmul_i8",
        shape: format!("{m}x{k}x{n}"),
        iters,
        ns_per_iter: ns,
        flops: gemm_flops,
    });

    let bt2 = tensor([n2, k2], 0x5eed_000c); // Bᵀ stored (n, k)
    let (mut qa2, mut qbt2) = (Vec::new(), Vec::new());
    quant::quantize_into(&a2, QuantParams::from_tensor(&a2), &mut qa2);
    quant::quantize_into(&bt2, QuantParams::from_tensor(&bt2), &mut qbt2);
    let mut ci2 = vec![0i32; m2 * n2];
    let ns = time_min(iters, warmup, || {
        linalg::matmul_i8_a_bt_slices(&qa2, &qbt2, &mut ci2, m2, k2, n2);
    });
    out.push(Measurement {
        op: "matmul_i8",
        shape: format!("{m2}x{k2}x{n2}"),
        iters,
        ns_per_iter: ns,
        flops: 2.0 * (m2 * k2 * n2) as f64,
    });

    // --- Transpose (data movement; "flops" = elements moved) ------------
    let (tm, tn) = (256, 256);
    let src = tensor([tm, tn], 0x5eed_0007);
    let mut dst = Tensor::zeros([tn, tm]);
    let ns = time_min(iters, warmup, || {
        linalg::transpose_slices(src.data(), dst.data_mut(), tm, tn);
    });
    out.push(Measurement {
        op: "transpose",
        shape: format!("{tm}x{tn}"),
        iters,
        ns_per_iter: ns,
        flops: (tm * tn) as f64,
    });

    // --- Conv2d through the pooled scratch path --------------------------
    let (cn, ic, hw, oc, kk) = (4, 16, 16, 32, 3);
    let p = ConvParams::new(1, 1);
    let x = tensor([cn, ic, hw, hw], 0x5eed_0008);
    let w = tensor([oc, ic, kk, kk], 0x5eed_0009);
    let mut scratch = ConvScratch::default();
    let mut y = Tensor::default();
    let oh = p.out_size(hw, kk);
    let conv_flops = 2.0 * (cn * oh * oh * oc * ic * kk * kk) as f64;
    let ns = time_min(iters, warmup, || {
        conv::conv2d_scratch(&x, &w, p, &mut scratch, &mut y);
    });
    out.push(Measurement {
        op: "conv2d",
        shape: format!("{cn}x{ic}x{hw}x{hw}->{oc}"),
        iters,
        ns_per_iter: ns,
        flops: conv_flops,
    });

    let gy = tensor(y.shape().clone(), 0x5eed_000a);
    let patches = scratch.patches.clone();
    let mut back = ConvScratch::default();
    let (mut gx, mut gw) = (Tensor::default(), Tensor::default());
    let ns = time_min(iters, warmup, || {
        conv::conv2d_backward_scratch(&gy, &patches, &w, x.shape(), p, &mut back, &mut gx, &mut gw);
    });
    out.push(Measurement {
        op: "conv2d_backward",
        shape: format!("{cn}x{ic}x{hw}x{hw}->{oc}"),
        iters,
        ns_per_iter: ns,
        flops: 2.0 * conv_flops, // two GEMMs of the forward's size
    });

    // --- Fused quantize→dequantize ---------------------------------------
    let q_in = tensor([256, 256], 0x5eed_000b);
    let mut q_out = Tensor::default();
    let ns = time_min(iters, warmup, || {
        QuantFormat::Int8.fake_quant_into(&q_in, &mut q_out);
    });
    out.push(Measurement {
        op: "fake_quant_int8",
        shape: "65536".into(),
        iters,
        ns_per_iter: ns,
        flops: (256 * 256) as f64,
    });

    // --- f32 → i8 quantization (the INT8 forward's operand staging) -----
    let q_params = QuantParams::from_tensor(&q_in);
    let mut q_i8 = Vec::new();
    let ns = time_min(iters, warmup, || {
        quant::quantize_into(&q_in, q_params, &mut q_i8);
    });
    out.push(Measurement {
        op: "quantize_i8",
        shape: "65536".into(),
        iters,
        ns_per_iter: ns,
        flops: (256 * 256) as f64,
    });

    out
}

/// The measured β compute-power ratio from the 128³ GEMM pair:
/// β = t_f32 / (t_f32 + t_i8), the host analogue of the paper's
/// CPU-vs-NPU split. Feed it back via `train --profiled-beta`.
fn measured_beta(results: &[Measurement]) -> Option<f64> {
    let row = |op: &str| {
        results
            .iter()
            .find(|r| r.op == op && r.shape == "128x128x128")
            .map(|r| r.ns_per_iter)
    };
    let (f32_ns, i8_ns) = (row("matmul")?, row("matmul_i8")?);
    let total = f32_ns + i8_ns;
    (total > 0.0).then(|| f32_ns / total)
}

fn to_json(results: &[Measurement], fast: bool) -> serde_json::Value {
    use serde_json::Value;
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("op".into(), Value::Str(r.op.into())),
                ("shape".into(), Value::Str(r.shape.clone())),
                ("iters".into(), Value::U64(u64::from(r.iters))),
                ("ns_per_iter".into(), Value::F64(r.ns_per_iter)),
                ("gflops".into(), Value::F64(r.gflops())),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "schema".into(),
            Value::Str("socflow-kernel-bench/v1".into()),
        ),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        // the f32 and i8 tiles that ran: timings depend on the CPU's
        // features, results do not
        ("isa".into(), Value::Str(linalg::kernel_isa())),
        (
            "profiled_beta".into(),
            Value::F64(measured_beta(results).unwrap_or(0.0)),
        ),
        ("results".into(), Value::Array(rows)),
    ])
}

/// One fault-bench scenario result.
struct FaultRun {
    scenario: &'static str,
    /// Mean reclaim / crash inter-arrivals as multiples of the fault-free
    /// run's simulated duration (0 = no faults of that kind).
    reclaim_x: f64,
    crash_x: f64,
    faults_injected: u64,
    best_accuracy: f64,
    sim_time_s: f64,
    recovery_s: f64,
    energy_kj: f64,
}

/// Runs the fault-tolerance recovery experiment: a fault-free baseline
/// establishes the simulated run length, then fault timelines of growing
/// intensity (inter-arrival means expressed relative to that length) are
/// injected into the otherwise-identical job. Everything is simulated and
/// seeded, so the numbers are machine-independent.
fn run_fault_suite(fast: bool) -> Vec<FaultRun> {
    use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
    use socflow::engine::Workload;
    use socflow::scheduler::GlobalScheduler;
    use socflow_cluster::faults::FaultPlan;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;
    use socflow_telemetry::{Event, MemorySink};
    use std::sync::Arc;

    let (socs, groups, epochs, samples) = if fast {
        (8, 2, 2, 256)
    } else {
        (16, 4, 4, 512)
    };
    let job = || {
        let mut spec = TrainJobSpec::new(
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
        );
        spec.socs = socs;
        spec.epochs = epochs;
        spec.global_batch = 64;
        spec
    };
    let spec = job();
    let baseline = GlobalScheduler::new(spec, Workload::standard(&spec, samples, 8, 0.5)).run();
    let horizon = baseline.total_time();

    let mut out = vec![FaultRun {
        scenario: "baseline",
        reclaim_x: 0.0,
        crash_x: 0.0,
        faults_injected: 0,
        best_accuracy: baseline.best_accuracy() as f64,
        sim_time_s: horizon,
        recovery_s: baseline.recovery_time,
        energy_kj: baseline.energy_joules / 1e3,
    }];
    // intensities: mean inter-arrivals as multiples of the run length —
    // "calm" loses a SoC or two, "storm" sheds most of the cluster
    let scenarios: [(&'static str, f64, f64); 3] =
        [("calm", 4.0, 8.0), ("busy", 1.0, 2.0), ("storm", 0.25, 0.5)];
    for (name, reclaim_x, crash_x) in scenarios {
        let spec = job();
        let plan = FaultPlan::sample(
            socs,
            horizon,
            horizon * reclaim_x,
            horizon * crash_x,
            spec.seed,
        );
        let sink = Arc::new(MemorySink::new());
        let r = GlobalScheduler::new(spec, Workload::standard(&spec, samples, 8, 0.5))
            .with_fault_plan(plan)
            .with_sink(sink.clone())
            .run();
        let injected = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::FaultInjected { .. }))
            .count() as u64;
        out.push(FaultRun {
            scenario: name,
            reclaim_x,
            crash_x,
            faults_injected: injected,
            best_accuracy: r.best_accuracy() as f64,
            sim_time_s: r.total_time(),
            recovery_s: r.recovery_time,
            energy_kj: r.energy_joules / 1e3,
        });
    }
    out
}

fn fault_suite_to_json(results: &[FaultRun], fast: bool) -> serde_json::Value {
    use serde_json::Value;
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("scenario".into(), Value::Str(r.scenario.into())),
                ("reclaim_x".into(), Value::F64(r.reclaim_x)),
                ("crash_x".into(), Value::F64(r.crash_x)),
                ("faults_injected".into(), Value::U64(r.faults_injected)),
                ("best_accuracy".into(), Value::F64(r.best_accuracy)),
                ("sim_time_s".into(), Value::F64(r.sim_time_s)),
                ("recovery_s".into(), Value::F64(r.recovery_s)),
                ("energy_kj".into(), Value::F64(r.energy_kj)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Str("socflow-fault-bench/v1".into())),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        ("results".into(), Value::Array(rows)),
    ])
}

/// One timeline-bench row: closed-form Eq. 1 pricing vs the event-driven
/// fluid timeline, with and without compute↔CG interleaving, at one
/// logical-group count.
struct TimelineRun {
    groups: usize,
    /// Logical groups whose SoCs span more than one board.
    split_lgs: usize,
    /// Communication groups after 2-coloring.
    cgs: usize,
    analytic_s: f64,
    /// Fluid timeline, CG syncs overlapping member compute (the paper's
    /// interleaved schedule).
    simulated_s: f64,
    /// Fluid timeline with the same CG slots but syncs strictly after
    /// compute — the no-interleaving comparator.
    no_overlap_s: f64,
    /// Fluid timeline with wait-free per-bucket gradient overlap at the
    /// default bucket size (buckets from all CGs contend concurrently).
    wait_free_s: f64,
}

impl TimelineRun {
    /// Simulated / analytic epoch time (1.0 = exact agreement).
    fn agreement(&self) -> f64 {
        if self.analytic_s > 0.0 {
            self.simulated_s / self.analytic_s
        } else {
            1.0
        }
    }

    /// No-overlap / interleaved epoch time (≥ 1.0 by construction).
    fn overlap_speedup(&self) -> f64 {
        if self.simulated_s > 0.0 {
            self.no_overlap_s / self.simulated_s
        } else {
            1.0
        }
    }

    /// No-overlap / wait-free epoch time (≥ `overlap_speedup` by
    /// construction: wait-free never loses to interleaving).
    fn wait_free_speedup(&self) -> f64 {
        if self.wait_free_s > 0.0 {
            self.no_overlap_s / self.wait_free_s
        } else {
            1.0
        }
    }
}

/// One bucket-size sweep row: the wait-free epoch time at one minimum
/// gradient-bucket size, on a fixed group count.
struct BucketSweepRun {
    bucket_kb: usize,
    /// Gradient buckets the VGG-11 layout coalesces into at this size.
    buckets: usize,
    wait_free_s: f64,
}

/// The reference gradient layout every timeline arm buckets: VGG-11 at
/// the standard 0.25 width used by the training workloads. The init seed
/// is irrelevant — only the per-layer parameter counts matter here.
fn vgg11_grad_layout() -> Vec<socflow_nn::GradReady> {
    use rand::{rngs::StdRng, SeedableRng};
    use socflow_nn::models::{ModelConfig, ModelKind};
    let mut rng = StdRng::seed_from_u64(0);
    ModelKind::Vgg11
        .build(ModelConfig::new(3, 32, 10, 0.25), &mut rng)
        .grad_layout()
}

/// Sweeps logical-group counts on one cluster and prices each epoch three
/// ways: the analytic Eq. 1 model, the fluid timeline with interleaving,
/// and the fluid timeline without it. Board-aligned counts (zero split
/// LGs) pin the simulator against the analytic model; counts with split
/// groups show what interleaving buys. Everything is simulated and
/// deterministic, so the numbers are machine-independent.
fn run_timeline_suite(fast: bool) -> Vec<TimelineRun> {
    use socflow::config::{MethodSpec, TrainJobSpec};
    use socflow::mapping::integrity_greedy;
    use socflow::planning::divide_communication_groups;
    use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
    use socflow::timemodel::TimeModel;
    use socflow::GroupId;
    use socflow_cluster::ClusterSpec;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    // the paper server is 60 SoCs; the fast smoke uses a 20-SoC slice
    let (socs, group_counts): (usize, &[usize]) = if fast {
        (20, &[2, 4, 7])
    } else {
        (60, &[1, 2, 4, 6, 8, 12, 20, 60])
    };
    let mut spec = TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, MethodSpec::Ring);
    spec.socs = socs;
    let mut tm = TimeModel::new(&spec);
    // the explicit-schedule arms ignore the overlap plan; only the
    // WaitFree arm reads it
    tm.set_overlap(socflow::timemodel::DEFAULT_BUCKET_KB, &vgg11_grad_layout());
    let cluster = ClusterSpec::for_socs(socs);
    group_counts
        .iter()
        .map(|&groups| {
            let mapping = integrity_greedy(&cluster, socs, groups);
            let split_lgs = (0..groups)
                .filter(|&g| mapping.is_split(GroupId(g)))
                .count();
            let cgs =
                divide_communication_groups(&mapping).expect("integrity-greedy mappings 2-color");
            let analytic = tm.socflow_epoch(&mapping, &cgs, true, 1.0);
            let interleaved = simulate_socflow_schedule(
                &tm,
                &mapping,
                &cgs,
                true,
                SyncSchedule::Interleaved,
                1.0,
            );
            let serial =
                simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::Serial, 1.0);
            let wait_free =
                simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
            TimelineRun {
                groups,
                split_lgs,
                cgs: cgs.len(),
                analytic_s: analytic.time,
                simulated_s: interleaved.cost.time,
                no_overlap_s: serial.cost.time,
                wait_free_s: wait_free.cost.time,
            }
        })
        .collect()
}

/// Sweeps the minimum bucket size on one fixed multi-CG group count and
/// prices each wait-free epoch: small buckets release transfers earliest
/// but fragment the payload into more per-bucket ring latencies, large
/// buckets degenerate toward the single-flush interleaved schedule.
fn run_bucket_sweep(fast: bool) -> (usize, Vec<BucketSweepRun>) {
    use socflow::config::{MethodSpec, TrainJobSpec};
    use socflow::mapping::integrity_greedy;
    use socflow::planning::divide_communication_groups;
    use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
    use socflow::timemodel::TimeModel;
    use socflow_cluster::ClusterSpec;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    // a group count whose mapping splits boards, so several CGs contend
    let (socs, groups) = if fast { (20, 7) } else { (60, 12) };
    // the autotuner's grid, so the sweep prices exactly the bucket sizes
    // the plan search considers
    let sizes_kb = socflow::autotune::BUCKET_GRID_KB;
    let mut spec = TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, MethodSpec::Ring);
    spec.socs = socs;
    let mut tm = TimeModel::new(&spec);
    let layout = vgg11_grad_layout();
    let cluster = ClusterSpec::for_socs(socs);
    let mapping = integrity_greedy(&cluster, socs, groups);
    let cgs = divide_communication_groups(&mapping).expect("integrity-greedy mappings 2-color");
    let runs = sizes_kb
        .iter()
        .map(|&bucket_kb| {
            tm.set_overlap(bucket_kb, &layout);
            let buckets = tm.overlap().map_or(1, |p| p.shares.len());
            let wait_free =
                simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
            BucketSweepRun {
                bucket_kb,
                buckets,
                wait_free_s: wait_free.cost.time,
            }
        })
        .collect();
    (groups, runs)
}

/// Scratch-pool traffic observed while re-pricing a warm epoch: the
/// allocation-churn witness for the `TimelineScratch` free-list.
struct ScratchWitness {
    acquires: u64,
    misses: u64,
}

/// Prices one wait-free epoch twice on this thread and counts scratch-pool
/// traffic on the second (warm) pass. Every `FluidTimeline` the warm pass
/// creates must be served from the thread's free-list — `misses == 0` is
/// the witness that repeated pricing no longer allocates fresh scratch
/// buffers (task arenas, flow paths, carried-bytes ledgers).
fn run_scratch_witness(fast: bool) -> ScratchWitness {
    use socflow::config::{MethodSpec, TrainJobSpec};
    use socflow::mapping::integrity_greedy;
    use socflow::planning::divide_communication_groups;
    use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
    use socflow::timemodel::TimeModel;
    use socflow_cluster::ClusterSpec;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    let (socs, groups) = if fast { (20, 7) } else { (60, 12) };
    let mut spec = TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, MethodSpec::Ring);
    spec.socs = socs;
    let mut tm = TimeModel::new(&spec);
    tm.set_overlap(socflow::timemodel::DEFAULT_BUCKET_KB, &vgg11_grad_layout());
    let cluster = ClusterSpec::for_socs(socs);
    let mapping = integrity_greedy(&cluster, socs, groups);
    let cgs = divide_communication_groups(&mapping).expect("integrity-greedy mappings 2-color");
    // cold pass parks a scratch in this thread's pool
    simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
    socflow_cluster::reset_scratch_stats();
    simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
    let stats = socflow_cluster::scratch_stats();
    ScratchWitness {
        acquires: stats.acquires,
        misses: stats.misses,
    }
}

fn timeline_suite_to_json(
    results: &[TimelineRun],
    sweep_groups: usize,
    sweep: &[BucketSweepRun],
    scratch: &ScratchWitness,
    fast: bool,
    socs: usize,
) -> serde_json::Value {
    use serde_json::Value;
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("groups".into(), Value::U64(r.groups as u64)),
                ("split_lgs".into(), Value::U64(r.split_lgs as u64)),
                ("cgs".into(), Value::U64(r.cgs as u64)),
                ("analytic_s".into(), Value::F64(r.analytic_s)),
                ("simulated_s".into(), Value::F64(r.simulated_s)),
                ("no_overlap_s".into(), Value::F64(r.no_overlap_s)),
                ("wait_free_s".into(), Value::F64(r.wait_free_s)),
                ("agreement".into(), Value::F64(r.agreement())),
                ("overlap_speedup".into(), Value::F64(r.overlap_speedup())),
                (
                    "wait_free_speedup".into(),
                    Value::F64(r.wait_free_speedup()),
                ),
            ])
        })
        .collect();
    let sweep_rows = sweep
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("bucket_kb".into(), Value::U64(r.bucket_kb as u64)),
                ("buckets".into(), Value::U64(r.buckets as u64)),
                ("wait_free_s".into(), Value::F64(r.wait_free_s)),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "schema".into(),
            Value::Str("socflow-timeline-bench/v3".into()),
        ),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        ("socs".into(), Value::U64(socs as u64)),
        ("results".into(), Value::Array(rows)),
        (
            "bucket_sweep".into(),
            Value::Object(vec![
                ("groups".into(), Value::U64(sweep_groups as u64)),
                ("results".into(), Value::Array(sweep_rows)),
            ]),
        ),
        (
            "scratch_reuse".into(),
            Value::Object(vec![
                ("acquires".into(), Value::U64(scratch.acquires)),
                ("misses".into(), Value::U64(scratch.misses)),
            ]),
        ),
    ])
}

/// One end-to-end row: the wall-clock of a full training run (forward /
/// backward steps, sharded evaluation, replica aggregation) at one
/// worker-pool size, plus a reference 128³ GEMM at the same pool size.
struct E2eRun {
    threads: usize,
    /// Wall-clock seconds of one `GlobalScheduler::run()` (1 epoch).
    run_s: f64,
    /// Min-of-N time of a 128×128×128 `matmul` at this pool size.
    gemm_ns: f64,
    /// Sum of the run's epoch accuracies — the determinism witness: the
    /// runtime partitions work by problem shape, never by thread count,
    /// so this must be bitwise-identical on every row.
    digest: f64,
}

/// Runs the end-to-end suite: the same 1-epoch SoCFlow job (train step +
/// eval + aggregation — everything inside `Engine::run`) timed at pool
/// sizes 1, 2, 4 and all hardware threads. Unlike the simulated suites,
/// these are host wall-clock numbers and machine-dependent; the committed
/// baseline records one reference machine.
fn run_e2e_suite(fast: bool) -> Vec<E2eRun> {
    use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
    use socflow::engine::Workload;
    use socflow::scheduler::GlobalScheduler;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;
    use socflow_tensor::runtime;

    let (socs, groups, samples) = if fast { (4, 2, 256) } else { (8, 2, 2048) };
    let (iters, warmup) = if fast { (3, 1) } else { (20, 3) };
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4, hw];
    counts.sort_unstable();
    counts.dedup();

    let (m, k, n) = (128, 128, 128);
    let a = tensor([m, k], 0x5eed_0101);
    let b = tensor([k, n], 0x5eed_0102);
    let mut c = Tensor::zeros([m, n]);

    let before = runtime::threads();
    let mut out = Vec::new();
    for &t in &counts {
        runtime::set_threads(t);
        let mut spec = TrainJobSpec::new(
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
        );
        spec.socs = socs;
        spec.epochs = 1;
        spec.global_batch = 64;
        // min-of-N over full runs: one epoch is tens of milliseconds on
        // the reference machine, too noisy for a single shot
        let reps = if fast { 1 } else { 3 };
        let mut run_s = f64::INFINITY;
        let mut digest = 0.0;
        for _ in 0..reps {
            let workload = Workload::standard(&spec, samples, 8, 0.5);
            let t0 = Instant::now();
            let r = GlobalScheduler::new(spec, workload).run();
            run_s = run_s.min(t0.elapsed().as_secs_f64());
            digest = r.epoch_accuracy.iter().map(|&x| f64::from(x)).sum();
        }
        let gemm_ns = time_min(iters, warmup, || {
            linalg::matmul_slices(a.data(), b.data(), c.data_mut(), m, k, n);
        });
        out.push(E2eRun {
            threads: t,
            run_s,
            gemm_ns,
            digest,
        });
    }
    runtime::set_threads(before);
    out
}

fn e2e_suite_to_json(results: &[E2eRun], fast: bool) -> serde_json::Value {
    use serde_json::Value;
    let base_run = results.first().map_or(0.0, |r| r.run_s);
    let base_gemm = results.first().map_or(0.0, |r| r.gemm_ns);
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("threads".into(), Value::U64(r.threads as u64)),
                ("run_s".into(), Value::F64(r.run_s)),
                (
                    "run_speedup_vs_1t".into(),
                    Value::F64(if r.run_s > 0.0 {
                        base_run / r.run_s
                    } else {
                        0.0
                    }),
                ),
                ("gemm_ns_per_iter".into(), Value::F64(r.gemm_ns)),
                (
                    "gemm_speedup_vs_1t".into(),
                    Value::F64(if r.gemm_ns > 0.0 {
                        base_gemm / r.gemm_ns
                    } else {
                        0.0
                    }),
                ),
                ("accuracy_digest".into(), Value::F64(r.digest)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Str("socflow-e2e-bench/v1".into())),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        (
            "host_threads".into(),
            Value::U64(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1) as u64,
            ),
        ),
        ("results".into(), Value::Array(rows)),
    ])
}

/// Fleet-bench configuration shared by both policies so the comparison
/// runs on the *same* traced arrival schedule.
fn fleet_bench_config(fast: bool) -> (socflow::fleet::FleetSpec, usize, f64, u64) {
    use socflow::fleet::{FleetPolicy, FleetSpec};
    // Both schedules are contended enough that admission policy matters: the
    // fast tier packs 8 overnight arrivals onto two servers, the full tier
    // stretches 14 arrivals across five diurnal cycles of a single server so
    // FIFO's eager daytime placements pay real preemption/requeue costs.
    let (servers, jobs, horizon, interarrival, seed, mix_seed) = if fast {
        (2, 8, 48, 3600.0, 42, 7)
    } else {
        (1, 14, 120, 7200.0, 23, 29)
    };
    let spec = FleetSpec {
        servers,
        socs_per_server: 60,
        seed,
        horizon_hours: horizon,
        policy: FleetPolicy::Tidal,
    };
    (spec, jobs, interarrival, mix_seed)
}

fn run_fleet_suite(fast: bool) -> Vec<socflow::fleet::FleetReport> {
    use socflow::fleet::{standard_job_mix, FleetPolicy, FleetSim};
    let (base, jobs, interarrival, mix_seed) = fleet_bench_config(fast);
    [FleetPolicy::Fifo, FleetPolicy::Tidal]
        .into_iter()
        .map(|policy| {
            let spec = socflow::fleet::FleetSpec { policy, ..base };
            FleetSim::new(spec, standard_job_mix(jobs, interarrival, mix_seed)).run()
        })
        .collect()
}

fn fleet_suite_to_json(results: &[socflow::fleet::FleetReport], fast: bool) -> serde_json::Value {
    use serde_json::Value;
    let (base, jobs, interarrival, mix_seed) = fleet_bench_config(fast);
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("policy".into(), Value::Str(r.policy.clone())),
                ("completed".into(), Value::U64(r.completed as u64)),
                ("preemptions".into(), Value::U64(r.preemptions as u64)),
                ("mean_jct_s".into(), Value::F64(r.mean_jct_s)),
                ("utilization".into(), Value::F64(r.utilization)),
                (
                    "idle_capacity_used".into(),
                    Value::F64(r.idle_capacity_used),
                ),
                (
                    "throughput_jobs_per_day".into(),
                    Value::F64(r.throughput_jobs_per_day),
                ),
            ])
        })
        .collect();
    let fifo = results.iter().find(|r| r.policy == "fifo");
    let tidal = results.iter().find(|r| r.policy == "tidal");
    let (jct_x, util_gain) = match (fifo, tidal) {
        (Some(f), Some(t)) if t.mean_jct_s > 0.0 => {
            (f.mean_jct_s / t.mean_jct_s, t.utilization - f.utilization)
        }
        _ => (0.0, 0.0),
    };
    Value::Object(vec![
        ("schema".into(), Value::Str("socflow-fleet-bench/v1".into())),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        ("servers".into(), Value::U64(base.servers as u64)),
        (
            "socs_per_server".into(),
            Value::U64(base.socs_per_server as u64),
        ),
        ("jobs".into(), Value::U64(jobs as u64)),
        (
            "horizon_hours".into(),
            Value::U64(base.horizon_hours as u64),
        ),
        ("interarrival_s".into(), Value::F64(interarrival)),
        ("seed".into(), Value::U64(base.seed)),
        ("mix_seed".into(), Value::U64(mix_seed)),
        ("jct_speedup_vs_fifo".into(), Value::F64(jct_x)),
        ("utilization_gain_vs_fifo".into(), Value::F64(util_gain)),
        ("results".into(), Value::Array(rows)),
    ])
}

fn bench_fleet(fast: bool, json_path: Option<String>) -> Result<(), String> {
    let results = run_fleet_suite(fast);
    println!(
        "{:<8} {:>9} {:>10} {:>12} {:>12} {:>10} {:>9}",
        "policy", "completed", "preempts", "mean JCT s", "util %", "idle %", "jobs/day"
    );
    for r in &results {
        println!(
            "{:<8} {:>9} {:>10} {:>12.0} {:>11.1}% {:>9.1}% {:>9.2}",
            r.policy,
            r.completed,
            r.preemptions,
            r.mean_jct_s,
            r.utilization * 100.0,
            r.idle_capacity_used * 100.0,
            r.throughput_jobs_per_day
        );
    }
    if let Some(path) = json_path {
        let doc = fleet_suite_to_json(&results, fast);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn bench_e2e(fast: bool, json_path: Option<String>) -> Result<(), String> {
    let results = run_e2e_suite(fast);
    let base_run = results.first().map_or(0.0, |r| r.run_s);
    let base_gemm = results.first().map_or(0.0, |r| r.gemm_ns);
    println!(
        "{:<8} {:>9} {:>8} {:>13} {:>13} {:>13}",
        "threads", "run s", "speedup", "gemm ns/iter", "gemm speedup", "acc digest"
    );
    for r in &results {
        println!(
            "{:<8} {:>9.2} {:>7.2}x {:>13.0} {:>12.2}x {:>13.6}",
            r.threads,
            r.run_s,
            if r.run_s > 0.0 {
                base_run / r.run_s
            } else {
                0.0
            },
            r.gemm_ns,
            if r.gemm_ns > 0.0 {
                base_gemm / r.gemm_ns
            } else {
                0.0
            },
            r.digest
        );
    }
    if let Some(path) = json_path {
        let doc = e2e_suite_to_json(&results, fast);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn bench_timeline(fast: bool, json_path: Option<String>) -> Result<(), String> {
    let socs = if fast { 20 } else { 60 };
    let results = run_timeline_suite(fast);
    let (sweep_groups, sweep) = run_bucket_sweep(fast);
    println!(
        "{:<7} {:>6} {:>4} {:>12} {:>12} {:>13} {:>11} {:>10} {:>8} {:>8}",
        "groups",
        "split",
        "cgs",
        "analytic s",
        "simulated s",
        "no-overlap s",
        "wait-free s",
        "agreement",
        "speedup",
        "wf spdup"
    );
    for r in &results {
        println!(
            "{:<7} {:>6} {:>4} {:>12.1} {:>12.1} {:>13.1} {:>11.1} {:>10.4} {:>8.3} {:>8.3}",
            r.groups,
            r.split_lgs,
            r.cgs,
            r.analytic_s,
            r.simulated_s,
            r.no_overlap_s,
            r.wait_free_s,
            r.agreement(),
            r.overlap_speedup(),
            r.wait_free_speedup()
        );
    }
    println!("\nbucket-size sweep ({sweep_groups} groups, wait-free)");
    println!(
        "{:<10} {:>8} {:>12}",
        "bucket KiB", "buckets", "wait-free s"
    );
    for r in &sweep {
        println!(
            "{:<10} {:>8} {:>12.1}",
            r.bucket_kb, r.buckets, r.wait_free_s
        );
    }
    let scratch = run_scratch_witness(fast);
    println!(
        "\nscratch reuse: {} acquires, {} pool misses on the warm pass",
        scratch.acquires, scratch.misses
    );
    if scratch.misses != 0 {
        return Err(format!(
            "warm re-pricing allocated {} fresh TimelineScratch(es); the free-list should serve all {} acquires",
            scratch.misses, scratch.acquires
        ));
    }
    if let Some(path) = json_path {
        let doc = timeline_suite_to_json(&results, sweep_groups, &sweep, &scratch, fast, socs);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn bench_faults(fast: bool, json_path: Option<String>) -> Result<(), String> {
    let results = run_fault_suite(fast);
    println!(
        "{:<10} {:>10} {:>8} {:>7} {:>9} {:>11} {:>10} {:>10}",
        "scenario",
        "reclaim_x",
        "crash_x",
        "faults",
        "best acc",
        "sim time s",
        "recovery s",
        "energy kJ"
    );
    for r in &results {
        println!(
            "{:<10} {:>10.2} {:>8.2} {:>7} {:>8.1}% {:>11.0} {:>10.1} {:>10.1}",
            r.scenario,
            r.reclaim_x,
            r.crash_x,
            r.faults_injected,
            r.best_accuracy * 100.0,
            r.sim_time_s,
            r.recovery_s,
            r.energy_kj
        );
    }
    if let Some(path) = json_path {
        let doc = fault_suite_to_json(&results, fast);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// One streaming-bench arm: a stream-rate profile crossed with rate-aware
/// vs topology-only grouping, measured by time-to-accuracy on the priced
/// simulated clock.
struct StreamingRun {
    profile: &'static str,
    rate_aware: bool,
    best_accuracy: f64,
    time_to_acc_s: Option<f64>,
    sim_time_s: f64,
    stall_s: f64,
    dropped: u64,
    regroups: u64,
}

/// Runs the streaming-ingestion experiment: uniform vs heterogeneous
/// per-SoC stream rates, each with rate-aware regrouping on and off.
/// The shared accuracy target is 80% of the weakest arm's best accuracy,
/// so every arm's time-to-accuracy is defined and comparable. Returns the
/// four arms plus that target. Everything is simulated and seeded, so the
/// numbers are machine-independent.
fn run_streaming_suite(fast: bool) -> (Vec<StreamingRun>, f64) {
    use socflow::config::{MethodSpec, SocFlowConfig, StreamingConfig, TrainJobSpec};
    use socflow::engine::Workload;
    use socflow::scheduler::GlobalScheduler;
    use socflow_data::stream::RateProfile;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;
    use socflow_telemetry::{MemorySink, Summary};
    use std::sync::Arc;

    let (socs, groups, epochs, samples) = streaming_suite_shape(fast);
    let arms: [(&'static str, RateProfile, bool); 4] = [
        ("uniform", RateProfile::Uniform, false),
        ("uniform", RateProfile::Uniform, true),
        ("hetero", RateProfile::Heterogeneous, false),
        ("hetero", RateProfile::Heterogeneous, true),
    ];
    let mut runs = Vec::new();
    for (name, profile, rate_aware) in arms {
        let mut spec = TrainJobSpec::new(
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
        );
        spec.socs = socs;
        spec.epochs = epochs;
        spec.global_batch = 32;
        let mut scfg = StreamingConfig::new(profile);
        scfg.rate_aware = rate_aware;
        let sink = Arc::new(MemorySink::new());
        let r = GlobalScheduler::new(spec, Workload::standard(&spec, samples, 8, 0.5))
            .with_streaming(scfg)
            .with_sink(sink.clone())
            .run();
        let s = Summary::from_events(&sink.events());
        runs.push((r, s, name, rate_aware));
    }
    let target = 0.8
        * runs
            .iter()
            .map(|(r, ..)| r.best_accuracy())
            .fold(f32::INFINITY, f32::min);
    let out = runs
        .into_iter()
        .map(|(r, s, profile, rate_aware)| StreamingRun {
            profile,
            rate_aware,
            best_accuracy: r.best_accuracy() as f64,
            time_to_acc_s: r.time_to_accuracy(target),
            sim_time_s: r.total_time(),
            stall_s: s.stream_stall_cost,
            dropped: s.samples_dropped,
            regroups: s.rate_regroups as u64,
        })
        .collect();
    (out, target as f64)
}

/// (socs, groups, epochs, samples) for the streaming suite's two tiers.
/// Groups of two leave within-board freedom for the rate-aware refill.
fn streaming_suite_shape(fast: bool) -> (usize, usize, usize, usize) {
    if fast {
        (8, 4, 3, 256)
    } else {
        (16, 8, 4, 512)
    }
}

fn streaming_suite_to_json(results: &[StreamingRun], target: f64, fast: bool) -> serde_json::Value {
    use serde_json::Value;
    let (socs, groups, epochs, samples) = streaming_suite_shape(fast);
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("profile".into(), Value::Str(r.profile.into())),
                ("rate_aware".into(), Value::Bool(r.rate_aware)),
                ("best_accuracy".into(), Value::F64(r.best_accuracy)),
                (
                    "time_to_acc_s".into(),
                    r.time_to_acc_s.map_or(Value::Null, Value::F64),
                ),
                ("sim_time_s".into(), Value::F64(r.sim_time_s)),
                ("stall_s".into(), Value::F64(r.stall_s)),
                ("samples_dropped".into(), Value::U64(r.dropped)),
                ("rate_regroups".into(), Value::U64(r.regroups)),
            ])
        })
        .collect();
    let tta = |profile: &str, aware: bool| {
        results
            .iter()
            .find(|r| r.profile == profile && r.rate_aware == aware)
            .and_then(|r| r.time_to_acc_s)
    };
    let speedup = match (tta("hetero", false), tta("hetero", true)) {
        (Some(blind), Some(aware)) if aware > 0.0 => blind / aware,
        _ => 0.0,
    };
    Value::Object(vec![
        (
            "schema".into(),
            Value::Str("socflow-streaming-bench/v1".into()),
        ),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        ("socs".into(), Value::U64(socs as u64)),
        ("groups".into(), Value::U64(groups as u64)),
        ("epochs".into(), Value::U64(epochs as u64)),
        ("samples".into(), Value::U64(samples as u64)),
        ("global_batch".into(), Value::U64(32)),
        ("target_accuracy".into(), Value::F64(target)),
        ("hetero_tta_speedup_vs_topology".into(), Value::F64(speedup)),
        ("results".into(), Value::Array(rows)),
    ])
}

fn bench_streaming(fast: bool, json_path: Option<String>) -> Result<(), String> {
    let (results, target) = run_streaming_suite(fast);
    println!(
        "target accuracy {:.1}% (80% of weakest arm)",
        target * 100.0
    );
    println!(
        "{:<8} {:<10} {:>9} {:>14} {:>11} {:>9} {:>8} {:>9}",
        "profile",
        "grouping",
        "best acc",
        "time-to-acc s",
        "sim time s",
        "stall s",
        "dropped",
        "regroups"
    );
    for r in &results {
        let tta = r
            .time_to_acc_s
            .map_or_else(|| "never".to_string(), |t| format!("{t:.1}"));
        println!(
            "{:<8} {:<10} {:>8.1}% {:>14} {:>11.1} {:>9.1} {:>8} {:>9}",
            r.profile,
            if r.rate_aware { "rate" } else { "topology" },
            r.best_accuracy * 100.0,
            tta,
            r.sim_time_s,
            r.stall_s,
            r.dropped,
            r.regroups
        );
    }
    if let Some(path) = json_path {
        let doc = streaming_suite_to_json(&results, target, fast);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// One autotune-bench row: the plan search for one model family on the
/// bench server, the default plan's predicted epoch seconds against the
/// tuned winner's.
struct AutotuneRun {
    /// Row label: the model family, `-pbeta` suffixed when the profiled-β
    /// axis was searched.
    arm: &'static str,
    model: &'static str,
    /// Profiled β supplied to the search (`None` = calibrated only).
    profiled_beta_in: Option<f64>,
    /// CGs of the *default* plan's topology (≥ 2 = multi-CG config).
    default_cgs: usize,
    default: socflow::autotune::PlanChoice,
    best: socflow::autotune::PlanChoice,
    evaluated: usize,
    pruned: usize,
    skipped: usize,
    /// Predicted default-plan / best-plan epoch-time ratio (≥ 1).
    speedup: f64,
}

/// Runs the plan-space search for the three bundled model families (plus
/// a profiled-β arm) on the bench server and reports tuned-vs-default
/// predicted epoch seconds. Entirely on the simulated clock: the rows are
/// machine-independent and bit-identical at any worker-pool size.
fn run_autotune_suite(fast: bool) -> (usize, Vec<AutotuneRun>) {
    use rand::{rngs::StdRng, SeedableRng};
    use socflow::autotune::{autotune, default_candidate, TuneOptions};
    use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
    use socflow::mapping::integrity_greedy;
    use socflow::planning::divide_communication_groups;
    use socflow_cluster::ClusterSpec;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::{ModelConfig, ModelKind};

    // the paper server is 60 SoCs, where the hand-set 8-group plan maps
    // to a multi-CG topology; the fast smoke uses a 20-SoC slice, where
    // 7 groups is the multi-CG count (as in the timeline suite's sweep)
    let (socs, default_groups) = if fast { (20, 7) } else { (60, 8) };
    // a pinned profiled β: what `bench kernels` measured on the reference
    // machine before the i8 GEMM was register-blocked (it now measures
    // above 0.5); kept fixed so the committed baseline stays comparable
    let arms: &[(&str, ModelKind, &str, f32, Option<f64>)] = &[
        ("vgg11", ModelKind::Vgg11, "vgg11", 0.22, None),
        ("resnet18", ModelKind::ResNet18, "resnet18", 0.18, None),
        ("mobilenet", ModelKind::MobileNetV1, "mobilenet", 0.22, None),
        ("vgg11-pbeta", ModelKind::Vgg11, "vgg11", 0.22, Some(0.2502)),
    ];
    let rows = arms
        .iter()
        .map(|&(arm, model, name, width, pbeta)| {
            // the paper's hand-set plan: fixed groups, interleaved sync
            let mut spec = TrainJobSpec::new(
                model,
                DatasetPreset::Cifar10,
                MethodSpec::SocFlow(SocFlowConfig::with_groups(default_groups)),
            );
            spec.socs = socs;
            let layout = model
                .build(
                    ModelConfig::new(3, 32, 10, width),
                    &mut StdRng::seed_from_u64(0),
                )
                .grad_layout();
            let opts = TuneOptions {
                budget: None,
                profiled_beta: pbeta,
                max_groups: None,
            };
            let report = autotune(&spec, &layout, &opts);
            let dflt = default_candidate(&spec);
            let cluster = ClusterSpec::for_socs(socs);
            let mapping = integrity_greedy(&cluster, socs, dflt.groups);
            let default_cgs =
                divide_communication_groups(&mapping).map_or(dflt.groups, |c| c.len());
            AutotuneRun {
                arm,
                model: name,
                profiled_beta_in: pbeta,
                default_cgs,
                default: report.default_plan,
                best: report.best(),
                evaluated: report.evaluated,
                pruned: report.pruned,
                skipped: report.skipped,
                speedup: report.speedup(),
            }
        })
        .collect();
    (socs, rows)
}

fn autotune_plan_json(c: &socflow::autotune::PlanChoice) -> serde_json::Value {
    use serde_json::Value;
    Value::Object(vec![
        ("groups".into(), Value::U64(c.candidate.groups as u64)),
        (
            "schedule".into(),
            Value::Str(c.candidate.schedule_name().into()),
        ),
        (
            "bucket_kb".into(),
            match c.candidate.bucket_kb {
                Some(kb) => Value::U64(kb as u64),
                None => Value::Null,
            },
        ),
        (
            "profiled_beta".into(),
            match c.candidate.profiled_beta {
                Some(b) => Value::F64(b),
                None => Value::Null,
            },
        ),
        ("predicted_s".into(), Value::F64(c.predicted_s)),
    ])
}

fn autotune_suite_to_json(results: &[AutotuneRun], fast: bool, socs: usize) -> serde_json::Value {
    use serde_json::Value;
    let rows = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("arm".into(), Value::Str(r.arm.into())),
                ("model".into(), Value::Str(r.model.into())),
                (
                    "profiled_beta_in".into(),
                    match r.profiled_beta_in {
                        Some(b) => Value::F64(b),
                        None => Value::Null,
                    },
                ),
                ("default_cgs".into(), Value::U64(r.default_cgs as u64)),
                ("default".into(), autotune_plan_json(&r.default)),
                ("best".into(), autotune_plan_json(&r.best)),
                ("evaluated".into(), Value::U64(r.evaluated as u64)),
                ("pruned".into(), Value::U64(r.pruned as u64)),
                ("skipped".into(), Value::U64(r.skipped as u64)),
                ("speedup".into(), Value::F64(r.speedup)),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "schema".into(),
            Value::Str("socflow-autotune-bench/v1".into()),
        ),
        (
            "mode".into(),
            Value::Str(if fast { "fast" } else { "full" }.into()),
        ),
        ("socs".into(), Value::U64(socs as u64)),
        (
            "budget".into(),
            Value::U64(socflow::autotune::DEFAULT_BUDGET as u64),
        ),
        ("results".into(), Value::Array(rows)),
    ])
}

fn bench_autotune(fast: bool, json_path: Option<String>) -> Result<(), String> {
    let (socs, results) = run_autotune_suite(fast);
    let dg = results.first().map_or(0, |r| r.default.candidate.groups);
    println!("plan autotuner vs the hand-set default ({dg} groups, interleaved) on {socs} SoCs");
    println!(
        "{:<12} {:>4} {:>11} {:>7} {:>11} {:>8} {:>11} {:>8} {:>5}/{:<5} {:>5}",
        "arm",
        "cgs",
        "default s",
        "groups",
        "schedule",
        "bucket",
        "tuned s",
        "speedup",
        "eval",
        "prune",
        "skip"
    );
    for r in &results {
        println!(
            "{:<12} {:>4} {:>11.1} {:>7} {:>11} {:>8} {:>11.1} {:>7.2}x {:>5}/{:<5} {:>5}",
            r.arm,
            r.default_cgs,
            r.default.predicted_s,
            r.best.candidate.groups,
            r.best.candidate.schedule_name(),
            r.best
                .candidate
                .bucket_kb
                .map_or("-".to_string(), |kb| format!("{kb}K")),
            r.best.predicted_s,
            r.speedup,
            r.evaluated,
            r.pruned,
            r.skipped
        );
    }
    // the suite's acceptance bar: the search must beat the hand-set plan
    // by ≥ 1.05× on at least one multi-CG config
    if !results
        .iter()
        .any(|r| r.default_cgs >= 2 && r.speedup >= 1.05)
    {
        return Err("no multi-CG arm reached the 1.05x tuned-vs-default bar".into());
    }
    if let Some(path) = json_path {
        let doc = autotune_suite_to_json(&results, fast, socs);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `socflow-cli bench <kernels|faults|timeline|e2e|fleet|streaming|autotune> [--fast] [--json <path>]`.
///
/// # Errors
/// Returns a message on unknown operands or an unwritable `--json` path.
pub fn bench(argv: &[String]) -> Result<(), String> {
    let usage = "usage: socflow-cli bench <kernels|faults|timeline|e2e|fleet|streaming|autotune> [--fast] [--json <path>]";
    let mut it = argv.iter();
    let suite = match it.next().map(String::as_str) {
        Some(
            s @ ("kernels" | "faults" | "timeline" | "e2e" | "fleet" | "streaming" | "autotune"),
        ) => s.to_string(),
        _ => return Err(usage.into()),
    };
    let mut fast = false;
    let mut json_path: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fast" => fast = true,
            "--json" => {
                json_path = Some(it.next().cloned().ok_or("`--json` needs a path")?);
            }
            other => return Err(format!("unknown bench flag `{other}`\n{usage}")),
        }
    }
    if suite == "faults" {
        return bench_faults(fast, json_path);
    }
    if suite == "timeline" {
        return bench_timeline(fast, json_path);
    }
    if suite == "e2e" {
        return bench_e2e(fast, json_path);
    }
    if suite == "fleet" {
        return bench_fleet(fast, json_path);
    }
    if suite == "streaming" {
        return bench_streaming(fast, json_path);
    }
    if suite == "autotune" {
        return bench_autotune(fast, json_path);
    }

    let results = run_suite(fast);
    println!("kernel tiles: {}", linalg::kernel_isa());
    println!(
        "{:<16} {:<18} {:>6} {:>12} {:>9}",
        "op", "shape", "iters", "ns/iter", "GFLOP/s"
    );
    for r in &results {
        println!(
            "{:<16} {:<18} {:>6} {:>12.0} {:>9.3}",
            r.op,
            r.shape,
            r.iters,
            r.ns_per_iter,
            r.gflops()
        );
    }
    if let Some(beta) = measured_beta(&results) {
        println!("\nmeasured beta = {beta:.4} (f32 vs i8 GEMM at 128x128x128; feed back via `train --profiled-beta {beta:.4}`)");
    }
    if let Some(path) = json_path {
        let doc = to_json(&results, fast);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write bench file `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_suite_runs_and_serializes() {
        let results = run_suite(true);
        assert!(results.len() >= 9, "suite covers every kernel family");
        for r in &results {
            assert!(r.ns_per_iter.is_finite() && r.ns_per_iter > 0.0, "{}", r.op);
            assert!(r.gflops() > 0.0, "{}", r.op);
        }
        assert_eq!(
            results.iter().filter(|r| r.op == "matmul_i8").count(),
            2,
            "integer GEMM rows at both shapes"
        );
        let beta = measured_beta(&results).expect("128³ pair present");
        assert!(beta > 0.0 && beta < 1.0, "beta {beta}");
        let doc = to_json(&results, true);
        assert_eq!(doc.get("schema").as_str(), Some("socflow-kernel-bench/v1"));
        assert_eq!(doc.get("mode").as_str(), Some("fast"));
        assert_eq!(doc.get("isa").as_str(), Some(linalg::kernel_isa().as_str()));
        assert_eq!(doc.get("profiled_beta").as_f64(), Some(beta));
        assert_eq!(doc.get("results").as_array().unwrap().len(), results.len());
    }

    #[test]
    fn bench_rejects_bad_operands() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(bench(&args(&[])).is_err());
        assert!(bench(&args(&["cache"])).is_err());
        assert!(bench(&args(&["kernels", "--json"])).is_err());
        assert!(bench(&args(&["kernels", "--turbo"])).is_err());
        assert!(bench(&args(&["faults", "--turbo"])).is_err());
    }

    #[test]
    fn fast_fleet_suite_beats_fifo_and_serializes() {
        let results = run_fleet_suite(true);
        assert_eq!(results.len(), 2, "fifo then tidal");
        let fifo = &results[0];
        let tidal = &results[1];
        assert_eq!(fifo.policy, "fifo");
        assert_eq!(tidal.policy, "tidal");
        assert!(fifo.completed > 0 && tidal.completed > 0);
        // the acceptance bar: the fleet policy wins on JCT and utilization
        assert!(
            tidal.mean_jct_s < fifo.mean_jct_s,
            "tidal JCT {} vs fifo {}",
            tidal.mean_jct_s,
            fifo.mean_jct_s
        );
        assert!(
            tidal.utilization > fifo.utilization,
            "tidal util {} vs fifo {}",
            tidal.utilization,
            fifo.utilization
        );
        let doc = fleet_suite_to_json(&results, true);
        assert_eq!(doc.get("schema").as_str(), Some("socflow-fleet-bench/v1"));
        assert_eq!(doc.get("mode").as_str(), Some("fast"));
        assert_eq!(doc.get("results").as_array().unwrap().len(), 2);
        assert!(doc.get("jct_speedup_vs_fifo").as_f64().unwrap() > 1.0);
        assert!(doc.get("utilization_gain_vs_fifo").as_f64().unwrap() > 0.0);
        let row = &doc.get("results").as_array().unwrap()[0];
        for key in [
            "policy",
            "completed",
            "preemptions",
            "mean_jct_s",
            "utilization",
            "idle_capacity_used",
            "throughput_jobs_per_day",
        ] {
            assert!(!row.get(key).is_null(), "missing field {key}");
        }
    }

    #[test]
    fn fast_autotune_suite_beats_the_default_and_serializes() {
        let (socs, results) = run_autotune_suite(true);
        assert_eq!(socs, 20);
        assert_eq!(results.len(), 4, "three families + the profiled-β arm");
        for r in &results {
            assert!(
                r.default.predicted_s > 0.0 && r.best.predicted_s > 0.0,
                "{}",
                r.arm
            );
            // the search never returns a plan predicted slower than default
            assert!(
                r.best.predicted_s <= r.default.predicted_s,
                "{}: best {} vs default {}",
                r.arm,
                r.best.predicted_s,
                r.default.predicted_s
            );
            assert!(r.evaluated > 0, "{}", r.arm);
        }
        // the acceptance bar, on the fast slice too: ≥1.05x on a multi-CG
        // default config
        assert!(
            results
                .iter()
                .any(|r| r.default_cgs >= 2 && r.speedup >= 1.05),
            "no multi-CG arm reached 1.05x"
        );
        let doc = autotune_suite_to_json(&results, true, socs);
        assert_eq!(
            doc.get("schema").as_str(),
            Some("socflow-autotune-bench/v1")
        );
        assert_eq!(doc.get("mode").as_str(), Some("fast"));
        assert_eq!(doc.get("results").as_array().unwrap().len(), 4);
        let row = &doc.get("results").as_array().unwrap()[0];
        for key in [
            "arm",
            "model",
            "default_cgs",
            "default",
            "best",
            "evaluated",
            "pruned",
            "skipped",
            "speedup",
        ] {
            assert!(!row.get(key).is_null(), "missing field {key}");
        }
        assert!(row.get("speedup").as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn autotune_suite_is_byte_deterministic() {
        let (socs, a) = run_autotune_suite(true);
        let (_, b) = run_autotune_suite(true);
        let ja = serde_json::to_string_pretty(&autotune_suite_to_json(&a, true, socs)).unwrap();
        let jb = serde_json::to_string_pretty(&autotune_suite_to_json(&b, true, socs)).unwrap();
        assert_eq!(ja, jb);
    }

    #[test]
    fn fleet_suite_is_byte_deterministic() {
        let a = serde_json::to_string_pretty(&fleet_suite_to_json(&run_fleet_suite(true), true))
            .unwrap();
        let b = serde_json::to_string_pretty(&fleet_suite_to_json(&run_fleet_suite(true), true))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fast_fault_suite_runs_and_serializes() {
        let results = run_fault_suite(true);
        assert_eq!(results.len(), 4, "baseline + three intensities");
        assert_eq!(results[0].scenario, "baseline");
        assert_eq!(results[0].recovery_s, 0.0);
        // the storm scenario must actually lose SoCs
        assert!(
            results.last().unwrap().faults_injected > 0,
            "storm must inject faults"
        );
        for r in &results {
            assert!(
                r.best_accuracy > 0.0 && r.sim_time_s > 0.0,
                "{}",
                r.scenario
            );
        }
        let doc = fault_suite_to_json(&results, true);
        assert_eq!(doc.get("schema").as_str(), Some("socflow-fault-bench/v1"));
        assert_eq!(doc.get("results").as_array().unwrap().len(), results.len());
    }

    #[test]
    fn fast_timeline_suite_runs_and_serializes() {
        let results = run_timeline_suite(true);
        assert_eq!(results.len(), 3);
        assert!(
            results.iter().any(|r| r.split_lgs > 0),
            "the sweep must include a split-LG count"
        );
        for r in &results {
            assert!(r.analytic_s > 0.0 && r.simulated_s > 0.0, "{}", r.groups);
            // interleaving never loses to the serial schedule
            assert!(
                r.simulated_s <= r.no_overlap_s + 1e-9,
                "{} groups: simulated {} vs no-overlap {}",
                r.groups,
                r.simulated_s,
                r.no_overlap_s
            );
            // wait-free never loses to serial or to interleaving, on
            // every config (the overlap property, not a lucky sample)
            let eps = 1e-6 * r.no_overlap_s;
            assert!(
                r.wait_free_s <= r.no_overlap_s + eps,
                "{} groups: wait-free {} vs serial {}",
                r.groups,
                r.wait_free_s,
                r.no_overlap_s
            );
            assert!(
                r.wait_free_s <= r.simulated_s + eps,
                "{} groups: wait-free {} vs interleaved {}",
                r.groups,
                r.wait_free_s,
                r.simulated_s
            );
            // board-aligned counts reproduce the analytic model within 1%
            if r.split_lgs == 0 {
                let rel = (r.analytic_s - r.simulated_s).abs() / r.analytic_s;
                assert!(rel < 0.01, "{} groups: rel {rel}", r.groups);
            }
        }
        // at least one multi-CG config must gain from bucketing over
        // plain interleaving (the acceptance bar for the wait-free arm)
        assert!(
            results
                .iter()
                .any(|r| r.cgs > 1 && r.wait_free_speedup() > r.overlap_speedup() + 1e-9),
            "no multi-CG config gained from wait-free bucketing"
        );
        let (sweep_groups, sweep) = run_bucket_sweep(true);
        assert_eq!(sweep_groups, 7);
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(w[0].bucket_kb < w[1].bucket_kb);
            assert!(
                w[0].buckets >= w[1].buckets,
                "smaller buckets cannot coalesce fewer: {} KiB → {} vs {} KiB → {}",
                w[0].bucket_kb,
                w[0].buckets,
                w[1].bucket_kb,
                w[1].buckets
            );
        }
        assert!(
            sweep[0].buckets > 1,
            "the 512 KiB floor must split VGG-11 into multiple buckets"
        );
        for r in &sweep {
            assert!(r.wait_free_s > 0.0, "{} KiB", r.bucket_kb);
        }
        let scratch = run_scratch_witness(true);
        assert!(scratch.acquires > 0, "the warm pass builds timelines");
        assert_eq!(
            scratch.misses, 0,
            "warm re-pricing must serve every scratch from the free-list"
        );
        let doc = timeline_suite_to_json(&results, sweep_groups, &sweep, &scratch, true, 20);
        assert_eq!(
            doc.get("schema").as_str(),
            Some("socflow-timeline-bench/v3")
        );
        assert_eq!(doc.get("mode").as_str(), Some("fast"));
        assert_eq!(doc.get("results").as_array().unwrap().len(), results.len());
        let sweep_doc = doc.get("bucket_sweep");
        assert_eq!(sweep_doc.get("groups").as_u64(), Some(7));
        assert_eq!(
            sweep_doc.get("results").as_array().unwrap().len(),
            sweep.len()
        );
        assert_eq!(doc.get("scratch_reuse").get("misses").as_u64(), Some(0));
    }

    #[test]
    fn fast_e2e_suite_runs_and_serializes() {
        let results = run_e2e_suite(true);
        assert!(results.len() >= 2, "at least pool sizes 1 and 2");
        assert_eq!(results[0].threads, 1, "first row is the 1-thread base");
        for r in &results {
            assert!(r.run_s > 0.0 && r.gemm_ns > 0.0, "{} threads", r.threads);
            // determinism witness: identical trajectory at every pool size
            assert_eq!(
                r.digest.to_bits(),
                results[0].digest.to_bits(),
                "accuracy digest must be bitwise thread-count-invariant"
            );
        }
        let doc = e2e_suite_to_json(&results, true);
        assert_eq!(doc.get("schema").as_str(), Some("socflow-e2e-bench/v1"));
        assert_eq!(doc.get("mode").as_str(), Some("fast"));
        assert_eq!(doc.get("results").as_array().unwrap().len(), results.len());
    }

    #[test]
    fn fast_streaming_suite_rate_awareness_wins_and_serializes() {
        let (results, target) = run_streaming_suite(true);
        assert_eq!(results.len(), 4, "uniform/hetero × topology/rate-aware");
        assert!(target > 0.0);
        let arm = |profile: &str, aware: bool| {
            results
                .iter()
                .find(|r| r.profile == profile && r.rate_aware == aware)
                .expect("arm present")
        };
        // uniform streams never trigger regrouping and never stall
        assert_eq!(arm("uniform", true).regroups, 0);
        assert_eq!(arm("uniform", true).stall_s, 0.0);
        assert_eq!(arm("uniform", false).stall_s, 0.0);
        let blind = arm("hetero", false);
        let aware = arm("hetero", true);
        assert!(blind.stall_s > 0.0, "topology-only hetero must stall");
        assert!(aware.regroups > 0, "rate-aware hetero must regroup");
        // the acceptance bar: rate-aware regrouping improves
        // time-to-accuracy under heterogeneous stream rates
        let tb = blind.time_to_acc_s.expect("blind arm reaches target");
        let ta = aware.time_to_acc_s.expect("aware arm reaches target");
        assert!(ta < tb, "rate-aware TTA {ta} vs topology-only {tb}");
        let doc = streaming_suite_to_json(&results, target, true);
        assert_eq!(
            doc.get("schema").as_str(),
            Some("socflow-streaming-bench/v1")
        );
        assert_eq!(doc.get("mode").as_str(), Some("fast"));
        assert!(doc.get("hetero_tta_speedup_vs_topology").as_f64().unwrap() > 1.0);
        let rows = doc.get("results").as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for key in [
            "profile",
            "rate_aware",
            "best_accuracy",
            "time_to_acc_s",
            "sim_time_s",
            "stall_s",
            "samples_dropped",
            "rate_regroups",
        ] {
            assert!(!rows[0].get(key).is_null(), "missing field {key}");
        }
    }

    #[test]
    fn streaming_suite_is_byte_deterministic() {
        let (r1, t1) = run_streaming_suite(true);
        let (r2, t2) = run_streaming_suite(true);
        let a = serde_json::to_string_pretty(&streaming_suite_to_json(&r1, t1, true)).unwrap();
        let b = serde_json::to_string_pretty(&streaming_suite_to_json(&r2, t2, true)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_fill_is_seed_stable() {
        let a = tensor([4, 4], 7);
        let b = tensor([4, 4], 7);
        let c = tensor([4, 4], 8);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }
}
