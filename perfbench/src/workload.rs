//! The four workloads: which platform each runs on, how its run time is
//! split between phases, and how phase results become metrics.
//!
//! Every workload reports every end-to-end metric, each measured on the
//! workload's own platform: on a fleet the collective makespans and HPL
//! GFLOP/s are wall clock and the `model_*` values come from a `SimFabric`
//! twin of the fleet's shape; on `sim_paper` the `model_*` values are the
//! simulator's own and the wall metrics are host time spent simulating.

use crate::inputs;
use crate::metrics::{median, tail_quantile, Outcome};
use crate::phases::{
    collective_loop, dgemm_gflops, hpl_once, setup_once, CollResult, CollSpec, HplRun, Stop,
    COLLECTIVES,
};
use crate::platform::{add_stats, op_counts, placement, Kind, Platform, FLEET_IMAGES};
use crate::probe::{ImageRec, Op, Probe};
use caf_hpl::HplOutcome;
use std::sync::Arc;
use std::time::Instant;

/// Set-up samples per run (a fleet comes up in milliseconds, the 64-image
/// simulator in a tenth of a second); `setup_s` is their median.
const FLEET_SETUP_SAMPLES: usize = 21;
const SIM_SETUP_SAMPLES: usize = 9;

/// Collective loops per run, each on a fresh platform; a reported p50 is
/// the median of the loops' p50s.
const LOOPS: usize = 11;

/// HPL solves of a `sim_paper` run.
const PAPER_HPL_REPS: usize = 3;

/// Repetitions of the fleet twin's modeled phase; `sim_host_s` is the
/// median of their host times.
const TWIN_REPS: usize = 5;

/// Recorded episodes every fleet loop reaches at least, so its p99 keeps
/// ten samples beyond it.
const MIN_EPISODES: u64 = 1000;

/// Recorded episodes of the fleet twin's simulated loop, and of each
/// 64-image loop (each of whose episodes costs milliseconds of host time),
/// and the unrecorded warm-up of both.
const TWIN_EPISODES: u64 = 3000;
const PAPER_LOOP_EPISODES: u64 = 40;
const SIM_WARMUP: u64 = 5;

/// Share of the run the traced run's untraced fleet loop takes. The traced
/// pass repeats its episode count, and may run it many times slower when
/// tracing tips the shm fleet into the bounded park on every wait.
const TRACED_SHARE: f64 = 0.1;

/// Unrecorded warm-up episodes of a fleet loop.
const FLEET_WARMUP: u64 = 200;

/// A flag wait this long or longer fell into the socket fabric's bounded
/// park rather than its spin.
const PARK_NS: u64 = 200_000;

/// Fewest HPL repetitions of a fleet run (its HPL median needs a few).
const FLEET_HPL_MIN_REPS: usize = 5;

/// HPL panel width (the EXP-F1 harness's choice at these sizes).
const NB: usize = 64;

/// How one workload spends its run.
pub struct Plan {
    pub platform: Kind,
    /// Share of the run given to the collective loop (fleets).
    pub coll_share: f64,
    /// HPL problem size before the seeded offset.
    pub hpl_base_n: usize,
    /// Share of the run given to HPL repetitions (fleets).
    pub hpl_share: f64,
    /// The metric `trace.overhead_frac` compares between the traced and
    /// the untraced pass.
    pub primary: Primary,
}

/// A workload's primary metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primary {
    /// Barrier makespan p50.
    BarrierP50,
    /// HPL GFLOP/s.
    HplGflops,
    /// Host time of the simulated collective loop.
    SimHost,
}

impl Plan {
    pub fn for_workload(name: &str) -> Plan {
        match name {
            "coll_shm" | "coll_wire" => Plan {
                platform: if name == "coll_shm" {
                    Kind::ShmFleet
                } else {
                    Kind::WireFleet
                },
                coll_share: 0.65,
                hpl_base_n: 768,
                hpl_share: 0.2,
                primary: Primary::BarrierP50,
            },
            "hpl_shm" => Plan {
                platform: Kind::ShmFleet,
                coll_share: 0.3,
                hpl_base_n: 1536,
                hpl_share: 0.5,
                primary: Primary::HplGflops,
            },
            "sim_paper" => Plan {
                platform: Kind::Paper64x8,
                coll_share: 0.0,
                hpl_base_n: 1024,
                hpl_share: 0.0,
                primary: Primary::SimHost,
            },
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn fleet(&self) -> bool {
        self.platform.is_fleet()
    }
}

fn us_p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Peak resident set of this process, MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb() -> Option<f64> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // `struct rusage` on 64-bit Linux: two timevals, then 14 longs, the
    // first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is as large as `struct rusage`, and 0 is
    // RUSAGE_SELF.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    (rc == 0).then(|| usage[4] as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mb() -> Option<f64> {
    None
}

/// One core per fleet image; on too few cores the process exits rather
/// than oversubscribe.
fn fleet_cpus(plan: &Plan) -> Option<Arc<Vec<usize>>> {
    if !plan.fleet() {
        println!("placement: simulator images are not pinned (one runs at a time)");
        return None;
    }
    match placement(FLEET_IMAGES) {
        Ok(cpus) => {
            let line: Vec<String> = cpus
                .iter()
                .enumerate()
                .map(|(i, c)| format!("image {} -> cpu {c}", i + 1))
                .collect();
            println!("placement: {}", line.join(", "));
            Some(cpus)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    }
}

/// Run a collective loop on a fresh platform, counting its operations and
/// checks. Returns the result and the platform's counter totals.
fn run_coll(
    kind: Kind,
    spec: &CollSpec,
    traced: bool,
    out: &mut Outcome,
) -> Option<(CollResult, caf_fabric::StatsSnapshot)> {
    let platform = Platform::up(kind, traced);
    let res = collective_loop(&platform, spec);
    let stats = platform.stats();
    platform.down();
    match res {
        Ok(r) => {
            out.ops(r.recorded * 3, r.mismatches);
            if r.mismatches > 0 {
                out.error(format!(
                    "{kind:?}: {} wrong co_sum results or broadcast payloads",
                    r.mismatches
                ));
            }
            Some((r, stats))
        }
        Err(msg) => {
            out.ops(1, 1);
            out.error(format!("{kind:?} collective loop failed: {msg}"));
            None
        }
    }
}

/// Run HPL repetitions, each on a fresh platform (HPL allocates teams and
/// coarrays per call, and a fresh fleet keeps every rep on the same
/// shared-memory footing). Stops after `secs` and at least `min_reps`.
#[allow(clippy::too_many_arguments)]
fn run_hpl(
    kind: Kind,
    n: usize,
    seed: u64,
    min_reps: usize,
    secs: f64,
    cpus: &Option<Arc<Vec<usize>>>,
    probe: Option<&Arc<Probe>>,
    out: &mut Outcome,
) -> Option<(Vec<HplRun>, caf_fabric::StatsSnapshot)> {
    let t = Instant::now();
    let mut runs = Vec::new();
    let mut stats = caf_fabric::StatsSnapshot::default();
    while runs.len() < min_reps || t.elapsed().as_secs_f64() < secs {
        let platform = Platform::up(kind, probe.is_some());
        let rep_seed = inputs::hpl_seed(seed, runs.len() as u64);
        let res = hpl_once(&platform, n, NB, rep_seed, cpus.clone(), probe);
        let s = platform.stats();
        platform.down();
        add_stats(&mut stats, &s);
        match res {
            Ok(r) => {
                out.ops(1, u64::from(!r.ok()));
                if !r.ok() {
                    out.error(format!(
                        "{kind:?}: HPL n={n} residual {} is not below {}",
                        r.residual,
                        crate::phases::MAX_RESIDUAL
                    ));
                }
                runs.push(r);
            }
            Err(msg) => {
                out.ops(1, 1);
                out.error(format!("{kind:?}: HPL n={n} failed: {msg}"));
                return None;
            }
        }
    }
    Some((runs, stats))
}

fn coll_spec(plan: &Plan, seed: u64, stop: Stop, cpus: &Option<Arc<Vec<usize>>>) -> CollSpec {
    CollSpec {
        seed,
        warmup: if plan.fleet() {
            FLEET_WARMUP
        } else {
            SIM_WARMUP
        },
        stop,
        skew: !plan.fleet(),
        cpus: cpus.clone(),
        probe: None,
    }
}

/// The modeled part of a run: the simulator loop and one HPL factorization,
/// on the twin of a fleet or on the paper's cluster itself.
struct Model {
    /// Mean modeled makespans of barrier, allreduce and broadcast, µs.
    model_us: [f64; 3],
    /// Modeled HPL GFLOP/s (the median, over several solves).
    hpl_gflops: f64,
    n: usize,
}

impl Model {
    /// The modeled values, bit for bit.
    fn modeled(&self) -> [u64; 4] {
        let [b, a, c] = self.model_us;
        [b, a, c, self.hpl_gflops].map(f64::to_bits)
    }
}

fn run_model(
    kind: Kind,
    n: usize,
    seed: u64,
    probe: Option<&Arc<Probe>>,
    out: &mut Outcome,
) -> Option<(Model, CollResult, caf_fabric::StatsSnapshot)> {
    let spec = CollSpec {
        seed,
        warmup: SIM_WARMUP,
        stop: Stop::Episodes(TWIN_EPISODES),
        skew: true,
        cpus: None,
        probe: probe.cloned(),
    };
    let (coll, stats) = run_coll(kind, &spec, probe.is_some(), out)?;
    let (hpl, _) = run_hpl(kind, n, seed, 1, 0.0, &None, None, out)?;
    Some((
        Model {
            model_us: coll.model_us,
            hpl_gflops: hpl[0].gflops(),
            n,
        },
        coll,
        stats,
    ))
}

/// The end-to-end run: every metric of `END_TO_END`, tracing off.
pub fn untraced(plan: &Plan, seed: u64, seconds: f64, out: &mut Outcome) {
    let cpus = fleet_cpus(plan);
    let n = inputs::hpl_n(plan.hpl_base_n, seed);

    let samples = if plan.fleet() {
        FLEET_SETUP_SAMPLES
    } else {
        SIM_SETUP_SAMPLES
    };
    let mut setups = Vec::new();
    for _ in 0..samples {
        match setup_once(plan.platform) {
            Ok(s) => setups.push(s),
            Err(msg) => {
                out.ops(1, 1);
                out.error(format!("set-up of {:?} failed: {msg}", plan.platform));
                return;
            }
        }
    }
    out.set("setup_s", median(&setups));

    // The collective loop, as LOOPS loops on fresh platforms: a fleet's
    // latency carries a per-fleet state (where its threads land, its
    // connections), so the median over several fleets repeats better
    // between runs than one long loop on one fleet.
    let mut loops = Vec::new();
    for w in 0..LOOPS {
        let stop = if plan.fleet() {
            Stop::After {
                secs: plan.coll_share * seconds / LOOPS as f64,
                min_episodes: MIN_EPISODES,
            }
        } else {
            Stop::Episodes(PAPER_LOOP_EPISODES)
        };
        let spec = coll_spec(plan, inputs::window_seed(seed, w as u64), stop, &cpus);
        let Some((coll, _)) = run_coll(plan.platform, &spec, false, out) else {
            return;
        };
        loops.push(coll);
    }
    report_wall_collectives(&loops, plan.fleet(), out);

    if plan.fleet() {
        let Some((runs, _)) = run_hpl(
            plan.platform,
            n,
            seed,
            FLEET_HPL_MIN_REPS,
            plan.hpl_share * seconds,
            &cpus,
            None,
            out,
        ) else {
            return;
        };
        let gflops: Vec<f64> = runs.iter().map(HplRun::gflops).collect();
        println!(
            "hpl: n={n}, {} reps, GFLOP/s {:?}",
            runs.len(),
            gflops
                .iter()
                .map(|g| (g * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
        out.set("hpl_gflops", median(&gflops));
        // The twin is deterministic: every repetition must model the same
        // times, and only its host time varies.
        let mut host = Vec::new();
        let mut first: Option<Model> = None;
        for _ in 0..TWIN_REPS {
            let t = Instant::now();
            let Some((model, _, _)) = run_model(Kind::FleetTwin, n, seed, None, out) else {
                return;
            };
            host.push(t.elapsed().as_secs_f64());
            match &first {
                None => first = Some(model),
                Some(m) if m.modeled() != model.modeled() => {
                    out.error(format!(
                        "the fleet twin is not deterministic: {:?} then {:?}",
                        m.modeled(),
                        model.modeled()
                    ));
                }
                Some(_) => {}
            }
        }
        out.set("sim_host_s", median(&host));
        report_model(&first.expect("TWIN_REPS > 0"), out);
    } else {
        let Some((runs, _)) = run_hpl(
            plan.platform,
            n,
            seed,
            PAPER_HPL_REPS,
            0.0,
            &None,
            None,
            out,
        ) else {
            return;
        };
        let wall: Vec<f64> = runs.iter().map(HplRun::wall_gflops).collect();
        let modeled: Vec<f64> = runs.iter().map(HplRun::gflops).collect();
        out.set("hpl_gflops", median(&wall));
        let hpl_host_s: f64 = runs
            .iter()
            .map(|r| r.factorize_wall_s + r.solve_wall_s + r.verify_s)
            .sum();
        let coll_host_s: f64 = loops.iter().map(|l| l.host_s).sum();
        out.set("sim_host_s", coll_host_s + hpl_host_s);
        // Equal episodes per loop: the mean of the loops' means is the mean.
        let model_us = std::array::from_fn(|c| {
            loops.iter().map(|l| l.model_us[c]).sum::<f64>() / loops.len() as f64
        });
        let hpl_gflops = median(&modeled);
        report_model(
            &Model {
                model_us,
                hpl_gflops,
                n,
            },
            out,
        );
    }
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
}

/// Wall latency of `loops`, one loop per window: per-episode makespans on
/// a fleet; on the simulator, host time per image call (a simulated
/// episode costs milliseconds of host time, too few episodes for a
/// makespan tail). Each metric is the median of the windows' p50s. The
/// p99s are logged, not reported: on a shared host they are not steady
/// enough between runs to gate on (see README.md).
fn report_wall_collectives(loops: &[CollResult], makespan: bool, out: &mut Outcome) {
    const P50: [&str; 3] = ["barrier_p50_us", "allreduce_p50_us", "bcast_p50_us"];
    let recorded: u64 = loops.iter().map(|l| l.recorded).sum();
    let host_s: f64 = loops.iter().map(|l| l.host_s).sum();
    println!(
        "collectives: {recorded} recorded episodes in {} loops, {host_s:.2} s",
        loops.len()
    );
    for (c, name) in COLLECTIVES.iter().enumerate() {
        let per_loop = |q: f64| -> Option<Vec<f64>> {
            loops
                .iter()
                .map(|l| {
                    let samples = if makespan {
                        &l.makespan_us[c]
                    } else {
                        &l.call_us[c]
                    };
                    tail_quantile(samples, q)
                })
                .collect()
        };
        let show = |v: &Option<Vec<f64>>| match v {
            Some(v) => format!(
                "median {:.2} of [{}]",
                median(v),
                v.iter()
                    .map(|x| format!("{x:.2}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            None => "n/a (too few samples)".to_string(),
        };
        let (p50s, p99s) = (per_loop(0.5), per_loop(0.99));
        match &p50s {
            Some(v) => out.set(P50[c], median(v)),
            None => out.error(format!("{name}: a loop recorded no samples")),
        }
        println!("  {name} p50 us: {}", show(&p50s));
        println!("  {name} p99 us: {}", show(&p99s));
    }
}

fn report_model(model: &Model, out: &mut Outcome) {
    out.set("model_barrier_us", model.model_us[0]);
    out.set("model_allreduce_us", model.model_us[1]);
    out.set("model_bcast_us", model.model_us[2]);
    out.set("model_hpl_gflops", model.hpl_gflops);
    println!(
        "model: barrier/allreduce/bcast = {:.4}/{:.4}/{:.4} us, HPL n={} {:.4} GFLOP/s",
        model.model_us[0], model.model_us[1], model.model_us[2], model.n, model.hpl_gflops
    );
}

/// Compare the deterministic operation counts of an untraced and a traced
/// pass over the same seeded work.
fn same_counts(
    what: &str,
    plain: &caf_fabric::StatsSnapshot,
    traced: &caf_fabric::StatsSnapshot,
    out: &mut Outcome,
) {
    let diffs: Vec<String> = op_counts(plain)
        .iter()
        .zip(op_counts(traced))
        .filter(|((_, a), (_, b))| a != b)
        .map(|((name, a), (_, b))| format!("{name} {a} vs {b}"))
        .collect();
    if diffs.is_empty() {
        println!("op counts: {what} traced run matches the untraced run");
    } else {
        out.error(format!(
            "{what}: traced op counts differ from untraced: {}",
            diffs.join(", ")
        ));
    }
}

/// Fabric-layer metrics from the probe's records of a loop that took
/// `host_s` on each of its images.
fn report_fabric(recs: &[ImageRec], host_s: f64, out: &mut Outcome) {
    let pooled = |ops: &[Op]| -> Vec<f64> {
        recs.iter()
            .flat_map(|r| ops.iter().flat_map(move |op| r.lat(*op).iter()))
            .map(|ns| *ns as f64 / 1e3)
            .collect()
    };
    out.set("fabric.put_p50_us", us_p50(&pooled(&[Op::Put, Op::PutNb])));
    out.set("fabric.flag_add_p50_us", us_p50(&pooled(&[Op::FlagAdd])));
    out.set("fabric.quiet_p50_us", us_p50(&pooled(&[Op::Quiet])));
    let waits = pooled(&[Op::FlagWait]);
    out.set("fabric.flag_wait_p50_us", us_p50(&waits));
    out.set(
        "fabric.flag_wait_p99_us",
        tail_quantile(&waits, 0.99).unwrap_or(0.0),
    );
    let parked = waits.iter().filter(|w| **w * 1e3 >= PARK_NS as f64).count();
    out.set(
        "fabric.flag_wait_parked_frac",
        parked as f64 / waits.len().max(1) as f64,
    );
    let image_ns = host_s * 1e9 * recs.len() as f64;
    out.set(
        "fabric.busy_frac",
        recs.iter().map(|r| r.busy_ns).sum::<u64>() as f64 / image_ns,
    );
    out.set(
        "fabric.wait_frac",
        recs.iter().map(|r| r.wait_ns).sum::<u64>() as f64 / image_ns,
    );
}

fn report_socket(s: &caf_fabric::StatsSnapshot, calls: u64, out: &mut Outcome) {
    let per = |v: u64| v as f64 / calls.max(1) as f64;
    // Cross-process data and flag ops: the shm tier counts its own, the
    // wire path counts them at the inter-node level.
    let shm = s.shm_puts + s.shm_flag_ops;
    let cross = shm + s.puts_inter + s.gets_inter + s.flags_inter;
    out.set("socket.frames_per_op", per(s.wire_frames_tx));
    out.set("socket.wire_bytes_per_op", per(s.wire_bytes_tx));
    out.set("socket.shm_ops_per_op", per(shm));
    out.set(
        "socket.fast_path_frac",
        if cross == 0 {
            0.0
        } else {
            shm as f64 / cross as f64
        },
    );
    out.set("socket.wire_retries", s.wire_retries as f64);
}

fn report_sim(coll: &CollResult, s: &caf_fabric::StatsSnapshot, out: &mut Outcome) {
    let events = s.sim_events_popped;
    out.set(
        "sim.events_per_op",
        events as f64 / coll.calls.max(1) as f64,
    );
    out.set(
        "sim.host_ns_per_event",
        coll.host_s * 1e9 / events.max(1) as f64,
    );
    out.set("sim.peak_queue_depth", s.sim_queue_hwm as f64);
}

/// The per-layer run: an untraced pass to fix the amount of work, then the
/// same seeded work through the timing wrapper with the tracer on. Every
/// `PER_LAYER` metric comes from the traced pass; the op counts of the two
/// passes must agree.
pub fn traced(plan: &Plan, seed: u64, seconds: f64, out: &mut Outcome) {
    let cpus = fleet_cpus(plan);
    let n = inputs::hpl_n(plan.hpl_base_n, seed);
    let kind = plan.platform;
    let images = kind.map().n_images();

    // Untraced pass: a timed collective loop fixes the episode count.
    let stop = if plan.fleet() {
        Stop::After {
            secs: TRACED_SHARE * seconds,
            min_episodes: MIN_EPISODES,
        }
    } else {
        Stop::Episodes(PAPER_LOOP_EPISODES * LOOPS as u64)
    };
    let Some((plain_coll, plain_stats)) =
        run_coll(kind, &coll_spec(plan, seed, stop, &cpus), false, out)
    else {
        return;
    };
    let Some((plain_hpl, plain_hpl_stats)) = run_hpl(kind, n, seed, 1, 0.0, &cpus, None, out)
    else {
        return;
    };

    // Traced pass over the same episodes and the same HPL system.
    let probe = Probe::new(images);
    let mut spec = coll_spec(plan, seed, Stop::Episodes(plain_coll.recorded), &cpus);
    spec.probe = Some(Arc::clone(&probe));
    let Some((coll, stats)) = run_coll(kind, &spec, true, out) else {
        return;
    };
    let recs = probe.take();
    same_counts("collective loop", &plain_stats, &stats, out);
    let Some((hpl, hpl_stats)) = run_hpl(kind, n, seed, 1, 0.0, &cpus, Some(&probe), out) else {
        return;
    };
    probe.take();
    same_counts("HPL", &plain_hpl_stats, &hpl_stats, out);
    let hpl = &hpl[0];

    for c in 0..3 {
        out.set(
            [
                "runtime.barrier_call_p50_us",
                "runtime.allreduce_call_p50_us",
                "runtime.bcast_call_p50_us",
            ][c],
            median(&coll.call_us[c]),
        );
        out.set(
            [
                "collectives.barrier_fabric_ops",
                "collectives.allreduce_fabric_ops",
                "collectives.bcast_fabric_ops",
            ][c],
            coll.fabric_ops[c],
        );
    }
    out.set("runtime.arrival_skew_p50_us", median(&coll.skew_us));
    report_fabric(&recs, coll.host_s, out);
    report_socket(&stats, coll.calls, out);

    out.set("hpl.factorize_s", hpl.factorize_wall_s);
    out.set("hpl.solve_s", hpl.solve_wall_s);
    out.set("hpl.verify_s", hpl.verify_s);
    let dgemm = dgemm_gflops(n, 64, images, seed, 0.3);
    out.set("hpl.dgemm_gflops", dgemm);
    // Fleet images compute in parallel; simulated images take turns.
    let parallel = if plan.fleet() { images } else { 1 };
    let compute_s = HplOutcome::flops(n) / parallel as f64 / (dgemm * 1e9);
    out.set("hpl.compute_frac", compute_s / hpl.factorize_wall_s);

    let overhead = match plan.primary {
        Primary::BarrierP50 => {
            median(&coll.makespan_us[0]) / median(&plain_coll.makespan_us[0]) - 1.0
        }
        Primary::HplGflops => plain_hpl[0].gflops() / hpl.gflops() - 1.0,
        Primary::SimHost => coll.host_s / plain_coll.host_s - 1.0,
    };
    out.set("trace.overhead_frac", overhead);

    if plan.fleet() {
        // The simulator layer, on the fleet's twin.
        let twin_probe = Probe::new(images);
        let Some((_, twin_coll, twin_stats)) =
            run_model(Kind::FleetTwin, n, seed, Some(&twin_probe), out)
        else {
            return;
        };
        report_sim(&twin_coll, &twin_stats, out);
    } else {
        report_sim(&coll, &stats, out);
    }
}
