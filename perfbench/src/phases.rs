//! The measured phases: a closed collective loop, HPL repetitions, the
//! single-thread DGEMM probe, and platform set-up. Each phase checks every
//! result it produces and reports mismatches as failed operations.

use crate::inputs::{self, BCAST_WORDS};
use crate::metrics::{arrival_skews, makespans};
use crate::platform::{pin_current_thread, Kind, Platform};
use crate::probe::Probe;
use caf_hpl::{factorize, solve, verify_solve, HplConfig, HplOutcome};
use caf_runtime::ImageCtx;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three collectives of an episode, in order.
pub const COLLECTIVES: [&str; 3] = ["barrier", "allreduce", "bcast"];

/// Episodes between two stop decisions of a timed loop.
pub const CHUNK: u64 = 100;

/// Upper bound on episodes per second, for sizing a timed loop's records.
const MAX_EPISODE_RATE: f64 = 40_000.0;

/// Scaled residual an HPL solve must stay below (the repo's test bar).
pub const MAX_RESIDUAL: f64 = 1e-9;

/// When a collective loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many recorded episodes (rounded up to whole chunks).
    Episodes(u64),
    /// Once `secs` have passed and at least `min_episodes` are recorded.
    After { secs: f64, min_episodes: u64 },
}

/// Everything one collective loop needs besides the platform.
#[derive(Clone)]
pub struct CollSpec {
    pub seed: u64,
    /// Leading episodes run but not recorded.
    pub warmup: u64,
    pub stop: Stop,
    /// Inject seeded modeled compute skew before each episode (simulator).
    pub skew: bool,
    /// One core per image, when the images are pinned.
    pub cpus: Option<Arc<Vec<usize>>>,
    pub probe: Option<Arc<Probe>>,
}

/// What one image saw in a collective loop.
struct ImageColl {
    /// Per collective, per recorded episode: (entry, exit) on the shared
    /// wall clock, ns since the loop's base instant.
    wall: [Vec<(u64, u64)>; 3],
    /// The same on the fabric clock: virtual time, kept on the simulator
    /// only.
    virt: [Vec<(u64, u64)>; 3],
    /// Per collective: fabric calls made inside it, summed over episodes.
    fabric_ops: [u64; 3],
    /// Episodes run, warm-up and all.
    episodes: u64,
    /// Wrong `co_sum` values and broadcast payloads.
    mismatches: u64,
}

/// A collective loop's results, merged over images.
pub struct CollResult {
    /// Per collective: makespan per recorded episode, µs of wall time.
    pub makespan_us: [Vec<f64>; 3],
    /// Per collective: each image's call duration, µs, episode by episode.
    pub call_us: [Vec<f64>; 3],
    /// Arrival skew per episode and collective, µs.
    pub skew_us: Vec<f64>,
    /// Per collective: mean makespan on the fabric clock, µs (simulator).
    pub model_us: [f64; 3],
    /// Per collective: fabric calls per episode, all images together.
    pub fabric_ops: [f64; 3],
    /// Recorded episodes.
    pub recorded: u64,
    /// Collective calls made in all, warm-up and stop decisions included.
    pub calls: u64,
    pub mismatches: u64,
    /// Wall time of the whole loop, s.
    pub host_s: f64,
}

/// Run the closed loop `sync_all` → `co_sum` of one `f64` → `co_broadcast`
/// of 4 KiB from image 1 on `platform`, checking every result.
pub fn collective_loop(platform: &Platform, spec: &CollSpec) -> Result<CollResult, String> {
    let base = Instant::now();
    let s = spec.clone();
    let per_image = platform.run(spec.probe.as_ref(), move |img| {
        let me0 = img.this_image() - 1;
        let n = img.num_images();
        if let Some(cpus) = &s.cpus {
            if let Err(e) = pin_current_thread(cpus[me0]) {
                panic!("image {}: {e}", me0 + 1);
            }
        }
        let now = || base.elapsed().as_nanos() as u64;
        let ops = |p: &Option<Arc<Probe>>| p.as_ref().map_or(0, |p| p.calls(me0));
        // Reserve the records up front (untouched capacity costs no
        // memory), so their growth never reallocates mid-loop.
        let cap = match s.stop {
            Stop::Episodes(n) => n as usize,
            Stop::After { secs, .. } => (secs * MAX_EPISODE_RATE) as usize,
        } + CHUNK as usize;
        let reserve = |on: bool| -> [Vec<(u64, u64)>; 3] {
            std::array::from_fn(|_| Vec::with_capacity(if on { cap } else { 0 }))
        };
        let mut rec = ImageColl {
            wall: reserve(true),
            virt: reserve(s.skew),
            fabric_ops: [0; 3],
            episodes: 0,
            mismatches: 0,
        };
        let mut payload = vec![0u64; BCAST_WORDS];
        let mut buf = vec![0u64; BCAST_WORDS];
        let mut recorded = 0u64;
        let start = Instant::now();
        loop {
            for _ in 0..CHUNK {
                let ep = rec.episodes;
                let want_sum = inputs::expected_sum(s.seed, ep, n);
                inputs::bcast_payload(s.seed, ep, &mut payload);
                let mut x = [inputs::sum_term(s.seed, ep, me0)];
                let mut w = [(0u64, 0u64); 3];
                let mut v = [(0u64, 0u64); 3];
                let mut o = [0u64; 3];
                // Run call `c` of the episode: skew it (simulator), time it
                // on both clocks, count the fabric calls it makes.
                let mut timed =
                    |img: &mut ImageCtx, c: usize, call: &mut dyn FnMut(&mut ImageCtx)| {
                        if s.skew {
                            img.compute(inputs::skew_ns(s.seed, 3 * ep + c as u64, me0));
                        }
                        let o0 = ops(&s.probe);
                        v[c].0 = img.now_ns();
                        w[c].0 = now();
                        call(img);
                        w[c].1 = now();
                        v[c].1 = img.now_ns();
                        o[c] = ops(&s.probe) - o0;
                    };
                timed(img, 0, &mut |img| img.sync_all());
                timed(img, 1, &mut |img| img.co_sum(&mut x));
                rec.mismatches += u64::from(x[0] != want_sum);
                if me0 == 0 {
                    buf.copy_from_slice(&payload);
                } else {
                    buf.fill(0);
                }
                timed(img, 2, &mut |img| img.co_broadcast(&mut buf, 1));
                rec.mismatches += u64::from(buf != payload);

                rec.episodes += 1;
                if ep >= s.warmup {
                    recorded += 1;
                    for c in 0..3 {
                        rec.wall[c].push(w[c]);
                        if s.skew {
                            rec.virt[c].push(v[c]);
                        }
                        rec.fabric_ops[c] += o[c];
                    }
                }
            }
            // Every image must run the same episodes, so image 1 decides
            // when to stop and broadcasts the decision (outside the timed
            // windows, and on the same schedule whatever the stop rule).
            let mut stop = [0u64];
            if me0 == 0 {
                stop[0] = u64::from(match s.stop {
                    Stop::Episodes(n) => recorded >= n,
                    Stop::After { secs, min_episodes } => {
                        start.elapsed().as_secs_f64() >= secs && recorded >= min_episodes
                    }
                });
            }
            img.co_broadcast(&mut stop, 1);
            if stop[0] == 1 {
                break;
            }
        }
        rec
    })?;
    let host_s = base.elapsed().as_secs_f64();

    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = CollResult {
        makespan_us: Default::default(),
        call_us: Default::default(),
        skew_us: Vec::new(),
        model_us: [0.0; 3],
        fabric_ops: [0.0; 3],
        recorded: per_image[0].wall[0].len() as u64,
        calls: per_image[0].episodes * 3 + per_image[0].episodes.div_ceil(CHUNK),
        mismatches: per_image.iter().map(|r| r.mismatches).sum(),
        host_s,
    };
    for c in 0..3 {
        let wall: Vec<&[(u64, u64)]> = per_image.iter().map(|r| &r.wall[c][..]).collect();
        out.makespan_us[c] = makespans(&wall).into_iter().map(us).collect();
        out.call_us[c] = (0..out.recorded as usize)
            .flat_map(|e| wall.iter().map(move |w| us(w[e].1 - w[e].0)))
            .collect();
        out.skew_us.extend(arrival_skews(&wall).into_iter().map(us));
        if spec.skew {
            let virt: Vec<&[(u64, u64)]> = per_image.iter().map(|r| &r.virt[c][..]).collect();
            let modeled = makespans(&virt);
            out.model_us[c] =
                modeled.iter().sum::<u64>() as f64 / modeled.len().max(1) as f64 / 1e3;
        }
        out.fabric_ops[c] = per_image.iter().map(|r| r.fabric_ops[c]).sum::<u64>() as f64
            / out.recorded.max(1) as f64;
    }
    Ok(out)
}

/// One HPL repetition's results.
pub struct HplRun {
    pub n: usize,
    /// Factorization time, slowest image, on the fabric clock (virtual
    /// time on the simulator, wall time on a fleet), s.
    pub factorize_s: f64,
    /// Factorization time, slowest image, wall clock, s.
    pub factorize_wall_s: f64,
    /// Solve time, slowest image, wall clock, s.
    pub solve_wall_s: f64,
    /// Verification time, slowest image, wall clock, s.
    pub verify_s: f64,
    pub residual: f64,
}

impl HplRun {
    /// GFLOP/s over the fabric-clock factorization time.
    pub fn gflops(&self) -> f64 {
        HplOutcome::flops(self.n) / self.factorize_s / 1e9
    }

    /// GFLOP/s over the wall-clock factorization time.
    pub fn wall_gflops(&self) -> f64 {
        HplOutcome::flops(self.n) / self.factorize_wall_s / 1e9
    }

    pub fn ok(&self) -> bool {
        self.residual.is_finite() && self.residual < MAX_RESIDUAL
    }
}

/// Factorize, solve and verify one seeded `n × n` system on `platform`.
pub fn hpl_once(
    platform: &Platform,
    n: usize,
    nb: usize,
    seed: u64,
    cpus: Option<Arc<Vec<usize>>>,
    probe: Option<&Arc<Probe>>,
) -> Result<HplRun, String> {
    let cfg = HplConfig { n, nb, seed };
    let per_image = platform.run(probe, move |img| {
        let me0 = img.this_image() - 1;
        if let Some(cpus) = &cpus {
            if let Err(e) = pin_current_thread(cpus[me0]) {
                panic!("image {}: {e}", me0 + 1);
            }
        }
        let t = Instant::now();
        let fact = factorize(img, &cfg);
        let fact_wall = t.elapsed();
        let t = Instant::now();
        let sol = solve(img, &cfg, &fact);
        let solve_wall = t.elapsed();
        let t = Instant::now();
        let residual = verify_solve(img, &cfg, &sol.x);
        (
            [
                Duration::from_nanos(fact.time_ns),
                fact_wall,
                solve_wall,
                t.elapsed(),
            ],
            residual,
        )
    })?;
    let max = |k: usize| {
        per_image
            .iter()
            .map(|(t, _)| t[k].as_secs_f64())
            .fold(0.0, f64::max)
    };
    Ok(HplRun {
        n,
        factorize_s: max(0),
        factorize_wall_s: max(1),
        solve_wall_s: max(2),
        verify_s: max(3),
        residual: worst_residual(per_image.iter().map(|(_, r)| *r)),
    })
}

/// The worst of the images' residuals (`verify_solve` returns the
/// `co_max`-combined value on every image), NaN if any is NaN — `f64::max`
/// alone would let a NaN pass as the other operand.
fn worst_residual(residuals: impl Iterator<Item = f64>) -> f64 {
    residuals.fold(0.0, |worst, r| {
        if r.is_nan() || worst.is_nan() {
            f64::NAN
        } else {
            worst.max(r)
        }
    })
}

/// Single-thread GFLOP/s of `blas::dgemm_minus` at the trailing-update
/// shape of an `n`-row, `nb`-wide HPL step on `images` images.
pub fn dgemm_gflops(n: usize, nb: usize, images: usize, seed: u64, secs: f64) -> f64 {
    let (p, q) = caf_hpl::grid_dims(images);
    let (m, cols, k) = (n / p, (n / q / 2).max(nb), nb);
    let fill = |len: usize, stream: u64| -> Vec<f64> {
        (0..len)
            .map(|i| {
                (inputs::draw(seed, stream, i as u64, 0) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    };
    let a = fill(m * k, 10);
    let b = fill(k * cols, 11);
    let mut c = fill(m * cols, 12);
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t.elapsed().as_secs_f64() < secs {
        caf_hpl::blas::dgemm_minus(
            m,
            cols,
            k,
            std::hint::black_box(&a),
            m,
            std::hint::black_box(&b),
            k,
            &mut c,
            m,
        );
        calls += 1;
    }
    std::hint::black_box(&c);
    (caf_hpl::blas::dgemm_flops(m, cols, k) * calls) as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// Time bringing `kind` up and ready: platform construction (fleet
/// rendezvous and shm mapping, or fabric build), image start-up and team
/// bootstrap, and a short warm-up of `sync_all`s. Torn down afterwards.
pub fn setup_once(kind: Kind) -> Result<f64, String> {
    let t = Instant::now();
    let platform = Platform::up(kind, false);
    let ran = platform.run(None, |img| {
        for _ in 0..20 {
            img.sync_all();
        }
    });
    let secs = t.elapsed().as_secs_f64();
    platform.down();
    ran.map(|_| secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::op_counts;

    fn twin_loop(seed: u64, probe: Option<Arc<Probe>>) -> (CollResult, caf_fabric::StatsSnapshot) {
        let platform = Platform::up(Kind::FleetTwin, false);
        let spec = CollSpec {
            seed,
            warmup: 5,
            stop: Stop::Episodes(50),
            skew: true,
            cpus: None,
            probe,
        };
        let r = collective_loop(&platform, &spec).expect("twin loop");
        (r, platform.stats())
    }

    #[test]
    fn loop_checks_seeded_results_and_models_one_seed_exactly() {
        let (a, _) = twin_loop(5, None);
        let (b, _) = twin_loop(5, None);
        let (c, _) = twin_loop(6, None);
        assert_eq!(a.mismatches, 0);
        // One chunk of episodes, less the warm-up.
        assert_eq!(a.recorded, CHUNK - 5);
        assert_eq!(a.makespan_us[0].len(), a.recorded as usize);
        assert_eq!(a.call_us[0].len(), 2 * a.recorded as usize);
        assert_eq!(a.model_us.map(f64::to_bits), b.model_us.map(f64::to_bits));
        assert_ne!(a.model_us, c.model_us, "the seed's skew reaches the model");
    }

    #[test]
    fn the_probe_wrapper_keeps_every_op_count() {
        let (_, plain) = twin_loop(7, None);
        let probe = Probe::new(2);
        let (r, traced) = twin_loop(7, Some(Arc::clone(&probe)));
        assert_eq!(op_counts(&plain), op_counts(&traced));
        assert!(r.fabric_ops.iter().all(|&ops| ops > 0.0));
        assert!(probe.take().iter().all(|rec| rec.calls > 0));
    }

    #[test]
    fn the_seed_reaches_the_hpl_matrix() {
        let solve = |seed| {
            let platform = Platform::up(Kind::FleetTwin, false);
            hpl_once(&platform, 48, 8, inputs::hpl_seed(seed, 0), None, None).expect("hpl")
        };
        let (a, b, c) = (solve(1), solve(1), solve(2));
        assert!(a.ok() && c.ok());
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        assert_ne!(a.residual, c.residual, "another seed, another matrix");
    }

    #[test]
    fn a_nan_residual_fails_the_check() {
        assert_eq!(worst_residual([1e-12, 3e-12].into_iter()), 3e-12);
        assert!(worst_residual([1e-12, f64::NAN, 1e-13].into_iter()).is_nan());
        let run = |residual| HplRun {
            n: 8,
            factorize_s: 1.0,
            factorize_wall_s: 1.0,
            solve_wall_s: 1.0,
            verify_s: 1.0,
            residual,
        };
        assert!(run(1e-12).ok());
        assert!(!run(f64::NAN).ok() && !run(1e-3).ok());
    }

    #[test]
    fn a_wire_fleet_loop_measures_makespans_and_checks_results() {
        let platform = Platform::up(Kind::WireFleet, false);
        let spec = CollSpec {
            seed: 3,
            warmup: 10,
            stop: Stop::Episodes(20),
            skew: false,
            cpus: None,
            probe: None,
        };
        let r = collective_loop(&platform, &spec);
        platform.down();
        let r = r.expect("wire loop");
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.recorded, CHUNK - 10);
        for c in 0..3 {
            // A makespan covers both images' calls of its episode.
            for (e, m) in r.makespan_us[c].iter().enumerate() {
                assert!(*m >= r.call_us[c][2 * e] && *m >= r.call_us[c][2 * e + 1]);
            }
        }
    }
}
