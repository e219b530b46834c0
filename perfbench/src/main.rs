//! caf-rs benchmark: runs one workload for a given seed and time,
//! checks every result, and prints one JSON result line last.
//!
//! ```text
//! perfbench --workload <coll_shm|coll_wire|hpl_shm|sim_paper> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --spec        # print BENCHMARK.json
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` (a build with
//! the `trace` feature) reports the per-layer metrics. See README.md.

mod inputs;
mod metrics;
mod phases;
mod platform;
mod probe;
mod workload;

use metrics::{Outcome, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("unknown workload {workload:?} (one of {names:?})"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", metrics::spec_json());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace && !caf_trace::Tracer::for_images(1).enabled() {
        eprintln!("perfbench: --trace 1 needs a build with `--features trace`");
        std::process::exit(2);
    }
    // Shared-memory segment files go where the caller points
    // (`CAF_SHM_DIR`), by default under the build directory.
    if std::env::var_os(caf_fabric::socket::shm::ENV_SHM_DIR).is_none() {
        let dir = std::path::Path::new(".bench_build").join("shm");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        std::env::set_var(caf_fabric::socket::shm::ENV_SHM_DIR, &dir);
    }

    let plan = workload::Plan::for_workload(&args.workload);
    let mut outcome = Outcome::default();
    let wanted = if args.trace {
        workload::traced(&plan, args.seed, args.seconds, &mut outcome);
        PER_LAYER
    } else {
        workload::untraced(&plan, args.seed, args.seconds, &mut outcome);
        END_TO_END
    };
    let line = outcome.render(wanted);
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{line}");
}
