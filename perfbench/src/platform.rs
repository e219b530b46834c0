//! The platforms a workload runs on — an in-process `SocketFabric` fleet
//! (shm tier on or off) or a `SimFabric` — plus thread placement and the
//! panic-to-failure plumbing every phase shares.

use crate::probe::Probe;
use caf_fabric::socket::testing::fleet;
use caf_fabric::socket::Transport;
use caf_fabric::{ArcFabric, SimConfig, SimFabric, SocketConfig, SocketFabric};
use caf_runtime::{run_hosted, run_on_fabric, CollectiveConfig, ImageCtx};
use caf_topology::{presets, CostParams, ImageMap, Placement, ProcId, SoftwareOverheads};
use caf_trace::Tracer;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Images per real fleet: one per core of the 2-core reference host, one
/// per process, so every image has a node (and a core) of its own.
pub const FLEET_IMAGES: usize = 2;

/// Upper bound on any one fleet wait or remote operation. A healthy fleet
/// finishes each in microseconds; a fleet stuck this long is hung, and the
/// timeout turns the hang into a counted failure with a message.
pub const FLEET_TIMEOUT: Duration = Duration::from_secs(5);

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// 1024 CPUs' worth of affinity mask.
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, in ascending order.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// The CPUs this process may run on (unknown off Linux).
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pin the calling thread to `cpu`.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    if cpu >= MASK_WORDS * 64 {
        return Err(format!("cpu {cpu} is beyond the affinity mask"));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pinning is Linux-only.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    Err(format!(
        "cannot pin to cpu {cpu}: no sched_setaffinity here"
    ))
}

/// One core per fleet image, or an error naming the shortfall: the fleets
/// never oversubscribe, because two image threads sharing a core measure
/// the scheduler rather than the runtime.
pub fn placement(images: usize) -> Result<Arc<Vec<usize>>, String> {
    let cpus = allowed_cpus();
    if cpus.len() < images {
        return Err(format!(
            "refusing to run: {images} fleet images need {images} cores, but this process may use {} ({cpus:?})",
            cpus.len()
        ));
    }
    Ok(Arc::new(cpus[..images].to_vec()))
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Which platform a phase runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Socket fleet with the shared-memory tier on.
    ShmFleet,
    /// Socket fleet over TCP loopback only.
    WireFleet,
    /// `SimFabric` twin of the fleet's shape (2 images on 2 nodes).
    FleetTwin,
    /// `SimFabric` at the paper's 64(8) point on the whale model.
    Paper64x8,
}

impl Kind {
    pub fn is_fleet(self) -> bool {
        matches!(self, Kind::ShmFleet | Kind::WireFleet)
    }

    /// The image placement of this platform.
    pub fn map(self) -> ImageMap {
        match self {
            Kind::ShmFleet | Kind::WireFleet | Kind::FleetTwin => ImageMap::new(
                presets::mini(FLEET_IMAGES, 1),
                FLEET_IMAGES,
                &Placement::Packed,
            ),
            Kind::Paper64x8 => {
                ImageMap::new(presets::whale(), 64, &Placement::Block { per_node: 8 })
            }
        }
    }
}

/// A platform brought up and ready to run SPMD bodies.
pub enum Platform {
    Fleet(Vec<Arc<SocketFabric>>),
    Sim(Arc<SimFabric>),
}

impl Platform {
    /// Bring `kind` up. `traced` switches the fabric's tracer on.
    pub fn up(kind: Kind, traced: bool) -> Platform {
        let map = kind.map();
        let tracer = if traced {
            Tracer::for_images(map.n_images())
        } else {
            Tracer::off()
        };
        match kind {
            Kind::ShmFleet | Kind::WireFleet => {
                let cfg = SocketConfig {
                    tracer,
                    transport: Transport::Tcp,
                    shm: kind == Kind::ShmFleet,
                    io_timeout: FLEET_TIMEOUT,
                    flag_wait_timeout: FLEET_TIMEOUT,
                    ..SocketConfig::default()
                };
                Platform::Fleet(fleet(&map, &cfg))
            }
            Kind::FleetTwin => Platform::Sim(SimFabric::new(
                map,
                SimConfig {
                    cost: CostParams::default(),
                    overheads: SoftwareOverheads::NONE,
                    tracer,
                    chaos: None,
                    legacy_queue: false,
                    bootstrap_slots: None,
                },
            )),
            Kind::Paper64x8 => Platform::Sim(SimFabric::new(
                map,
                SimConfig {
                    cost: presets::whale_cost(),
                    overheads: presets::stacks::UHCAF,
                    tracer,
                    chaos: None,
                    legacy_queue: false,
                    bootstrap_slots: None,
                },
            )),
        }
    }

    /// The fabrics, one per process (a single one for the simulator).
    pub fn fabrics(&self) -> Vec<ArcFabric> {
        match self {
            Platform::Fleet(fs) => fs.iter().map(|f| f.clone() as ArcFabric).collect(),
            Platform::Sim(s) => vec![s.clone() as ArcFabric],
        }
    }

    /// Summed operation counters of every fabric.
    pub fn stats(&self) -> caf_fabric::StatsSnapshot {
        let mut total = caf_fabric::StatsSnapshot::default();
        for f in self.fabrics() {
            add_stats(&mut total, &f.stats().snapshot());
        }
        total
    }

    /// Run `body` on every image with the default (hierarchy-aware)
    /// collectives, through `probe`'s timing wrapper when given. Results
    /// come back in image order; any image panic — including a fleet wait
    /// timing out — poisons every fabric and returns as `Err` with its
    /// message.
    pub fn run<R, B>(&self, probe: Option<&Arc<Probe>>, body: B) -> Result<Vec<R>, String>
    where
        R: Send + 'static,
        B: Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
    {
        let wrap = |f: ArcFabric| match probe {
            Some(p) => p.wrap(f),
            None => f,
        };
        let cfg = CollectiveConfig::default();
        match self {
            Platform::Sim(s) => {
                let fabric = wrap(s.clone() as ArcFabric);
                catch_unwind(AssertUnwindSafe(|| run_on_fabric(fabric, cfg, body)))
                    .map_err(|p| panic_message(p.as_ref()))
            }
            Platform::Fleet(fs) => {
                let body = Arc::new(body);
                let all: Vec<ArcFabric> = fs.iter().map(|f| f.clone() as ArcFabric).collect();
                let mut out: Vec<(ProcId, R)> = Vec::new();
                let mut first_err = None;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = fs
                        .iter()
                        .map(|f| {
                            let hosted = f.hosted().to_vec();
                            let fabric = wrap(f.clone() as ArcFabric);
                            let body = Arc::clone(&body);
                            let all = &all;
                            scope.spawn(move || {
                                let run = catch_unwind(AssertUnwindSafe(|| {
                                    run_hosted(fabric, &hosted, cfg, move |img: &mut ImageCtx| {
                                        body(img)
                                    })
                                }));
                                run.map_err(|p| {
                                    let msg = panic_message(p.as_ref());
                                    for f in all {
                                        f.poison(&msg);
                                    }
                                    msg
                                })
                            })
                        })
                        .collect();
                    for h in handles {
                        match h.join().expect("fleet process thread") {
                            Ok(rs) => out.extend(rs),
                            Err(msg) => {
                                first_err.get_or_insert(msg);
                            }
                        }
                    }
                });
                if let Some(msg) = first_err {
                    return Err(msg);
                }
                out.sort_by_key(|(p, _)| p.index());
                Ok(out.into_iter().map(|(_, r)| r).collect())
            }
        }
    }

    /// Tear the platform down, joining every service thread.
    pub fn down(self) {
        if let Platform::Fleet(fs) = self {
            for f in &fs {
                f.shutdown();
            }
        }
    }
}

/// Add the counters of `s` into `total` (queue high-water marks take the
/// larger).
pub fn add_stats(total: &mut caf_fabric::StatsSnapshot, s: &caf_fabric::StatsSnapshot) {
    total.puts_intra += s.puts_intra;
    total.puts_inter += s.puts_inter;
    total.gets_intra += s.gets_intra;
    total.gets_inter += s.gets_inter;
    total.flags_intra += s.flags_intra;
    total.flags_inter += s.flags_inter;
    total.flag_waits += s.flag_waits;
    total.amos += s.amos;
    total.bytes_intra += s.bytes_intra;
    total.bytes_inter += s.bytes_inter;
    total.puts_nb_injected += s.puts_nb_injected;
    total.puts_nb_completed += s.puts_nb_completed;
    total.wire_frames_tx += s.wire_frames_tx;
    total.wire_frames_rx += s.wire_frames_rx;
    total.wire_bytes_tx += s.wire_bytes_tx;
    total.wire_bytes_rx += s.wire_bytes_rx;
    total.wire_retries += s.wire_retries;
    total.wire_reconnects += s.wire_reconnects;
    total.sim_events_pushed += s.sim_events_pushed;
    total.sim_events_popped += s.sim_events_popped;
    total.sim_queue_hwm = total.sim_queue_hwm.max(s.sim_queue_hwm);
    total.sim_wakeups += s.sim_wakeups;
    total.sim_commits += s.sim_commits;
    total.ams_injected += s.ams_injected;
    total.am_batches_flushed += s.am_batches_flushed;
    total.am_payload_bytes += s.am_payload_bytes;
    total.am_fused += s.am_fused;
    total.shm_puts += s.shm_puts;
    total.shm_bytes += s.shm_bytes;
    total.shm_flag_ops += s.shm_flag_ops;
}

/// The deterministic operation counts of a snapshot: everything but the
/// wire and timing-driven fields (heartbeat frames, retries), which follow
/// the clock rather than the program.
pub fn op_counts(s: &caf_fabric::StatsSnapshot) -> [(&'static str, u64); 16] {
    [
        ("puts_intra", s.puts_intra),
        ("puts_inter", s.puts_inter),
        ("gets_intra", s.gets_intra),
        ("gets_inter", s.gets_inter),
        ("flags_intra", s.flags_intra),
        ("flags_inter", s.flags_inter),
        ("flag_waits", s.flag_waits),
        ("amos", s.amos),
        ("bytes_intra", s.bytes_intra),
        ("bytes_inter", s.bytes_inter),
        ("puts_nb_injected", s.puts_nb_injected),
        ("shm_puts", s.shm_puts),
        ("shm_bytes", s.shm_bytes),
        ("shm_flag_ops", s.shm_flag_ops),
        ("sim_events_pushed", s.sim_events_pushed),
        ("sim_events_popped", s.sim_events_popped),
    ]
}
