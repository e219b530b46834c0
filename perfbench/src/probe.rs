//! The traced run's view into the `Fabric` layer: a wrapper that delegates
//! every trait method — the defaulted ones included, so the wrapped fabric
//! takes exactly the code paths it takes unwrapped — and times each
//! communication call per image.

use caf_fabric::{
    AmOp, ArcFabric, Fabric, FabricStats, FlagId, NodeTelemetry, PutToken, RecoveryError,
    SegmentId, TelemetryPhase, Tracer,
};
use caf_topology::{CostParams, ImageMap, ProcId, SoftwareOverheads};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The timed kinds of fabric call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put,
    PutNb,
    PutWait,
    Get,
    Amo,
    FlagAdd,
    FlagWait,
    Quiet,
    AmDeliver,
}

const N_OPS: usize = 9;

impl Op {
    /// Calls that block until another image (or the wire) acts.
    fn is_wait(self) -> bool {
        matches!(self, Op::FlagWait | Op::Quiet | Op::PutWait)
    }
}

/// One image's record of the calls it made through the wrapper.
#[derive(Debug, Default)]
pub struct ImageRec {
    /// Communication calls made (the timed kinds above).
    pub calls: u64,
    /// Per-kind call durations, ns.
    pub lat_ns: [Vec<u64>; N_OPS],
    /// Time spent in non-wait calls, ns.
    pub busy_ns: u64,
    /// Time spent in waits, ns.
    pub wait_ns: u64,
}

impl ImageRec {
    pub fn lat(&self, op: Op) -> &[u64] {
        &self.lat_ns[op as usize]
    }
}

/// Per-image call records shared by every wrapped fabric of a platform.
pub struct Probe {
    images: Vec<Mutex<ImageRec>>,
}

impl Probe {
    pub fn new(n_images: usize) -> Arc<Probe> {
        Arc::new(Probe {
            images: (0..n_images).map(|_| Mutex::default()).collect(),
        })
    }

    /// `inner` behind the timing wrapper.
    pub fn wrap(self: &Arc<Self>, inner: ArcFabric) -> ArcFabric {
        Arc::new(Probed {
            inner,
            probe: Arc::clone(self),
        })
    }

    /// Communication calls image `image0` has made so far.
    pub fn calls(&self, image0: usize) -> u64 {
        self.images[image0].lock().expect("probe record").calls
    }

    /// Take every image's record, leaving empty ones behind.
    pub fn take(&self) -> Vec<ImageRec> {
        self.images
            .iter()
            .map(|m| std::mem::take(&mut *m.lock().expect("probe record")))
            .collect()
    }

    fn record(&self, me: ProcId, op: Op, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let mut rec = self.images[me.index()].lock().expect("probe record");
        rec.calls += 1;
        rec.lat_ns[op as usize].push(ns);
        if op.is_wait() {
            rec.wait_ns += ns;
        } else {
            rec.busy_ns += ns;
        }
    }
}

struct Probed {
    inner: ArcFabric,
    probe: Arc<Probe>,
}

impl Probed {
    fn timed<R>(&self, me: ProcId, op: Op, f: impl FnOnce(&dyn Fabric) -> R) -> R {
        let start = Instant::now();
        let r = f(&*self.inner);
        self.probe.record(me, op, start);
        r
    }
}

impl Fabric for Probed {
    fn n_images(&self) -> usize {
        self.inner.n_images()
    }

    fn image_map(&self) -> &ImageMap {
        self.inner.image_map()
    }

    fn cost(&self) -> &CostParams {
        self.inner.cost()
    }

    fn overheads(&self) -> &SoftwareOverheads {
        self.inner.overheads()
    }

    fn stats(&self) -> &FabricStats {
        self.inner.stats()
    }

    fn tracer(&self) -> &Tracer {
        self.inner.tracer()
    }

    fn process_telemetry(
        &self,
        phase: TelemetryPhase,
        cause: Option<&str>,
    ) -> Option<NodeTelemetry> {
        self.inner.process_telemetry(phase, cause)
    }

    fn alloc_segment(&self, me: ProcId, bytes: usize) -> SegmentId {
        self.inner.alloc_segment(me, bytes)
    }

    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        self.inner.alloc_flags(me, count)
    }

    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        self.timed(me, Op::Put, |f| f.put(me, dst, seg, offset, bytes))
    }

    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        self.timed(me, Op::PutNb, |f| f.put_nb(me, dst, seg, offset, bytes))
    }

    fn put_test(&self, me: ProcId, token: PutToken) -> bool {
        self.inner.put_test(me, token)
    }

    fn put_wait(&self, me: ProcId, token: PutToken) {
        self.timed(me, Op::PutWait, |f| f.put_wait(me, token))
    }

    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        self.timed(me, Op::Get, |f| f.get(me, src, seg, offset, out))
    }

    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64 {
        self.timed(me, Op::Amo, |f| {
            f.amo_fetch_add_u64(me, target, seg, offset, delta)
        })
    }

    fn amo_cas_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        expected: u64,
        new: u64,
    ) -> u64 {
        self.timed(me, Op::Amo, |f| {
            f.amo_cas_u64(me, target, seg, offset, expected, new)
        })
    }

    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        self.timed(me, Op::FlagAdd, |f| f.flag_add(me, target, flag, delta))
    }

    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        self.timed(me, Op::FlagWait, |f| f.flag_wait_ge(me, flag, at_least))
    }

    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64 {
        self.inner.flag_read(me, flag)
    }

    fn am_deliver(&self, me: ProcId, dst: ProcId, ops: &[AmOp]) {
        self.timed(me, Op::AmDeliver, |f| f.am_deliver(me, dst, ops))
    }

    fn quiet(&self, me: ProcId) {
        self.timed(me, Op::Quiet, |f| f.quiet(me))
    }

    fn compute(&self, me: ProcId, ns: u64) {
        self.inner.compute(me, ns)
    }

    fn now_ns(&self, me: ProcId) -> u64 {
        self.inner.now_ns(me)
    }

    fn image_done(&self, me: ProcId) {
        self.inner.image_done(me)
    }

    fn poison(&self, msg: &str) {
        self.inner.poison(msg)
    }

    fn health(&self) -> Result<(), RecoveryError> {
        self.inner.health()
    }

    fn alive_images(&self) -> Vec<ProcId> {
        self.inner.alive_images()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn heal(&self, me: ProcId) -> Result<(), RecoveryError> {
        self.inner.heal(me)
    }
}
