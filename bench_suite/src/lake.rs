//! Building a seeded lakehouse on each of the three backends, with or
//! without the tracing wrapper under the façade.

use crate::data::{self, register_expectation};
use crate::trace::{Tracer, TracingStore};
use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_columnar::RecordBatch;
use lakehouse_store::{
    InMemoryStore, LatencyModel, LocalFsStore, ObjectStore, SimulatedStore, SleepMode, StoreMetrics,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Share of each modelled S3 delay the `query_mix_s3` store really sleeps.
pub const S3_SLEEP_SCALE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// In-memory objects, no sleeping: wall time is CPU.
    Memory,
    /// In-memory objects behind an S3-like latency model that blocks the
    /// caller for [`S3_SLEEP_SCALE`] of every modelled delay.
    S3Sleeping,
    /// The CLI's local-filesystem store (`LocalFsStore`, what
    /// `Lakehouse::on_disk` builds) in a fresh temporary directory.
    Disk,
}

/// A directory under `bench_suite/out/`. Dropping it only marks it for
/// removal; [`remove_temp_dirs`] deletes the marked ones when the run is
/// over. On this box's ext4 (mounted `discard`) a large delete makes the
/// next journal commit slow and stalls every file operation behind it, so
/// deletes are kept out of the timed window and paid for before exit.
pub struct TempDir(PathBuf);

static DOOMED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Delete every dropped [`TempDir`] and wait for the deletion to reach the
/// disk, so that the next run does not inherit the journal commit.
pub fn remove_temp_dirs() {
    let doomed = std::mem::take(&mut *DOOMED.lock().expect("no panic holds this lock"));
    for dir in &doomed {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(parent) = doomed.first().and_then(|d| d.parent()) {
        let _ = std::fs::File::open(parent).and_then(|f| f.sync_all());
    }
}

impl TempDir {
    pub fn new(out_dir: &Path) -> std::io::Result<TempDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        DOOMED
            .lock()
            .expect("no panic holds this lock")
            .push(std::mem::take(&mut self.0));
    }
}

pub struct Lake {
    pub lh: Lakehouse,
    /// The objects themselves, under any sleeping or tracing wrapper.
    base: Arc<dyn ObjectStore>,
    /// The handle below the façade: what the unrolled replay reads through,
    /// traced when the façade is.
    pub store: Arc<dyn ObjectStore>,
    /// Where modelled store time accumulates: the façade's own metrics, or
    /// the bench-owned sleeping store's.
    sim: Arc<StoreMetrics>,
    dir: Option<TempDir>,
}

impl Lake {
    /// Build a lake on `backend` holding `taxi` and the zone dimension.
    /// With a tracer, every store call the façade makes after seeding is
    /// recorded. `out_dir` is where the disk backend puts its directory.
    pub fn build(
        backend: Backend,
        tracer: Option<&Arc<Tracer>>,
        taxi: &RecordBatch,
        out_dir: &Path,
    ) -> bauplan_core::Result<Lake> {
        let mut dir = None;
        let base: Arc<dyn ObjectStore> = match backend {
            Backend::Disk => {
                let tmp = TempDir::new(out_dir).map_err(lakehouse_store::StoreError::from)?;
                let fs = LocalFsStore::new(tmp.path())?;
                dir = Some(tmp);
                Arc::new(fs)
            }
            _ => Arc::new(InMemoryStore::new()),
        };
        // Seed through a plain front over the same objects, so seeding
        // neither sleeps nor floods the span log.
        let config = || match backend {
            Backend::S3Sleeping => LakehouseConfig::zero_latency(),
            _ => LakehouseConfig::default(),
        };
        data::seed_lake(&Lakehouse::with_store(Arc::clone(&base), config())?, taxi)?;

        let mut below: Arc<dyn ObjectStore> = Arc::clone(&base);
        let mut sim = None;
        if backend == Backend::S3Sleeping {
            let sleeping = SimulatedStore::new(below, LatencyModel::s3_like())
                .with_sleep_mode(SleepMode::Scaled(S3_SLEEP_SCALE));
            sim = sleeping.store_metrics();
            below = Arc::new(sleeping);
        }
        if let Some(tracer) = tracer {
            below = Arc::new(TracingStore::new(below, Arc::clone(tracer)));
        }
        let lh = Lakehouse::with_store(Arc::clone(&below), config())?;
        register_expectation(&lh);
        Ok(Lake {
            sim: sim.unwrap_or_else(|| lh.store_metrics()),
            lh,
            base,
            store: below,
            dir,
        })
    }

    /// A second front over the same objects for the layer probes: traced,
    /// never sleeping, default configuration, nothing run on it yet (so its
    /// first pipeline run is cold). Probes report self time, so they need no
    /// store that waits, and a fresh front keeps them apart from whatever
    /// the workload did to its own.
    pub fn probe_front(
        &self,
        tracer: &Arc<Tracer>,
    ) -> bauplan_core::Result<(Lakehouse, Arc<dyn ObjectStore>)> {
        let store: Arc<dyn ObjectStore> = Arc::new(TracingStore::new(
            Arc::clone(&self.base),
            Arc::clone(tracer),
        ));
        let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::default())?;
        register_expectation(&lh);
        Ok((lh, store))
    }

    /// Modelled store time charged so far (a serial sum: overlapping
    /// requests get no credit).
    pub fn sim_time(&self) -> Duration {
        self.sim.simulated_time()
    }

    /// Bytes the lake occupies in its store.
    pub fn stored_bytes(&self) -> u64 {
        match &self.dir {
            Some(dir) => dir_bytes(dir.path()),
            None => self
                .base
                .list("")
                .unwrap_or_default()
                .iter()
                .filter_map(|p| self.base.head(p).ok())
                .map(|n| n as u64)
                .sum(),
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
