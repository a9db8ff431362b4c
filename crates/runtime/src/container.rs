//! Container lifecycle management: warm pools and freeze/resume.
//!
//! The paper's key observation (§4.5): a fresh Spark context is so slow that
//! people keep it stateful, but "freezing a container after initialization
//! would make startup time negligible", enabling stateless commands over
//! ephemeral containers. [`ContainerManager`] implements that: containers
//! are keyed by their [`EnvSpec`]; on release they are frozen (or kept warm),
//! and the next acquisition resumes instead of cold-starting.

use crate::clock::SimClock;
use crate::packages::{EnvSpec, PackageCache, PackageUniverse};
use crate::startup::{StartupBreakdown, StartupModel};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Lifecycle state of a pooled (released, idle) container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Initialized and idle, memory resident.
    Warm,
    /// Checkpointed to disk; cheap to resume, near-zero memory.
    Frozen,
}

/// How releases are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Destroy on release: every acquisition is a cold start (the baseline
    /// "no pooling" configuration).
    None,
    /// Keep released containers warm in memory.
    Warm,
    /// Freeze released containers (paper's choice).
    Freeze,
}

/// What kind of start an acquisition performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupKind {
    Cold,
    Warm,
    Resume,
}

/// A handle to an acquired container.
#[derive(Debug)]
pub struct Container {
    pub id: u64,
    pub env: EnvSpec,
    /// Startup latency paid for this acquisition.
    pub startup: StartupBreakdown,
    pub kind: StartupKind,
}

struct Pooled {
    id: u64,
    state: ContainerState,
}

/// Manages container acquisition/release against the startup model.
pub struct ContainerManager {
    model: StartupModel,
    policy: PoolPolicy,
    clock: SimClock,
    universe: PackageUniverse,
    inner: Mutex<ManagerInner>,
}

struct ManagerInner {
    cache: PackageCache,
    /// Released containers per environment, oldest first. An environment
    /// has an entry from its first start on: its image is local.
    pool: HashMap<EnvSpec, Vec<Pooled>>,
    next_id: u64,
    cold_starts: u64,
    warm_starts: u64,
    resumes: u64,
}

impl ContainerManager {
    pub fn new(
        model: StartupModel,
        policy: PoolPolicy,
        universe: PackageUniverse,
        cache: PackageCache,
        clock: SimClock,
    ) -> ContainerManager {
        ContainerManager {
            model,
            policy,
            clock,
            universe,
            inner: Mutex::new(ManagerInner {
                cache,
                pool: HashMap::new(),
                next_id: 0,
                cold_starts: 0,
                warm_starts: 0,
                resumes: 0,
            }),
        }
    }

    /// The package universe environments are resolved against.
    pub fn universe(&self) -> &PackageUniverse {
        &self.universe
    }

    /// Acquire a container for `env`, charging simulated startup latency:
    /// the oldest pooled container of the same environment if there is one,
    /// else a fresh start.
    pub fn acquire(&self, env: &EnvSpec) -> Container {
        let mut inner = self.inner.lock();
        let pooled = match inner.pool.get_mut(env) {
            Some(list) if !list.is_empty() => list.remove(0),
            _ => return self.fresh_start(&mut inner, env),
        };
        let (startup, kind) = match pooled.state {
            ContainerState::Warm => {
                inner.warm_starts += 1;
                // Already initialized and resident: only handler dispatch
                // cost.
                let startup = StartupBreakdown {
                    handler_init: self.model.handler_init,
                    ..Default::default()
                };
                (startup, StartupKind::Warm)
            }
            ContainerState::Frozen => {
                inner.resumes += 1;
                (self.model.frozen_resume(), StartupKind::Resume)
            }
        };
        self.start(pooled.id, env, startup, kind)
    }

    /// Acquire a **stateless** container: never reuses a pooled (warm or
    /// frozen) instance — the paper's "first Bauplan version" mapped each
    /// DAG node to a stateless serverless function (§4.4.2), paying the
    /// normal startup path on every invocation. The image cache still
    /// applies, so repeat invocations take the ~300 ms warm path rather
    /// than a full cold start.
    pub fn acquire_stateless(&self, env: &EnvSpec) -> Container {
        let mut inner = self.inner.lock();
        self.fresh_start(&mut inner, env)
    }

    /// Start a brand-new container. First-ever start of an env pays the
    /// cold path; with a warm image cache (any prior start), later new
    /// containers take the warm path (pre-pulled image, pre-built sandbox
    /// pool).
    fn fresh_start(&self, inner: &mut ManagerInner, env: &EnvSpec) -> Container {
        let first_of_env = !inner.pool.contains_key(env);
        let (hits_before, misses_before) = (inner.cache.hits(), inner.cache.misses());
        let (startup, kind) = if first_of_env {
            inner.cold_starts += 1;
            let startup = self.model.cold_start(env, &self.universe, &mut inner.cache);
            (startup, StartupKind::Cold)
        } else {
            inner.warm_starts += 1;
            let startup = self.model.warm_start(env, &self.universe, &mut inner.cache);
            (startup, StartupKind::Warm)
        };
        let registry = lakehouse_obs::global();
        registry
            .counter("runtime.package_cache_hits")
            .add(inner.cache.hits() - hits_before);
        registry
            .counter("runtime.package_cache_misses")
            .add(inner.cache.misses() - misses_before);
        inner.pool.entry(env.clone()).or_default();
        inner.next_id += 1;
        self.start(inner.next_id, env, startup, kind)
    }

    /// Charge one start on the clock inside its own `container.start` span,
    /// opened first so the span's simulated duration is the start-up, and
    /// publish it to the metrics registry.
    fn start(
        &self,
        id: u64,
        env: &EnvSpec,
        startup: StartupBreakdown,
        kind: StartupKind,
    ) -> Container {
        let span = lakehouse_obs::span("container.start");
        self.clock.advance(startup.total());
        let registry = lakehouse_obs::global();
        let counter = match kind {
            StartupKind::Cold => "runtime.cold_starts",
            StartupKind::Warm => "runtime.warm_starts",
            StartupKind::Resume => "runtime.resumes",
        };
        registry.counter(counter).inc();
        registry
            .histogram("runtime.startup_nanos")
            .record(startup.total().as_nanos() as u64);
        if span.is_recording() {
            span.attr("env", env.interpreter.as_str());
            span.attr("kind", format!("{kind:?}"));
            for (component, d) in startup.components() {
                span.attr(&format!("{component}_nanos"), d.as_nanos() as u64);
            }
        }
        Container {
            id,
            env: env.clone(),
            startup,
            kind,
        }
    }

    /// Release a container back to the pool per the policy.
    pub fn release(&self, container: Container) {
        let state = match self.policy {
            PoolPolicy::None => return, // destroyed
            PoolPolicy::Warm => ContainerState::Warm,
            PoolPolicy::Freeze => ContainerState::Frozen,
        };
        // Freezing costs a checkpoint write; warm keep is free.
        if state == ContainerState::Frozen {
            let span = lakehouse_obs::span("container.freeze");
            span.attr("container_id", container.id);
            self.clock.advance(Duration::from_millis(25));
            lakehouse_obs::global().counter("runtime.freezes").inc();
        }
        self.inner
            .lock()
            .pool
            .entry(container.env)
            .or_default()
            .push(Pooled {
                id: container.id,
                state,
            });
    }

    /// (cold, warm, resume) start counters.
    pub fn start_counts(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock();
        (inner.cold_starts, inner.warm_starts, inner.resumes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(policy: PoolPolicy) -> ContainerManager {
        manager_on(policy, SimClock::new())
    }

    fn manager_on(policy: PoolPolicy, clock: SimClock) -> ContainerManager {
        ContainerManager::new(
            StartupModel::paper_defaults(),
            policy,
            PackageUniverse::synthetic(20, 1.1, 7),
            PackageCache::new(10 * 1024 * 1024 * 1024),
            clock,
        )
    }

    fn env() -> EnvSpec {
        EnvSpec::new("py311", vec!["pkg-00000".into()])
    }

    #[test]
    fn first_acquire_is_cold() {
        let m = manager(PoolPolicy::Freeze);
        let c = m.acquire(&env());
        assert_eq!(c.kind, StartupKind::Cold);
        assert!(c.startup.total() > Duration::from_secs(1));
    }

    #[test]
    fn freeze_then_resume_is_negligible() {
        let m = manager(PoolPolicy::Freeze);
        let c = m.acquire(&env());
        m.release(c);
        let c2 = m.acquire(&env());
        assert_eq!(c2.kind, StartupKind::Resume);
        assert!(c2.startup.total() < Duration::from_millis(50));
        let (cold, _, resumes) = m.start_counts();
        assert_eq!((cold, resumes), (1, 1));
    }

    #[test]
    fn warm_policy_reuses_without_freeze() {
        let m = manager(PoolPolicy::Warm);
        let c = m.acquire(&env());
        m.release(c);
        let c2 = m.acquire(&env());
        assert_eq!(c2.kind, StartupKind::Warm);
        assert!(c2.startup.total() < Duration::from_millis(100));
    }

    #[test]
    fn no_pooling_always_cold_or_warm_image() {
        let m = manager(PoolPolicy::None);
        let c = m.acquire(&env());
        m.release(c);
        let c2 = m.acquire(&env());
        // Image is now local, so the second start is "warm" (≈300ms), never
        // a resume.
        assert_eq!(c2.kind, StartupKind::Warm);
        assert!(c2.startup.total() >= Duration::from_millis(200));
    }

    #[test]
    fn second_container_same_env_warm_path() {
        let m = manager(PoolPolicy::Freeze);
        let _c1 = m.acquire(&env()); // held busy
        let c2 = m.acquire(&env());
        assert_eq!(c2.kind, StartupKind::Warm);
    }

    #[test]
    fn different_envs_are_isolated() {
        let m = manager(PoolPolicy::Freeze);
        let c = m.acquire(&env());
        m.release(c);
        let other = EnvSpec::new("py311", vec!["pkg-00001".into()]);
        let c2 = m.acquire(&other);
        assert_eq!(c2.kind, StartupKind::Cold);
    }

    #[test]
    fn clock_advances_with_starts() {
        let clock = SimClock::new();
        let m = manager_on(PoolPolicy::Freeze, clock.clone());
        let c = m.acquire(&env());
        let cold = c.startup.total();
        assert_eq!(clock.now(), cold);
        m.release(c);
        let resumed = m.acquire(&env());
        let freeze = Duration::from_millis(25);
        assert_eq!(clock.now(), cold + freeze + resumed.startup.total());
    }
}
