//! The runtime façade: synchronous invocations and asynchronous runs.
//!
//! Synchronous invocation (paper Table 1, QW + TD-dev) charges startup +
//! data costs on the virtual clock and runs the function inline; asynchronous
//! runs (TD-prod, orchestrator-driven) execute on a worker thread and report
//! completion through a channel.

use crate::clock::SimClock;
use crate::container::{ContainerManager, PoolPolicy, StartupKind};
use crate::error::{Result, RuntimeError};
use crate::memory::{MemoryGrant, MemoryManager};
use crate::packages::{EnvSpec, PackageCache, PackageUniverse};
use crate::startup::{StartupBreakdown, StartupModel};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    pub memory_capacity: u64,
    pub pool_policy: PoolPolicy,
    pub package_universe_size: usize,
    pub package_zipf_exponent: f64,
    pub package_cache_bytes: u64,
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            memory_capacity: 32 * 1024 * 1024 * 1024, // 32 GB worker
            pool_policy: PoolPolicy::Freeze,
            package_universe_size: 2_000,
            package_zipf_exponent: 1.1,
            package_cache_bytes: 20 * 1024 * 1024 * 1024,
            seed: 42,
        }
    }
}

/// Result of one synchronous invocation.
#[derive(Debug)]
pub struct Invocation<T> {
    pub output: T,
    pub startup: StartupBreakdown,
    pub startup_kind: StartupKind,
    /// Simulated time charged during the invocation (startup + whatever the
    /// function itself charged on the clock).
    pub simulated: Duration,
    /// Memory granted for the invocation.
    pub memory_bytes: u64,
}

/// The serverless runtime: container manager + memory manager + clock.
pub struct Runtime {
    containers: Arc<ContainerManager>,
    memory: MemoryManager,
    clock: SimClock,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Runtime {
        let clock = SimClock::new();
        let universe = PackageUniverse::synthetic(
            config.package_universe_size,
            config.package_zipf_exponent,
            config.seed,
        );
        let cache = PackageCache::new(config.package_cache_bytes);
        let containers = Arc::new(ContainerManager::new(
            StartupModel::paper_defaults(),
            config.pool_policy,
            universe,
            cache,
            clock.clone(),
        ));
        Runtime {
            containers,
            memory: MemoryManager::new(config.memory_capacity),
            clock,
        }
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    pub fn containers(&self) -> &ContainerManager {
        &self.containers
    }

    /// Synchronously invoke `f` in a container for `env` with `memory_bytes`
    /// granted. The function may charge additional simulated time on the
    /// clock it receives.
    pub fn invoke<T>(
        &self,
        env: &EnvSpec,
        memory_bytes: u64,
        f: impl FnOnce(&SimClock, &MemoryGrant) -> Result<T>,
    ) -> Result<Invocation<T>> {
        self.invoke_inner(env, memory_bytes, f, false)
    }

    /// Like [`Runtime::invoke`] but through a **stateless** container — no
    /// warm/frozen reuse, the baseline serverless pattern the paper's first
    /// version used (one function per DAG node, §4.4.2).
    pub fn invoke_stateless<T>(
        &self,
        env: &EnvSpec,
        memory_bytes: u64,
        f: impl FnOnce(&SimClock, &MemoryGrant) -> Result<T>,
    ) -> Result<Invocation<T>> {
        self.invoke_inner(env, memory_bytes, f, true)
    }

    fn invoke_inner<T>(
        &self,
        env: &EnvSpec,
        memory_bytes: u64,
        f: impl FnOnce(&SimClock, &MemoryGrant) -> Result<T>,
        stateless: bool,
    ) -> Result<Invocation<T>> {
        let span = lakehouse_obs::span("runtime.invoke");
        // Cooperative cancellation point: a killed query never allocates a
        // grant or acquires a container for the next function.
        if let Err(reason) = lakehouse_obs::check_current() {
            return Err(RuntimeError::QueryKilled { reason });
        }
        let grant = self.memory.allocate(memory_bytes)?;
        let start = self.clock.now();
        let container = if stateless {
            self.containers.acquire_stateless(env)
        } else {
            self.containers.acquire(env)
        };
        let startup = container.startup.clone();
        let startup_kind = container.kind;
        let output = match f(&self.clock, &grant) {
            Ok(v) => v,
            Err(e) => {
                // Failed functions still release their container (stateless
                // ones are simply dropped).
                if !stateless {
                    self.containers.release(container);
                }
                return Err(e);
            }
        };
        if !stateless {
            self.containers.release(container);
        }
        if span.is_recording() {
            span.attr("env", env.interpreter.as_str());
            span.attr("start_kind", format!("{startup_kind:?}"));
            span.attr("memory_bytes", memory_bytes);
        }
        Ok(Invocation {
            output,
            startup,
            startup_kind,
            simulated: self.clock.now() - start,
            memory_bytes,
        })
    }

    /// Spawn an asynchronous run on a worker thread. The closure receives
    /// the shared clock; completion (or failure) is delivered through the
    /// returned handle.
    pub fn spawn_async<T: Send + 'static>(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&SimClock) -> Result<T> + Send + 'static,
    ) -> AsyncRunHandle<T> {
        let name = name.into();
        let clock = self.clock.clone();
        let (tx, rx) = sync_channel(1);
        let thread_name = name.clone();
        let join = std::thread::Builder::new()
            .name(format!("bauplan-run-{name}"))
            .spawn(move || {
                let result = f(&clock);
                // Receiver may have been dropped (fire-and-forget); ignore.
                let _ = tx.send(result);
            })
            .unwrap_or_else(|e| panic!("failed to spawn worker {thread_name}: {e}"));
        AsyncRunHandle {
            name,
            rx,
            join: Some(join),
        }
    }
}

/// Handle to an asynchronous run.
pub struct AsyncRunHandle<T> {
    name: String,
    rx: Receiver<Result<T>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl<T> AsyncRunHandle<T> {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Non-blocking status check: `None` while still running.
    pub fn poll(&self) -> Option<bool> {
        match self.rx.try_recv() {
            Ok(r) => Some(r.is_ok()),
            Err(_) => None,
        }
    }

    /// Block until the run completes and return its result.
    pub fn wait(mut self) -> Result<T> {
        let result = self
            .rx
            .recv()
            .map_err(|_| RuntimeError::WorkerLost(self.name.clone()))?;
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig::default())
    }

    fn env() -> EnvSpec {
        EnvSpec::new("py311", vec!["pkg-00000".into()])
    }

    #[test]
    fn invoke_charges_startup_and_runs() {
        let rt = runtime();
        let inv = rt
            .invoke(&env(), 1 << 30, |clock, _mem| {
                clock.advance(Duration::from_millis(42));
                Ok(7)
            })
            .unwrap();
        assert_eq!(inv.output, 7);
        assert_eq!(inv.startup_kind, StartupKind::Cold);
        assert!(inv.simulated >= inv.startup.total() + Duration::from_millis(42));
    }

    #[test]
    fn second_invoke_resumes() {
        let rt = runtime();
        rt.invoke(&env(), 1 << 20, |_, _| Ok(())).unwrap();
        let inv = rt.invoke(&env(), 1 << 20, |_, _| Ok(())).unwrap();
        assert_eq!(inv.startup_kind, StartupKind::Resume);
        assert!(inv.startup.total() < Duration::from_millis(50));
    }

    #[test]
    fn memory_released_after_invoke() {
        let rt = runtime();
        rt.invoke(&env(), 1 << 30, |_, mem| {
            assert_eq!(mem.bytes(), 1 << 30);
            Ok(())
        })
        .unwrap();
        assert_eq!(rt.memory().in_use(), 0);
        assert_eq!(rt.memory().peak(), 1 << 30);
    }

    #[test]
    fn memory_rejection_propagates() {
        let rt = Runtime::new(RuntimeConfig {
            memory_capacity: 100,
            ..Default::default()
        });
        assert!(rt.invoke(&env(), 1000, |_, _| Ok(())).is_err());
    }

    #[test]
    fn function_failure_surfaces_and_cleans_up() {
        let rt = runtime();
        let r = rt
            .invoke(&env(), 1 << 20, |_, _| -> Result<()> {
                Err(RuntimeError::FunctionFailed {
                    function: "bad".into(),
                    message: "boom".into(),
                })
            })
            .map(|_| ());
        assert!(r.is_err());
        assert_eq!(rt.memory().in_use(), 0);
        // Container was still released: next invoke resumes.
        let inv = rt.invoke(&env(), 1 << 20, |_, _| Ok(())).unwrap();
        assert_eq!(inv.startup_kind, StartupKind::Resume);
    }

    #[test]
    fn async_run_completes() {
        let rt = runtime();
        let handle = rt.spawn_async("test-run", |clock| {
            clock.advance(Duration::from_millis(10));
            Ok(123)
        });
        assert_eq!(handle.wait().unwrap(), 123);
    }

    #[test]
    fn async_run_failure_reported() {
        let rt = runtime();
        let handle = rt.spawn_async("failing", |_| -> Result<()> {
            Err(RuntimeError::FunctionFailed {
                function: "x".into(),
                message: "nope".into(),
            })
        });
        assert!(handle.wait().is_err());
    }

    #[test]
    fn async_poll_eventually_some() {
        let rt = runtime();
        let handle = rt.spawn_async("poller", |_| Ok(1));
        let mut tries = 0;
        loop {
            if let Some(ok) = handle.poll() {
                assert!(ok);
                break;
            }
            tries += 1;
            assert!(tries < 1000, "run never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
