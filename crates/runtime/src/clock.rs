//! A virtual clock: simulated time advances only when charged, so latency
//! experiments are deterministic and run at full host speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shareable simulated clock: one atomic nanosecond counter. Cloning
/// shares the underlying time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time since clock start.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_shares() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance(Duration::from_millis(100));
        c2.advance(Duration::from_millis(50));
        assert_eq!(c.now(), Duration::from_millis(150));
        assert_eq!(c2.now(), c.now());
    }
}
