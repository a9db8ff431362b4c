//! # lakehouse-scheduler
//!
//! The admission gate's order: given the waiters queued at the gate and the
//! work holding its slots, which waiter runs next?
//!
//! The admission controller in `bauplan-core` owns the mutex, the condvar,
//! the slot counts, shedding and the permits; [`AdmissionOrder`] owns only
//! the decision, and there is one. Among the waiters that are *eligible*
//! (a slot is free and their tenant is under its quota) the gate admits the
//! minimum of
//!
//! 1. the tenant's **virtual time** — every admission charges its tenant
//!    `1 / weight`, and a tenant first seen mid-stream starts at the current
//!    floor rather than at zero, so it is owed no history;
//! 2. the job's **expected cost** in [`CostModel`] credits (`cost_hint`
//!    seconds, billing floor off) minus one second's credits per tick it has
//!    waited — shortest first, but a large job ages past fresh small ones;
//! 3. its **arrival tick**.
//!
//! What the queue contains selects what the key does. One tenant and no
//! hints: levels 1 and 2 tie (the older waiter has the larger discount) and
//! the order is arrival order. Hinted DAG stages of one tenant: shortest
//! expected cost first, with aging. Several saturating tenants: admissions
//! converge to the weight ratio, and cost orders each tenant's turn.
//!
//! Every blocked waiter re-evaluates [`AdmissionOrder::pick`] when it wakes
//! and only the waiter that was picked consumes the decision, so `pick`
//! takes `&self`: it cannot move state. State moves in
//! [`enqueue`](AdmissionOrder::enqueue) and [`admit`](AdmissionOrder::admit),
//! which the gate calls once per event.

pub use lakehouse_workload::CostModel;

use lakehouse_workload::QueryRecord;
use std::collections::HashMap;

/// A work item waiting at the gate. The unit is deliberately generic: a whole
/// query and a single DAG stage are both "jobs" here.
#[derive(Debug, Clone)]
pub struct WaitingJob {
    /// Gate-assigned id, unique per gate.
    pub id: u64,
    /// Tenant the job is billed to (quotas and virtual time key on this).
    pub tenant: String,
    /// Monotone arrival stamp (the gate's enqueue counter), used for the
    /// arrival-order tie-break and for aging; it is NOT wall time.
    pub enqueued_tick: u64,
    /// Expected execution cost in seconds, `0.0` when unknown. Queries pass
    /// `0.0`; DAG stages pass an estimate derived from the memory estimator.
    pub cost_hint: f64,
}

/// Read-only view of what is currently running, plus the slot limits, so the
/// order can tell which waiters are *eligible* (admissible right now).
pub struct RunningSet<'a> {
    total: usize,
    max_slots: usize,
    tenant_slots: usize,
    per_tenant: &'a HashMap<String, usize>,
}

impl<'a> RunningSet<'a> {
    pub fn new(
        total: usize,
        max_slots: usize,
        tenant_slots: usize,
        per_tenant: &'a HashMap<String, usize>,
    ) -> Self {
        RunningSet {
            total,
            max_slots,
            tenant_slots,
            per_tenant,
        }
    }

    /// Jobs currently holding a slot, across all tenants.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Jobs currently held by one tenant.
    pub fn tenant_running(&self, tenant: &str) -> usize {
        self.per_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Would a job from `tenant` be admissible right now? A global slot is
    /// free AND (no per-tenant quota, or the quota is not yet reached).
    pub fn eligible(&self, tenant: &str) -> bool {
        self.total < self.max_slots
            && (self.tenant_slots == 0 || self.tenant_running(tenant) < self.tenant_slots)
    }
}

/// The gate's order (see the crate docs for the key and what it reduces to).
#[derive(Debug)]
pub struct AdmissionOrder {
    /// `tenant -> weight`; an unlisted tenant weighs 1.0.
    weights: HashMap<String, f64>,
    /// Per-tenant virtual time: the `1 / weight` charges so far, on top of
    /// the floor the tenant joined at.
    vt: HashMap<String, f64>,
    /// Converts `cost_hint` seconds to credits. The billing floor is off:
    /// a 60 s minimum would put every interactive query in one class.
    model: CostModel,
}

impl AdmissionOrder {
    /// An order with the given `(tenant, weight)` pairs; weights that are
    /// not positive are ignored (the tenant then weighs 1.0).
    pub fn new(weights: &[(String, f64)]) -> Self {
        AdmissionOrder {
            weights: weights
                .iter()
                .filter(|(_, w)| *w > 0.0)
                .map(|(t, w)| (t.clone(), *w))
                .collect(),
            vt: HashMap::new(),
            model: CostModel {
                min_billable_seconds: 0.0,
                ..CostModel::default()
            },
        }
    }

    /// The lowest virtual time of any tenant seen so far: where a new tenant
    /// starts. Starting at zero would owe a late joiner the incumbents'
    /// whole history and hand it the gate.
    fn floor(&self) -> f64 {
        let floor = self.vt.values().copied().fold(f64::INFINITY, f64::min);
        if floor.is_finite() {
            floor
        } else {
            0.0
        }
    }

    fn virtual_time(&self, tenant: &str) -> f64 {
        self.vt.get(tenant).copied().unwrap_or_else(|| self.floor())
    }

    fn credits(&self, job: &WaitingJob) -> f64 {
        self.model.query_cost(&QueryRecord {
            seconds: job.cost_hint,
            bytes_scanned: 0,
        })
    }

    /// The sort key. Age is counted from the newest tick in the queue, not
    /// from wall time, so the same queue always yields the same order.
    fn key(&self, job: &WaitingJob, newest_tick: u64) -> (f64, f64, u64) {
        let age = newest_tick.saturating_sub(job.enqueued_tick) as f64;
        (
            self.virtual_time(&job.tenant),
            self.credits(job) - age * self.model.credits_per_second,
            job.enqueued_tick,
        )
    }

    /// The index (into `queue`) of the waiter to admit next, or `None` when
    /// no waiter is eligible.
    pub fn pick(&self, queue: &[WaitingJob], running: &RunningSet<'_>) -> Option<usize> {
        let newest = queue.iter().map(|j| j.enqueued_tick).max()?;
        queue
            .iter()
            .enumerate()
            .filter(|(_, j)| running.eligible(&j.tenant))
            .map(|(i, j)| (self.key(j, newest), i))
            .min_by(|(a, _), (b, _)| {
                (a.0.total_cmp(&b.0))
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            })
            .map(|(_, i)| i)
    }

    /// Did `queue[picked]` win on age — is there an eligible waiter at the
    /// same virtual time whose expected cost is strictly lower? The gate
    /// counts these as `scheduler.aging_promotions`: a large job that would
    /// otherwise starve behind a stream of small ones.
    pub fn aged_past_cheaper(
        &self,
        queue: &[WaitingJob],
        running: &RunningSet<'_>,
        picked: usize,
    ) -> bool {
        let winner = &queue[picked];
        let vt = self.virtual_time(&winner.tenant);
        let cost = self.credits(winner);
        queue.iter().enumerate().any(|(i, j)| {
            i != picked
                && running.eligible(&j.tenant)
                && self.virtual_time(&j.tenant) == vt
                && self.credits(j) < cost
        })
    }

    /// The tenant's virtual time, entered at the floor if the tenant is new.
    fn joined(&mut self, tenant: &str) -> &mut f64 {
        if !self.vt.contains_key(tenant) {
            let floor = self.floor();
            self.vt.insert(tenant.to_string(), floor);
        }
        self.vt.get_mut(tenant).expect("present or just inserted")
    }

    /// A job joined the queue: its tenant, if new, joins at the floor.
    pub fn enqueue(&mut self, job: &WaitingJob) {
        self.joined(&job.tenant);
    }

    /// A job was admitted, from the queue or past an empty one: charge its
    /// tenant `1 / weight`.
    pub fn admit(&mut self, job: &WaitingJob) {
        let charge = 1.0 / self.weights.get(&job.tenant).copied().unwrap_or(1.0);
        *self.joined(&job.tenant) += charge;
    }
}

#[cfg(test)]
mod testutil {
    use super::*;

    pub fn job(id: u64, tenant: &str, cost: f64) -> WaitingJob {
        WaitingJob {
            id,
            tenant: tenant.into(),
            enqueued_tick: id,
            cost_hint: cost,
        }
    }

    /// Admit from `queue` through a one-slot gate until it is empty.
    pub fn drain(order: &mut AdmissionOrder, mut queue: Vec<WaitingJob>) -> Vec<u64> {
        let per = HashMap::new();
        for j in &queue {
            order.enqueue(j);
        }
        let mut picks = Vec::new();
        while !queue.is_empty() {
            let i = order
                .pick(&queue, &RunningSet::new(0, 1, 0, &per))
                .expect("a slot is free");
            order.admit(&queue[i]);
            picks.push(queue.remove(i).id);
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_set_eligibility_mirrors_gate() {
        let mut per = HashMap::new();
        per.insert("a".to_string(), 2);
        let rs = RunningSet::new(2, 4, 2, &per);
        assert!(!rs.eligible("a"), "tenant quota reached");
        assert!(rs.eligible("b"), "other tenant has headroom");
        let full = RunningSet::new(4, 4, 2, &per);
        assert!(!full.eligible("b"), "global slots exhausted");
        let no_quota = RunningSet::new(2, 4, 0, &per);
        assert!(no_quota.eligible("a"), "tenant_slots == 0 disables quota");
    }
}

/// The key with one tenant and no hints: what the `Fifo` policy was.
#[cfg(test)]
mod fifo {
    mod tests {
        use crate::testutil::{drain, job};
        use crate::*;

        /// Without hints the order among eligible waiters is arrival order,
        /// however much virtual time the tenant is charged in between.
        #[test]
        fn picks_first_eligible_in_arrival_order() {
            let mut order = AdmissionOrder::new(&[]);
            let queue: Vec<_> = (1..=6).map(|id| job(id, "a", 0.0)).collect();
            assert_eq!(drain(&mut order, queue), vec![1, 2, 3, 4, 5, 6]);

            // A tenant at its quota is passed over, not waited for; with
            // every slot taken nobody runs.
            let mut order = AdmissionOrder::new(&[]);
            let queue = vec![job(1, "a", 0.0), job(2, "b", 0.0), job(3, "a", 0.0)];
            for j in &queue {
                order.enqueue(j);
            }
            let mut per = HashMap::new();
            assert_eq!(order.pick(&queue, &RunningSet::new(0, 2, 0, &per)), Some(0));
            per.insert("a".to_string(), 1);
            assert_eq!(order.pick(&queue, &RunningSet::new(1, 2, 1, &per)), Some(1));
            assert_eq!(order.pick(&queue, &RunningSet::new(2, 2, 1, &per)), None);
        }
    }
}

/// The key with several tenants: what the `FairShare` policy was.
#[cfg(test)]
mod fair_share {
    mod tests {
        use crate::testutil::job;
        use crate::*;

        /// Steady offered load from two tenants with weights 3:1 converges
        /// to a 3:1 admission ratio (`bauplan-core`'s admission tests
        /// re-check it through the gate, with threads).
        #[test]
        fn converges_to_weight_ratio_under_saturation() {
            let mut order = AdmissionOrder::new(&[("alpha".into(), 3.0), ("beta".into(), 1.0)]);
            let per = HashMap::new();
            let (mut alpha, mut beta) = (0usize, 0usize);
            let mut tick = 0u64;
            for _ in 0..400 {
                // Both tenants always have one waiter queued (saturation).
                tick += 2;
                let queue = vec![job(tick, "alpha", 0.0), job(tick + 1, "beta", 0.0)];
                for j in &queue {
                    order.enqueue(j);
                }
                let rs = RunningSet::new(0, 1, 0, &per);
                let idx = order.pick(&queue, &rs).expect("a slot is free");
                order.admit(&queue[idx]);
                if idx == 0 {
                    alpha += 1;
                } else {
                    beta += 1;
                }
            }
            let ratio = alpha as f64 / beta as f64;
            assert!(
                (2.55..=3.45).contains(&ratio),
                "admission ratio {ratio} outside ±15% of 3:1 (alpha={alpha}, beta={beta})"
            );
        }

        #[test]
        fn late_joining_tenant_starts_at_current_floor() {
            let mut order = AdmissionOrder::new(&[]);
            // "old" has been admitted 10 times at weight 1.
            for i in 0..10u64 {
                let j = job(i, "old", 0.0);
                order.enqueue(&j);
                order.admit(&j);
            }
            // "new" joins at the current minimum (10.0, "old" being the only
            // tenant), so it gets no 10-admission catch-up burst: the older
            // waiter of the two still goes first.
            let queue = vec![job(100, "old", 0.0), job(101, "new", 0.0)];
            for j in &queue {
                order.enqueue(j);
            }
            assert!((order.virtual_time("new") - 10.0).abs() < 1e-9);
            let per = HashMap::new();
            assert_eq!(order.pick(&queue, &RunningSet::new(0, 1, 0, &per)), Some(0));
        }

        /// Virtual time outranks arrival, and a quota outranks both.
        #[test]
        fn ineligible_tenants_are_skipped() {
            let mut order = AdmissionOrder::new(&[]);
            let queue = vec![job(1, "meek", 0.0), job(2, "hog", 0.0)];
            for j in &queue {
                order.enqueue(j);
            }
            order.admit(&job(0, "meek", 0.0));
            let mut per = HashMap::new();
            // "hog" is behind on virtual time, so it goes first …
            assert_eq!(order.pick(&queue, &RunningSet::new(0, 2, 1, &per)), Some(1));
            // … unless it is at its slot quota.
            per.insert("hog".to_string(), 1);
            assert_eq!(order.pick(&queue, &RunningSet::new(1, 2, 1, &per)), Some(0));
        }
    }
}

/// The key with cost hints: what the `CostAware` policy was.
#[cfg(test)]
mod cost_aware {
    mod tests {
        use crate::testutil::{drain, job};
        use crate::*;

        /// Hinted stages of one tenant drain shortest-expected-cost first,
        /// whatever order they arrived in.
        #[test]
        fn cheapest_job_wins_regardless_of_arrival_order() {
            let mut order = AdmissionOrder::new(&[]);
            let queue = vec![job(1, "a", 30.0), job(2, "a", 1.0), job(3, "a", 10.0)];
            assert_eq!(drain(&mut order, queue), vec![2, 3, 1]);
        }

        /// The order is a function of the queue and the admissions so far:
        /// replaying the same arrivals yields the identical pick sequence.
        #[test]
        fn pick_sequence_is_deterministic() {
            let run = || {
                let queue = vec![
                    job(1, "a", 120.0),
                    job(2, "b", 5.0),
                    job(3, "a", 0.5),
                    job(4, "c", 60.0),
                    job(5, "b", 2.0),
                ];
                drain(&mut AdmissionOrder::new(&[]), queue)
            };
            let first = run();
            assert_eq!(first, run(), "the order must be deterministic");
            // Every tenant gets a turn (its cheapest job: 3, 5, 4) before
            // any gets a second; the 120 s scan trails.
            assert_eq!(first, vec![3, 5, 4, 2, 1]);
        }

        /// A large job ages: after enough fresh cheap arrivals pass it, the
        /// aging discount makes it win, and the gate can tell that it did.
        #[test]
        fn aging_promotes_starving_large_job() {
            let mut order = AdmissionOrder::new(&[]);
            let per = HashMap::new();
            let rs = RunningSet::new(0, 1, 0, &per);
            // 60 s scan enqueued at tick 1; cheap 1 s jobs keep arriving.
            // The cost gap is 59 s ≙ 59 ticks of aging, so by tick 61 the
            // scan wins.
            let fresh = job(61, "web", 1.0);
            let queue = vec![job(1, "etl", 60.0), fresh.clone()];
            for j in &queue {
                order.enqueue(j);
            }
            let i = order.pick(&queue, &rs).expect("slot free");
            assert_eq!(queue[i].id, 1, "aged scan must win over fresh job");
            assert!(order.aged_past_cheaper(&queue, &rs, i));

            // Without the age gap the cheap job wins and nothing is promoted.
            let young = vec![job(60, "etl", 60.0), fresh];
            let i = order.pick(&young, &rs).expect("slot free");
            assert_eq!(young[i].cost_hint, 1.0);
            assert!(!order.aged_past_cheaper(&young, &rs, i));
        }

        #[test]
        fn unknown_cost_hints_degrade_to_fifo() {
            let mut order = AdmissionOrder::new(&[]);
            // Equal (zero) cost: the oldest waiter has the largest aging
            // discount, so arrival order is preserved across tenants too.
            let queue = vec![job(5, "a", 0.0), job(6, "b", 0.0), job(7, "c", 0.0)];
            assert_eq!(drain(&mut order, queue), vec![5, 6, 7]);
        }
    }
}
