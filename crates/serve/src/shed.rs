//! The admission gate for `/v1/classify`: bounded execution slots, a
//! bounded wait room, sojourn-time shedding, tenant fairness, computed
//! `Retry-After`, and the paper-guided brown-out signal — one type, one
//! lock.
//!
//! An [`AdmissionGate`] keeps at most `slots` batches executing and at
//! most `wait_cap` admitted handlers waiting; the work itself runs on
//! the connection handler's own thread, under a [`Seat`]. In front of
//! the wait room sit three graduated defenses keyed on *measured*
//! signals:
//!
//! 1. **Sojourn-time shedding** (CoDel-style). The gate tracks an EWMA
//!    of slot-wait sojourn times. When sojourn stays above a target for
//!    a full interval, the gate enters a shedding state and refuses new
//!    arrivals while the wait room is contended; it exits as soon as
//!    sojourn drops back under target. Standing queues are punished,
//!    momentary bursts are not.
//! 2. **Tenant fair share.** Each tenant may occupy at most a configured
//!    fraction of the wait room. A hot tenant saturates its own share
//!    and gets 429s while other tenants keep being admitted.
//! 3. **Brown-out** (the paper's token-pruning lever, Algorithm 1's
//!    top-τ% treatment applied to the whole admitted stream). A pressure
//!    signal — recent shed rate plus normalized sojourn — engages
//!    brown-out past an enter threshold; admitted classify requests are
//!    then served with pruned, neighbor-free prompts (`degraded: true`)
//!    until pressure falls below the exit threshold. Degrading costs
//!    accuracy but keeps goodput up, which beats refusing outright.
//!
//! [`AdmissionGate::enter`] runs the whole protocol in order — fair
//! share and sojourn shed, slot wait under the request deadline (a full
//! wait room sheds as `saturated`), the admitted-deadline check, then
//! brown-out — and either refuses with a [`Refusal`] naming its cause or
//! hands out a [`Seat`]. Dropping the seat frees the slot, releases the
//! tenant's share and records the service time. Sheds carry a
//! `Retry-After` *computed* from queue depth × observed mean service
//! time (clamped to `[1, 30]` seconds), so clients back off
//! proportionally to how far behind the server actually is.
//!
//! Everything lives behind one mutex, taken on entry and on seat drop
//! (plus condvar waits), never per query. The shedding and brown-out
//! policy owns no clock — its methods take `now` as an argument, so
//! tests drive it with synthetic time; only the slot wait reads the
//! monotonic clock.

use mqo_obs::{Clock, MONOTONIC_CLOCK};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Tunables for the [`AdmissionGate`]'s shedding and brown-out policy.
/// Defaults suit the smoke-test scale (single-digit workers, tens of
/// queued requests).
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Sojourn-time target: slot waits persistently above this mean the
    /// wait room is a standing queue, not a burst buffer.
    pub sojourn_target_micros: u64,
    /// How long sojourn must stay above target before shedding begins.
    pub shed_interval_micros: u64,
    /// Max fraction of the wait room one tenant may occupy, in permille
    /// (e.g. 500 = half the wait room).
    pub tenant_share_permille: u64,
    /// Pressure (milli-units) at or above which brown-out engages.
    pub brownout_enter_milli: u64,
    /// Pressure (milli-units) below which brown-out disengages.
    pub brownout_exit_milli: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            sojourn_target_micros: 100_000,
            shed_interval_micros: 200_000,
            tenant_share_permille: 500,
            brownout_enter_milli: 1_500,
            brownout_exit_milli: 500,
        }
    }
}

/// A brown-out state transition the caller should announce (event +
/// metrics + flight recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutTransition {
    /// Pressure crossed the enter threshold.
    Entered {
        /// Pressure at the transition, in milli-units.
        pressure_milli: u64,
    },
    /// Pressure fell below the exit threshold.
    Exited {
        /// Pressure at the transition, in milli-units.
        pressure_milli: u64,
    },
}

/// Why [`AdmissionGate::enter`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Shed with `429`: `reason` is the label for events and metrics
    /// (`sojourn`, `tenant_share`, or `saturated` for a full wait room).
    Shed {
        /// Why the request was shed.
        reason: &'static str,
        /// The computed `Retry-After`, in seconds.
        retry_after_secs: u64,
    },
    /// The request deadline expired before the work could start (`504`),
    /// at `stage` `queue` (waiting for a slot) or `admitted` (a slot
    /// freed up, but too late).
    Expired {
        /// Where the deadline expired.
        stage: &'static str,
        /// Microseconds since the request started.
        waited_micros: u64,
    },
}

/// Width of the rolling window the shed-rate fraction is computed over.
const SHED_WINDOW_MICROS: u64 = 1_000_000;

/// The clock-free shedding and brown-out policy: every input that
/// depends on time arrives as an argument.
#[derive(Default)]
struct Policy {
    cfg: OverloadConfig,
    /// Per-tenant wait-room seat cap.
    tenant_cap: usize,
    /// EWMA of slot-wait sojourn times (α = 1/8).
    sojourn_ewma_micros: u64,
    /// EWMA of seat-held service times (α = 1/8); feeds `Retry-After`.
    service_ewma_micros: u64,
    /// When sojourn first exceeded target without dipping back (CoDel's
    /// "first above time"); `None` while under target.
    above_since_micros: Option<u64>,
    /// Whether the gate is currently shedding arrivals.
    shedding: bool,
    /// Rolling shed-rate window: arrivals and sheds since `window_start`.
    window_start_micros: u64,
    offered_in_window: u64,
    shed_in_window: u64,
    /// Shed fraction of the last sealed window, in permille.
    shed_permille: u64,
    /// Whether brown-out is engaged.
    brownout: bool,
    /// Requests per tenant currently past admission (waiting or holding
    /// a slot) — the fair-share denominator.
    tenant_inflight: HashMap<String, usize>,
}

impl Policy {
    fn new(cfg: OverloadConfig, wait_cap: usize) -> Policy {
        let tenant_cap =
            (wait_cap as u64 * cfg.tenant_share_permille).div_ceil(1_000).max(1) as usize;
        Policy { cfg, tenant_cap, ..Policy::default() }
    }

    /// Seal the shed-rate window if it has rolled over.
    fn roll_window(&mut self, now_micros: u64) {
        if now_micros.saturating_sub(self.window_start_micros) >= SHED_WINDOW_MICROS {
            self.shed_permille =
                (self.shed_in_window * 1_000).checked_div(self.offered_in_window).unwrap_or(0);
            self.window_start_micros = now_micros;
            self.offered_in_window = 0;
            self.shed_in_window = 0;
        }
    }

    /// Decide admission for one arriving request, count it as offered,
    /// and take its tenant seat unless it sheds (`Err(reason)`).
    /// `waiting` is the current wait-room depth; both shed rules fire
    /// only while the room is actually contended — an idle server never
    /// sheds on a stale EWMA, and a lone tenant facing an empty wait room
    /// is admitted even past its fair share (refusing it would protect
    /// capacity nobody else is asking for).
    fn admit(
        &mut self,
        tenant: &str,
        waiting: usize,
        now_micros: u64,
    ) -> Result<(), &'static str> {
        self.roll_window(now_micros);
        self.offered_in_window += 1;
        if waiting > 0
            && self.tenant_inflight.get(tenant).copied().unwrap_or(0) >= self.tenant_cap
        {
            self.shed_in_window += 1;
            return Err("tenant_share");
        }
        if self.shedding && waiting > 0 {
            self.shed_in_window += 1;
            return Err("sojourn");
        }
        *self.tenant_inflight.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Count a shed decided after [`Policy::admit`] (wait-room
    /// saturation, queue-deadline expiry) into the shed rate.
    fn note_shed(&mut self, now_micros: u64) {
        self.roll_window(now_micros);
        self.shed_in_window += 1;
    }

    /// Release an admitted request's tenant seat.
    fn release(&mut self, tenant: &str) {
        if let Some(n) = self.tenant_inflight.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.tenant_inflight.remove(tenant);
            }
        }
    }

    /// Record one slot-wait sojourn and run the CoDel-style state step.
    fn note_sojourn(&mut self, sojourn_micros: u64, now_micros: u64) {
        self.sojourn_ewma_micros = ewma(self.sojourn_ewma_micros, sojourn_micros);
        if self.sojourn_ewma_micros >= self.cfg.sojourn_target_micros {
            let above_since = *self.above_since_micros.get_or_insert(now_micros);
            if now_micros.saturating_sub(above_since) >= self.cfg.shed_interval_micros {
                self.shedding = true;
            }
        } else {
            self.above_since_micros = None;
            self.shedding = false;
        }
    }

    /// Record one seat-held service time (feeds the `Retry-After`
    /// estimate).
    fn note_service(&mut self, service_micros: u64) {
        self.service_ewma_micros = ewma(self.service_ewma_micros, service_micros);
    }

    /// The `Retry-After` to tell a shed client: current queue depth ×
    /// observed mean service time, rounded up to whole seconds and
    /// clamped to `[1, 30]`.
    fn retry_after_secs(&self, queue_depth: usize) -> u64 {
        let wait_micros = (queue_depth as u64).saturating_mul(self.service_ewma_micros);
        wait_micros.div_ceil(1_000_000).clamp(1, 30)
    }

    /// The composite pressure signal in milli-units: the last window's
    /// shed fraction (0–1000) plus sojourn normalized against its target
    /// (0–2000, saturating at 2× target).
    fn pressure_milli(&mut self, now_micros: u64) -> u64 {
        self.roll_window(now_micros);
        let sojourn_milli = (self.sojourn_ewma_micros.saturating_mul(1_000)
            / self.cfg.sojourn_target_micros.max(1))
        .min(2_000);
        self.shed_permille + sojourn_milli
    }

    /// Re-evaluate brown-out against current pressure. Returns the
    /// engaged/disengaged state plus a transition to announce, if this
    /// call crossed a threshold. Hysteresis: enters at ≥
    /// `brownout_enter_milli`, exits below `brownout_exit_milli`.
    fn brownout(&mut self, now_micros: u64) -> (bool, Option<BrownoutTransition>) {
        let pressure = self.pressure_milli(now_micros);
        let transition = if !self.brownout && pressure >= self.cfg.brownout_enter_milli {
            self.brownout = true;
            Some(BrownoutTransition::Entered { pressure_milli: pressure })
        } else if self.brownout && pressure < self.cfg.brownout_exit_milli {
            self.brownout = false;
            Some(BrownoutTransition::Exited { pressure_milli: pressure })
        } else {
            None
        };
        (self.brownout, transition)
    }
}

/// α = 1/8 exponentially weighted moving average, seeded by the first
/// sample.
fn ewma(prev: u64, sample: u64) -> u64 {
    if prev == 0 {
        sample
    } else {
        (prev * 7 + sample) / 8
    }
}

struct GateState {
    /// Free slot indices, used as a stack so a lightly loaded server
    /// keeps re-using the same (cache-warm) low tracks.
    free: Vec<u32>,
    /// Handlers admitted past the shed rules but waiting for a slot.
    waiting: usize,
    policy: Policy,
}

/// The admission gate; see the module docs. One per server, shared by
/// every handler thread.
pub struct AdmissionGate {
    state: Mutex<GateState>,
    available: Condvar,
    slots: usize,
    wait_cap: usize,
}

impl AdmissionGate {
    /// A gate with `slots` concurrent seats and room for `wait_cap`
    /// waiters (both clamped to ≥ 1), shedding and browning out per
    /// `cfg`.
    pub fn new(cfg: OverloadConfig, slots: usize, wait_cap: usize) -> AdmissionGate {
        let (slots, wait_cap) = (slots.max(1), wait_cap.max(1));
        AdmissionGate {
            // Reversed so pop() hands out slot 0 first.
            state: Mutex::new(GateState {
                free: (0..slots as u32).rev().collect(),
                waiting: 0,
                policy: Policy::new(cfg, wait_cap),
            }),
            available: Condvar::new(),
            slots,
            wait_cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().expect("admission gate poisoned")
    }

    /// Admit one request for `tenant` that started at `started_micros`
    /// (monotonic clock) and must finish by `deadline_micros`, if any:
    /// shed on fair share or sojourn, wait for a slot at most until the
    /// deadline (forever when `None`), re-check the deadline once
    /// seated, then evaluate brown-out. A `None` deadline never returns
    /// [`Refusal::Expired`].
    pub fn enter<'g>(
        &'g self,
        tenant: &'g str,
        started_micros: u64,
        deadline_micros: Option<u64>,
    ) -> Result<Seat<'g>, Refusal> {
        let entered = MONOTONIC_CLOCK.now_micros();
        let mut s = self.lock();
        let waiting = s.waiting;
        if let Err(reason) = s.policy.admit(tenant, waiting, started_micros) {
            let retry_after_secs = s.policy.retry_after_secs(waiting);
            return Err(Refusal::Shed { reason, retry_after_secs });
        }
        // A tenant seat is held from here on: every refusal below
        // releases it.
        if s.free.is_empty() {
            if waiting >= self.wait_cap {
                s.policy.release(tenant);
                s.policy.note_shed(started_micros);
                let retry_after_secs = s.policy.retry_after_secs(waiting);
                return Err(Refusal::Shed { reason: "saturated", retry_after_secs });
            }
            s.waiting += 1;
            while s.free.is_empty() {
                let Some(deadline) = deadline_micros else {
                    s = self.available.wait(s).expect("admission gate poisoned");
                    continue;
                };
                let now = MONOTONIC_CLOCK.now_micros();
                if now >= deadline {
                    s.waiting -= 1;
                    s.policy.release(tenant);
                    s.policy.note_shed(now);
                    let waited_micros = now.saturating_sub(started_micros);
                    return Err(Refusal::Expired { stage: "queue", waited_micros });
                }
                let remaining = Duration::from_micros(deadline - now);
                s = self
                    .available
                    .wait_timeout(s, remaining)
                    .expect("admission gate poisoned")
                    .0;
            }
            s.waiting -= 1;
        }
        let slot = s.free.pop().expect("non-empty free list");
        let admitted = MONOTONIC_CLOCK.now_micros();
        let sojourn_micros = admitted.saturating_sub(entered);
        s.policy.note_sojourn(sojourn_micros, admitted);
        // The wait may have consumed the whole budget even though a slot
        // freed up: fail fast rather than render a prompt nobody can bill.
        if deadline_micros.is_some_and(|d| admitted >= d) {
            s.free.push(slot);
            s.policy.release(tenant);
            drop(s);
            self.available.notify_one();
            let waited_micros = admitted.saturating_sub(started_micros);
            return Err(Refusal::Expired { stage: "admitted", waited_micros });
        }
        let (degraded, transition) = s.policy.brownout(admitted);
        Ok(Seat { gate: self, tenant, slot, admitted, sojourn_micros, degraded, transition })
    }

    /// Handlers currently parked waiting for a slot (the queue depth the
    /// stats endpoint reports).
    pub fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// The wait-room bound (the queue capacity the stats endpoint
    /// reports).
    pub fn wait_cap(&self) -> usize {
        self.wait_cap
    }

    /// Concurrent-execution bound.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// An admitted request's slot and tenant seat. Dropping it frees the
/// slot (waking one waiter), releases the tenant seat and records the
/// service time.
pub struct Seat<'g> {
    gate: &'g AdmissionGate,
    tenant: &'g str,
    slot: u32,
    admitted: u64,
    sojourn_micros: u64,
    degraded: bool,
    transition: Option<BrownoutTransition>,
}

impl Seat<'_> {
    /// The slot index, for bounded per-slot telemetry tracks.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// How long the request waited for its slot.
    pub fn sojourn_micros(&self) -> u64 {
        self.sojourn_micros
    }

    /// Whether the request runs browned out (pruned, neighbor-free
    /// prompts).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The brown-out transition this admission crossed, to announce
    /// once.
    pub fn transition(&self) -> Option<BrownoutTransition> {
        self.transition
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.lock();
        s.free.push(self.slot);
        s.policy.note_service(MONOTONIC_CLOCK.now_micros().saturating_sub(self.admitted));
        s.policy.release(self.tenant);
        drop(s);
        self.gate.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            sojourn_target_micros: 10_000,
            shed_interval_micros: 20_000,
            tenant_share_permille: 500,
            brownout_enter_milli: 1_500,
            brownout_exit_milli: 500,
        }
    }

    /// A gate under the default policy, for the slot tests.
    fn gate(slots: usize, wait_cap: usize) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate::new(OverloadConfig::default(), slots, wait_cap))
    }

    /// Deadline `ms` from now.
    fn within(ms: u64) -> Option<u64> {
        Some(MONOTONIC_CLOCK.now_micros() + ms * 1_000)
    }

    /// Undeadlined entry, for tests that only exercise the seat logic.
    fn enter<'g>(gate: &'g AdmissionGate, tenant: &'g str) -> Seat<'g> {
        gate.enter(tenant, MONOTONIC_CLOCK.now_micros(), None).expect("undeadlined entry")
    }

    #[test]
    fn retry_after_clamps_to_the_lower_bound() {
        let mut c = Policy::new(cfg(), 8);
        // No service observations at all: still at least 1 second.
        assert_eq!(c.retry_after_secs(0), 1);
        assert_eq!(c.retry_after_secs(100), 1);
        // Fast service, shallow queue: the product rounds up to 1.
        c.note_service(2_000); // 2ms
        assert_eq!(c.retry_after_secs(3), 1);
    }

    #[test]
    fn retry_after_clamps_to_the_upper_bound() {
        let mut c = Policy::new(cfg(), 8);
        c.note_service(2_000_000); // 2s per request
        assert_eq!(c.retry_after_secs(1_000), 30);
    }

    #[test]
    fn retry_after_scales_with_depth_times_service() {
        let mut c = Policy::new(cfg(), 8);
        c.note_service(500_000); // 0.5s
                                 // 8 queued × 0.5s = 4s of backlog.
        assert_eq!(c.retry_after_secs(8), 4);
    }

    #[test]
    fn persistent_sojourn_above_target_starts_shedding_and_recovers() {
        let mut c = Policy::new(cfg(), 8);
        // One spike does not shed: above target but interval not elapsed.
        c.note_sojourn(50_000, 0);
        assert!(!c.shedding);
        assert_eq!(c.admit("a", 3, 1_000), Ok(()));
        // Sojourn stays above target past the interval: shedding begins.
        c.note_sojourn(50_000, 25_000);
        assert!(c.shedding);
        assert_eq!(c.admit("b", 3, 26_000), Err("sojourn"));
        // …but only while the wait room is contended.
        assert_eq!(c.admit("b", 0, 27_000), Ok(()));
        // Sojourn recovers: shedding stops as soon as the EWMA decays
        // back under target.
        for _ in 0..16 {
            c.note_sojourn(0, 30_000);
        }
        assert!(!c.shedding);
        assert_eq!(c.admit("c", 3, 31_000), Ok(()));
    }

    #[test]
    fn one_hot_tenant_cannot_starve_the_rest() {
        let mut c = Policy::new(cfg(), 8);
        // Share is 500‰ of an 8-seat wait room: 4 seats for one tenant.
        // The room is contended (waiters present) throughout.
        for _ in 0..4 {
            assert_eq!(c.admit("hot", 3, 0), Ok(()));
        }
        assert_eq!(c.admit("hot", 3, 0), Err("tenant_share"));
        // A different tenant still gets in.
        assert_eq!(c.admit("cool", 3, 0), Ok(()));
        // Releasing a seat re-admits the hot tenant.
        c.release("hot");
        assert_eq!(c.admit("hot", 3, 0), Ok(()));
        // With the wait room empty, even an over-share tenant is
        // admitted: there is no one to be fair *to*.
        for _ in 0..3 {
            assert_eq!(c.admit("hot", 0, 0), Ok(()));
        }
    }

    #[test]
    fn brownout_engages_with_hysteresis() {
        let mut c = Policy::new(cfg(), 8);
        let (on, t) = c.brownout(0);
        assert!(!on && t.is_none());
        // Drive sojourn to 2× target: pressure 2000 ≥ enter 1500.
        c.note_sojourn(40_000, 0);
        let (on, t) = c.brownout(1);
        assert!(on);
        assert!(
            matches!(t, Some(BrownoutTransition::Entered { pressure_milli }) if pressure_milli >= 1_500)
        );
        // Pressure still above the exit threshold: engaged, no repeat
        // enter event.
        for _ in 0..8 {
            c.note_sojourn(8_000, 2);
        }
        let (on, t) = c.brownout(3);
        assert!(on && t.is_none(), "hysteresis holds between thresholds");
        // Pressure under exit: disengages once.
        for _ in 0..16 {
            c.note_sojourn(0, 4);
        }
        let (on, t) = c.brownout(5);
        assert!(!on);
        assert!(matches!(t, Some(BrownoutTransition::Exited { .. })));
        let (_, t) = c.brownout(6);
        assert!(t.is_none(), "no repeated exit events");
    }

    #[test]
    fn shed_rate_feeds_pressure_through_the_rolling_window() {
        let mut config = cfg();
        // Neutralize the sojourn term.
        config.sojourn_target_micros = 1_000_000;
        let mut c = Policy::new(config, 1);
        // Window 1: every second arrival of tenant "t" sheds on share
        // (the one-seat wait room stays contended).
        for i in 0..10 {
            if c.admit("t", 1, i).is_ok() {
                // keep the seat: do not release, so the next admit sheds
            } else {
                c.release("t");
            }
        }
        // Roll the window: shed fraction materializes in pressure.
        let p = c.pressure_milli(SHED_WINDOW_MICROS + 1);
        assert!(p > 0, "shed fraction must surface in pressure, got {p}");
    }

    #[test]
    fn permits_are_exclusive_and_recycle() {
        let gate = gate(2, 1);
        let a = enter(&gate, "a");
        let b = enter(&gate, "b");
        assert_ne!(a.slot(), b.slot());
        let (sa, sb) = (a.slot(), b.slot());
        drop(a);
        let c = enter(&gate, "c");
        assert!(c.slot() == sa || c.slot() == sb);
        drop(b);
        drop(c);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn full_wait_room_saturates_immediately() {
        let gate = gate(1, 1);
        let held = enter(&gate, "a");
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let _p = enter(&gate, "b");
            })
        };
        // Let the waiter park.
        while gate.waiting() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // Slot busy + wait room full → immediate backpressure, even with
        // no deadline at all.
        match gate.enter("c", MONOTONIC_CLOCK.now_micros(), None) {
            Ok(_) => panic!("a full wait room must refuse immediately"),
            Err(e) => assert!(matches!(e, Refusal::Shed { reason: "saturated", .. }), "{e:?}"),
        }
        drop(held);
        waiter.join().unwrap();
        assert_eq!(gate.waiting(), 0);
        assert!(gate.enter("c", MONOTONIC_CLOCK.now_micros(), None).is_ok());
    }

    #[test]
    fn acquire_within_reports_sojourn_and_expires() {
        let gate = gate(1, 4);
        // Free slot: immediate grant, near-zero sojourn.
        let p = gate.enter("a", MONOTONIC_CLOCK.now_micros(), within(1_000)).unwrap();
        assert!(p.sojourn_micros() < 100_000, "sojourn: {}us", p.sojourn_micros());
        // Slot busy: a tiny budget drains before the slot frees.
        {
            let gate = Arc::clone(&gate);
            let err = thread::spawn(move || {
                match gate.enter("b", MONOTONIC_CLOCK.now_micros(), within(20)) {
                    Ok(_) => panic!("a 20ms budget must not outlast a held slot"),
                    Err(e) => e,
                }
            })
            .join()
            .unwrap();
            assert!(matches!(err, Refusal::Expired { stage: "queue", .. }), "{err:?}");
        }
        assert_eq!(gate.waiting(), 0, "an expired waiter leaves no ghost in the wait room");
        // Slot busy but freed within the budget: granted, sojourn ≈ hold.
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.enter("c", MONOTONIC_CLOCK.now_micros(), within(5_000))
                    .unwrap()
                    .sojourn_micros()
            })
        };
        while gate.waiting() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(p);
        let waited = waiter.join().unwrap();
        assert!(waited >= 1_000, "waited: {waited}us");
    }

    #[test]
    fn acquire_within_without_budget_never_expires() {
        let gate = gate(1, 4);
        let held = enter(&gate, "a");
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let p = enter(&gate, "b");
                drop(p);
            })
        };
        while gate.waiting() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        waiter.join().unwrap();
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn waiters_drain_in_bounded_concurrency() {
        let gate = gate(2, 16);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let (gate, live, peak) =
                    (Arc::clone(&gate), Arc::clone(&live), Arc::clone(&peak));
                thread::spawn(move || {
                    // One tenant per waiter: this test bounds slots, not
                    // fair shares.
                    let tenant = format!("t{i}");
                    let _p = enter(&gate, &tenant);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "more than `slots` ran at once");
        assert_eq!(gate.waiting(), 0);
    }
}
