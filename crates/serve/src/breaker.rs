//! Circuit breakers for the fleet router's members (`DESIGN.md` §11.2).
//!
//! The router keeps one breaker per member daemon, fed by its health
//! probes, and each runs the classic three-state machine:
//!
//! - **Closed** — requests flow; consecutive failures are counted and
//!   the breaker trips open at a threshold.
//! - **Open** — requests are refused (the router routes around the
//!   member) until a cooloff has elapsed.
//! - **Half-open** — after the cooloff exactly one probe request is
//!   admitted. Success closes the breaker; failure re-opens it and
//!   restarts the cooloff.
//!
//! Every transition takes the current [`Instant`] as an argument, so
//! tests drive the clock instead of sleeping.

use std::time::{Duration, Instant};

/// The observable state of a [`CircuitBreaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are refused until the cooloff elapses.
    Open,
    /// Probing: one request is in flight to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// The lowercase name used in health reports (`closed`, `open`,
    /// `half-open`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A consecutive-failure circuit breaker with a timed half-open probe.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
    cooloff: Duration,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker that trips after `threshold` consecutive
    /// failures and probes again `cooloff` after tripping.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (a breaker that can never admit a
    /// request is a configuration error).
    #[must_use]
    pub fn new(threshold: u32, cooloff: Duration) -> Self {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold,
            cooloff,
            opened_at: None,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Asks to route one request to the guarded member at time `now`.
    ///
    /// Returns `true` when the request may proceed. While open, the
    /// first call at or after `opened_at + cooloff` transitions to
    /// half-open and admits the single probe; further calls are refused
    /// until the probe's outcome is recorded.
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let ready = self
                    .opened_at
                    .is_none_or(|at| now.saturating_duration_since(at) >= self.cooloff);
                if ready {
                    self.state = BreakerState::HalfOpen;
                }
                ready
            }
        }
    }

    /// Records a successful request: any state closes.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// Records a failed request at time `now`.
    ///
    /// A half-open probe failure re-opens immediately; a closed breaker
    /// trips once the consecutive-failure count reaches the threshold.
    pub fn record_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed if self.consecutive_failures >= self.threshold => self.trip(now),
            _ => {}
        }
    }

    fn trip(&mut self, now: Instant) {
        self.state = BreakerState::Open;
        self.opened_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(3, Duration::from_millis(100))
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = breaker();
        let t0 = Instant::now();
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        // A success resets the streak.
        b.record_success();
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(t0));
    }

    #[test]
    fn half_open_probe_admits_exactly_one_request() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        assert!(!b.allow(t0 + Duration::from_millis(99)));
        assert!(b.allow(t0 + Duration::from_millis(100)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The probe is outstanding: nothing else gets through.
        assert!(!b.allow(t0 + Duration::from_millis(500)));
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow(t1));
        b.record_failure(t1);
        assert_eq!(b.state(), BreakerState::Open);
        // The cooloff restarts from the re-open instant.
        assert!(!b.allow(t1 + Duration::from_millis(99)));
        let t2 = t1 + Duration::from_millis(100);
        assert!(b.allow(t2));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Fully recovered: requests flow again.
        assert!(b.allow(t2));
    }

    #[test]
    fn racing_allows_admit_at_most_one_probe() {
        // The prober and the routing path may both ask `allow` after
        // the cooloff; only the first caller wins the probe slot, no
        // matter how many ask or how late they ask.
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let ready = t0 + Duration::from_millis(100);
        let admitted = (0..10)
            .filter(|i| b.allow(ready + Duration::from_millis(i * 50)))
            .count();
        assert_eq!(admitted, 1, "exactly one probe may be in flight");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Still exactly one after the outcome restarts the cycle.
        b.record_failure(ready);
        let ready = ready + Duration::from_millis(100);
        let admitted = (0..10)
            .filter(|i| b.allow(ready + Duration::from_millis(i * 50)))
            .count();
        assert_eq!(admitted, 1, "a re-trip must not leak extra probes");
    }

    #[test]
    fn failed_probes_re_trip_with_a_full_cooloff_instead_of_flapping() {
        // A member that stays dead gets exactly one probe per cooloff
        // window: N windows → N probes and N re-trips, never a burst.
        let mut b = breaker();
        let mut now = Instant::now();
        for _ in 0..3 {
            b.record_failure(now);
        }
        assert_eq!(b.state(), BreakerState::Open);
        for cycle in 0..5u64 {
            // Nothing flows before the window, even asked repeatedly.
            for i in 0..4 {
                assert!(
                    !b.allow(now + Duration::from_millis(i * 25 + 24)),
                    "cycle {cycle}: allowed before the cooloff elapsed"
                );
            }
            now += Duration::from_millis(100);
            assert!(b.allow(now), "cycle {cycle}: the probe slot must open");
            b.record_failure(now);
            assert_eq!(
                b.state(),
                BreakerState::Open,
                "cycle {cycle}: a failed probe re-trips"
            );
        }
        // The member finally recovers: one good probe closes it and
        // resets the failure streak, so re-tripping takes a full
        // threshold again rather than a single post-recovery blip.
        now += Duration::from_millis(100);
        assert!(b.allow(now));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "the streak must restart from zero after a recovery"
        );
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(BreakerState::Closed.name(), "closed");
        assert_eq!(BreakerState::Open.name(), "open");
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }
}
