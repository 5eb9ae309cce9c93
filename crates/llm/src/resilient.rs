//! Retry, backoff, and circuit breaking for fallible transports.
//!
//! [`ResilientLlm`] wraps any [`LanguageModel`] and turns transient
//! transport failures into (mostly) successful calls:
//!
//! * **capped exponential backoff** with *deterministic seeded jitter* —
//!   the jitter factor comes from the wrapper's own `StdRng`, so a fixed
//!   seed reproduces the exact same wait sequence (no wall-clock
//!   nondeterminism leaks into tests or reports);
//! * **rate-limit awareness** — a server-provided `Retry-After` is the
//!   floor of the next wait;
//! * **a per-run retry budget** — a global cap on retries across all
//!   calls, so a persistently-down backend cannot stall a run forever;
//! * **a three-state circuit breaker** — `Closed → Open → HalfOpen`:
//!   enough consecutive failures open the circuit; while open, calls
//!   fail fast with [`LlmError::CircuitOpen`] (the request is never
//!   sent); after a cooldown the next call is a half-open *probe* whose
//!   outcome either closes the circuit or re-opens it.
//!
//! Time flows through an injectable [`Clock`]. The default
//! [`VirtualClock`] advances only when the wrapper "sleeps" or completes
//! a (simulated-latency) call — tests and the bundled synthetic model
//! never block on real time, yet cooldowns and backoff interact exactly
//! as they would against a wall clock. Production deployments over a
//! real API plug in [`SystemClock`].

use crate::error::LlmError;
use crate::usage::TokenUsage;
use crate::{LanguageModel, ResilienceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A monotonic clock the wrapper can read and sleep against.
///
/// Implementations decide whether "sleeping" blocks a thread
/// ([`SystemClock`]) or merely advances a counter ([`VirtualClock`]).
pub trait Clock {
    /// Milliseconds since an arbitrary epoch (monotone non-decreasing).
    fn now_ms(&self) -> u64;
    /// Wait for `ms` milliseconds.
    fn sleep_ms(&mut self, ms: u64);

    /// A checkpointable reading of this clock, if its position can be
    /// restored bit-identically in another process. The default `None`
    /// (also [`SystemClock`]'s answer — wall time cannot be rewound)
    /// makes any model stacked over the clock refuse to export state.
    fn checkpoint_ms(&self) -> Option<u64> {
        None
    }

    /// Restore a position captured by
    /// [`checkpoint_ms`](Clock::checkpoint_ms). Returns `false` when the
    /// clock does not support restoration (the default).
    fn restore_ms(&mut self, ms: u64) -> bool {
        let _ = ms;
        false
    }
}

/// Deterministic clock: `sleep_ms` advances instantly. The default for
/// everything in this repository — no test ever blocks on wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: u64,
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now_ms
    }
    fn sleep_ms(&mut self, ms: u64) {
        self.now_ms += ms;
    }
    fn checkpoint_ms(&self) -> Option<u64> {
        Some(self.now_ms)
    }
    fn restore_ms(&mut self, ms: u64) -> bool {
        self.now_ms = ms;
        true
    }
}

/// Wall clock: `sleep_ms` blocks the thread. For real API deployments.
#[derive(Debug)]
pub struct SystemClock {
    start: std::time::Instant,
}

impl Default for SystemClock {
    // detlint::allow(ambient_nondet): this is the injectable Clock's production implementation — the one sanctioned wall-clock read
    #[allow(clippy::disallowed_methods)]
    fn default() -> Self {
        SystemClock { start: std::time::Instant::now() }
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
    fn sleep_ms(&mut self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Retry/backoff/breaker policy. Defaults suit a synthetic in-process
/// model; a real API client would raise the backoff scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per `complete` call (1 = no retries).
    pub max_attempts: u32,
    /// First backoff wait, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff cap, milliseconds.
    pub max_backoff_ms: u64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Jitter as a fraction of the computed wait (`0.25` = up to +25 %),
    /// drawn deterministically from the wrapper's seeded RNG.
    pub jitter: f64,
    /// Total retries allowed across the whole run (the per-run budget).
    pub retry_budget: u64,
    /// Consecutive failures that trip the breaker.
    pub breaker_threshold: u32,
    /// How long the circuit stays open before a half-open probe, ms.
    pub breaker_cooldown_ms: u64,
    /// `false` disables the breaker entirely (the CLIs'
    /// `--no-circuit-breaker`).
    pub breaker_enabled: bool,
    /// Simulated per-attempt latency, ms — how much the [`Clock`]
    /// advances for each request even without backoff. Gives virtual
    /// time a realistic arrow so open circuits can recover; set to 0
    /// over a [`SystemClock`], where real time passes anyway.
    pub simulated_call_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 100,
            max_backoff_ms: 5_000,
            multiplier: 2.0,
            jitter: 0.25,
            retry_budget: 1_000,
            breaker_threshold: 8,
            breaker_cooldown_ms: 2_000,
            breaker_enabled: true,
            simulated_call_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never breaks the circuit —
    /// failures surface immediately (for tests and comparisons).
    pub fn passthrough() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            retry_budget: 0,
            breaker_enabled: false,
            ..RetryPolicy::default()
        }
    }
}

/// Breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; counts consecutive failures.
    Closed { consecutive_failures: u32 },
    /// Failing fast until the cooldown deadline.
    Open { until_ms: u64 },
    /// One probe in flight; its outcome decides the next state.
    HalfOpen,
}

/// A [`LanguageModel`] wrapper adding retries, backoff, and a breaker.
pub struct ResilientLlm<M, C: Clock = VirtualClock> {
    inner: M,
    policy: RetryPolicy,
    clock: C,
    rng: StdRng,
    breaker: BreakerState,
    retries_left: u64,
    stats: ResilienceStats,
}

impl<M: LanguageModel> ResilientLlm<M, VirtualClock> {
    /// Wrap `inner` over a virtual (non-blocking, deterministic) clock.
    pub fn new(inner: M, policy: RetryPolicy, seed: u64) -> Self {
        ResilientLlm::with_clock(inner, policy, seed, VirtualClock::default())
    }
}

impl<M: LanguageModel, C: Clock> ResilientLlm<M, C> {
    /// Wrap `inner` over an explicit clock.
    pub fn with_clock(inner: M, policy: RetryPolicy, seed: u64, clock: C) -> Self {
        let retries_left = policy.retry_budget;
        ResilientLlm {
            inner,
            policy,
            clock,
            rng: StdRng::seed_from_u64(seed),
            breaker: BreakerState::Closed { consecutive_failures: 0 },
            retries_left,
            stats: ResilienceStats::default(),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Current virtual/wall time, ms.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Retry budget remaining for this run.
    pub fn retries_left(&self) -> u64 {
        self.retries_left
    }

    /// Whether the circuit is currently open (failing fast).
    pub fn circuit_open(&self) -> bool {
        matches!(self.breaker, BreakerState::Open { .. })
    }

    /// Backoff before retry number `retry` (1-based), with jitter and the
    /// server's `Retry-After` floor applied.
    fn backoff_ms(&mut self, retry: u32, floor_ms: Option<u64>) -> u64 {
        let exp = self.policy.multiplier.powi(retry.saturating_sub(1) as i32);
        let base =
            (self.policy.base_backoff_ms as f64 * exp).min(self.policy.max_backoff_ms as f64);
        let jitter: f64 = self.rng.gen_range(0.0..=self.policy.jitter.max(0.0));
        let wait = (base * (1.0 + jitter)) as u64;
        wait.max(floor_ms.unwrap_or(0))
    }

    /// Admission check: is the circuit willing to send a request now?
    fn admit(&mut self) -> Result<(), LlmError> {
        if !self.policy.breaker_enabled {
            return Ok(());
        }
        match self.breaker {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open { until_ms } => {
                if self.clock.now_ms() >= until_ms {
                    // Cooldown over: this call becomes the probe.
                    self.breaker = BreakerState::HalfOpen;
                    self.stats.breaker_probes += 1;
                    Ok(())
                } else {
                    self.stats.circuit_rejections += 1;
                    // A fast-fail is near-instant, but the caller does
                    // real work between LLM calls (validation, costing).
                    // Advancing the clock here stands in for that time,
                    // so an open circuit can actually reach its cooldown
                    // under a virtual clock instead of starving forever.
                    self.clock.sleep_ms(self.policy.simulated_call_ms);
                    Err(LlmError::CircuitOpen)
                }
            }
        }
    }

    fn on_success(&mut self) {
        if self.policy.breaker_enabled {
            // A half-open probe succeeding closes the circuit; a closed
            // success resets the consecutive-failure count.
            self.breaker = BreakerState::Closed { consecutive_failures: 0 };
        }
    }

    fn on_failure(&mut self) {
        if !self.policy.breaker_enabled {
            return;
        }
        match self.breaker {
            BreakerState::Closed { consecutive_failures } => {
                let failures = consecutive_failures + 1;
                if failures >= self.policy.breaker_threshold {
                    self.trip();
                } else {
                    self.breaker = BreakerState::Closed { consecutive_failures: failures };
                }
            }
            // A failed probe re-opens the circuit for another cooldown.
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self) {
        self.stats.breaker_trips += 1;
        self.breaker =
            BreakerState::Open { until_ms: self.clock.now_ms() + self.policy.breaker_cooldown_ms };
    }
}

impl<M: LanguageModel, C: Clock> LanguageModel for ResilientLlm<M, C> {
    fn complete(&mut self, prompt: &str) -> Result<String, LlmError> {
        self.stats.calls += 1;
        let mut last_error = None;
        for attempt in 1..=self.policy.max_attempts.max(1) {
            if let Err(rejection) = self.admit() {
                // Fail fast: the request is never sent and the retry loop
                // ends — hammering an open circuit is what it prevents.
                self.stats.giveups += 1;
                return Err(rejection);
            }
            self.stats.attempts += 1;
            self.clock.sleep_ms(self.policy.simulated_call_ms);
            match self.inner.complete(prompt) {
                Ok(response) => {
                    self.on_success();
                    if attempt > 1 {
                        self.stats.recoveries += 1;
                    }
                    return Ok(response);
                }
                Err(error) => {
                    self.stats.failures += 1;
                    self.on_failure();
                    let out_of_attempts = attempt == self.policy.max_attempts;
                    let out_of_budget = self.retries_left == 0;
                    if !error.is_retryable() || out_of_attempts || out_of_budget {
                        if out_of_budget && error.is_retryable() && !out_of_attempts {
                            self.stats.budget_exhausted += 1;
                        }
                        self.stats.giveups += 1;
                        return Err(error);
                    }
                    let wait = self.backoff_ms(attempt, error.retry_after_ms());
                    self.stats.backoff_ms += wait;
                    self.clock.sleep_ms(wait);
                    self.retries_left -= 1;
                    self.stats.retries += 1;
                    last_error = Some(error);
                }
            }
        }
        // Unreachable: the loop always returns from its last iteration.
        self.stats.giveups += 1;
        Err(last_error.unwrap_or(LlmError::ServerError))
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn resilience(&self) -> ResilienceStats {
        self.stats
    }

    fn export_state(&self) -> Option<crate::ModelState> {
        Some(crate::ModelState::Resilient {
            layer: crate::ResilientState {
                rng: self.rng.state(),
                // A non-checkpointable clock (wall time) vetoes the whole
                // export: its position cannot be restored elsewhere.
                now_ms: self.clock.checkpoint_ms()?,
                breaker: match self.breaker {
                    BreakerState::Closed { consecutive_failures } => {
                        crate::BreakerSnapshot::Closed { consecutive_failures }
                    }
                    BreakerState::Open { until_ms } => crate::BreakerSnapshot::Open { until_ms },
                    BreakerState::HalfOpen => crate::BreakerSnapshot::HalfOpen,
                },
                retries_left: self.retries_left,
                stats: self.stats,
            },
            inner: Box::new(self.inner.export_state()?),
        })
    }

    fn import_state(&mut self, state: &crate::ModelState) -> Result<(), String> {
        let crate::ModelState::Resilient { layer, inner } = state else {
            return Err(format!(
                "model state mismatch: resilient layer given a '{}' state",
                state.layer_name()
            ));
        };
        self.inner.import_state(inner)?;
        if !self.clock.restore_ms(layer.now_ms) {
            return Err("this model's clock does not support state restore".into());
        }
        self.rng = StdRng::from_state(layer.rng);
        self.breaker = match layer.breaker {
            crate::BreakerSnapshot::Closed { consecutive_failures } => {
                BreakerState::Closed { consecutive_failures }
            }
            crate::BreakerSnapshot::Open { until_ms } => BreakerState::Open { until_ms },
            crate::BreakerSnapshot::HalfOpen => BreakerState::HalfOpen,
        };
        self.retries_left = layer.retries_left;
        self.stats = layer.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted model: pops outcomes off a queue; `None` means success.
    struct Scripted {
        script: std::collections::VecDeque<Option<LlmError>>,
        usage: TokenUsage,
    }

    impl Scripted {
        fn new(outcomes: Vec<Option<LlmError>>) -> Scripted {
            Scripted { script: outcomes.into(), usage: TokenUsage::default() }
        }
        /// Fails the first `n` calls, then succeeds forever.
        fn failing_first(n: usize) -> Scripted {
            Scripted::new(vec![Some(LlmError::Timeout); n])
        }
    }

    impl LanguageModel for Scripted {
        fn complete(&mut self, prompt: &str) -> Result<String, LlmError> {
            self.usage.record(prompt, "ok");
            match self.script.pop_front().flatten() {
                Some(error) => Err(error),
                None => Ok("SQL:\nSELECT 1 FROM t\n".into()),
            }
        }
        fn usage(&self) -> TokenUsage {
            self.usage
        }
        fn model_name(&self) -> &str {
            "scripted"
        }
    }

    fn wrap(inner: Scripted, policy: RetryPolicy) -> ResilientLlm<Scripted> {
        ResilientLlm::new(inner, policy, 42)
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let mut llm = wrap(Scripted::failing_first(3), RetryPolicy::default());
        let out = llm.complete("p");
        assert!(out.is_ok(), "{out:?}");
        let stats = llm.resilience();
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.giveups, 0);
        assert!(stats.backoff_ms > 0);
    }

    #[test]
    fn attempt_cap_surfaces_the_last_error() {
        let mut llm = wrap(
            Scripted::failing_first(100),
            RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
        );
        assert_eq!(llm.complete("p"), Err(LlmError::Timeout));
        let stats = llm.resilience();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.giveups, 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            base_backoff_ms: 100,
            max_backoff_ms: 400,
            multiplier: 2.0,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut llm = wrap(Scripted::failing_first(0), policy);
        assert_eq!(llm.backoff_ms(1, None), 100);
        assert_eq!(llm.backoff_ms(2, None), 200);
        assert_eq!(llm.backoff_ms(3, None), 400);
        assert_eq!(llm.backoff_ms(4, None), 400, "capped");
        assert_eq!(llm.backoff_ms(2, Some(1_000)), 1_000, "Retry-After floor");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let mut a = ResilientLlm::new(Scripted::failing_first(0), policy, 7);
        let mut b = ResilientLlm::new(Scripted::failing_first(0), policy, 7);
        let seq_a: Vec<u64> = (1..6).map(|i| a.backoff_ms(i, None)).collect();
        let seq_b: Vec<u64> = (1..6).map(|i| b.backoff_ms(i, None)).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = ResilientLlm::new(Scripted::failing_first(0), policy, 8);
        let seq_c: Vec<u64> = (1..6).map(|i| c.backoff_ms(i, None)).collect();
        assert_ne!(seq_a, seq_c, "different seeds, different jitter");
    }

    #[test]
    fn retry_budget_is_global_across_calls() {
        let policy = RetryPolicy {
            max_attempts: 10,
            retry_budget: 4,
            breaker_enabled: false,
            ..RetryPolicy::default()
        };
        // Each call fails twice then succeeds: costs 2 retries.
        let script = |_| {
            Scripted::new(vec![
                Some(LlmError::Timeout),
                Some(LlmError::Timeout),
                None,
                Some(LlmError::Timeout),
                Some(LlmError::Timeout),
                None,
                Some(LlmError::Timeout),
            ])
        };
        let mut llm = wrap(script(()), policy);
        assert!(llm.complete("a").is_ok()); // budget 4 → 2
        assert!(llm.complete("b").is_ok()); // budget 2 → 0
        assert_eq!(llm.retries_left(), 0);
        // Budget gone: the next failure is terminal.
        assert_eq!(llm.complete("c"), Err(LlmError::Timeout));
        assert_eq!(llm.resilience().budget_exhausted, 1);
    }

    #[test]
    fn breaker_opens_after_threshold_and_fails_fast() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 3,
            breaker_cooldown_ms: 10_000,
            simulated_call_ms: 1,
            ..RetryPolicy::default()
        };
        let mut llm = wrap(Scripted::failing_first(50), policy);
        for _ in 0..3 {
            assert_eq!(llm.complete("p"), Err(LlmError::Timeout));
        }
        assert!(llm.circuit_open());
        assert_eq!(llm.resilience().breaker_trips, 1);
        // While open: fail fast, request never sent.
        let attempts_before = llm.resilience().attempts;
        assert_eq!(llm.complete("p"), Err(LlmError::CircuitOpen));
        assert_eq!(llm.resilience().attempts, attempts_before);
        assert_eq!(llm.resilience().circuit_rejections, 1);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown_ms: 100,
            simulated_call_ms: 60,
            ..RetryPolicy::default()
        };
        let mut llm = wrap(Scripted::failing_first(2), policy);
        assert!(llm.complete("p").is_err());
        assert!(llm.complete("p").is_err());
        assert!(llm.circuit_open());
        // Two calls × 60 ms simulated latency pass the 100 ms cooldown;
        // the first admitted call is the half-open probe and succeeds.
        assert_eq!(llm.complete("p"), Err(LlmError::CircuitOpen));
        assert_eq!(llm.complete("p"), Err(LlmError::CircuitOpen));
        assert!(llm.complete("p").is_ok(), "probe should close the circuit");
        assert!(!llm.circuit_open());
        assert_eq!(llm.resilience().breaker_probes, 1);
        assert!(llm.complete("p").is_ok());
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 1,
            breaker_cooldown_ms: 10,
            simulated_call_ms: 20,
            ..RetryPolicy::default()
        };
        let mut llm = wrap(Scripted::failing_first(2), policy);
        assert!(llm.complete("p").is_err()); // trips (threshold 1)
        assert!(llm.circuit_open());
        // First call while open is rejected (cooldown not yet elapsed);
        // the rejection advances virtual time past the cooldown, so the
        // next call is the probe — which fails and re-opens.
        assert_eq!(llm.complete("p"), Err(LlmError::CircuitOpen));
        assert_eq!(llm.complete("p"), Err(LlmError::Timeout));
        assert!(llm.circuit_open());
        assert_eq!(llm.resilience().breaker_trips, 2);
    }

    #[test]
    fn disabled_breaker_never_rejects() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_enabled: false,
            breaker_threshold: 1,
            ..RetryPolicy::default()
        };
        let mut llm = wrap(Scripted::failing_first(20), policy);
        for _ in 0..20 {
            assert_eq!(llm.complete("p"), Err(LlmError::Timeout));
        }
        assert_eq!(llm.resilience().circuit_rejections, 0);
        assert_eq!(llm.resilience().breaker_trips, 0);
        assert!(llm.complete("p").is_ok());
    }

    #[test]
    fn non_retryable_errors_fail_immediately() {
        let mut llm = wrap(
            Scripted::new(vec![Some(LlmError::Malformed { expected: "SQL" })]),
            RetryPolicy::default(),
        );
        assert!(matches!(llm.complete("p"), Err(LlmError::Malformed { .. })));
        assert_eq!(llm.resilience().retries, 0);
    }

    #[test]
    fn virtual_clock_only_advances_by_sleeps_and_calls() {
        let policy = RetryPolicy {
            jitter: 0.0,
            base_backoff_ms: 100,
            simulated_call_ms: 10,
            ..RetryPolicy::default()
        };
        let mut llm = wrap(Scripted::failing_first(1), policy);
        assert!(llm.complete("p").is_ok());
        // Two attempts (10 ms each) + one 100 ms backoff.
        assert_eq!(llm.now_ms(), 120);
        assert_eq!(llm.resilience().backoff_ms, 100);
    }
}
