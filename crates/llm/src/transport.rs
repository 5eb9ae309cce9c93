//! Transport fault injection.
//!
//! Real completion APIs time out, rate-limit, truncate streams, and throw
//! transient 5xx errors. [`FaultyTransport`] wraps any [`LanguageModel`]
//! and injects those failures at seeded, configurable rates — the
//! transport-layer sibling of the content-level fault model in
//! [`crate::faults`]. Two regimes:
//!
//! * **independent faults** — each call draws each fault class
//!   independently (uncorrelated blips: a slow route, one 429);
//! * **burst mode** — a call can start a *correlated outage*: the next
//!   `burst_len` calls all fail, modelling a backend incident. This is
//!   what trips circuit breakers in practice, and what the chaos suite
//!   uses to exercise the open → half-open → closed recovery path.
//!
//! Every draw comes from the transport's own seeded RNG, advanced exactly
//! once per call in a fixed order, so a given `(seed, call sequence)`
//! yields an identical fault sequence — the determinism the chaos tests
//! assert. The wrapped model's RNG is never touched on calls that fail
//! before reaching it.

use crate::error::LlmError;
use crate::usage::TokenUsage;
use crate::LanguageModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-call fault probabilities and burst (correlated outage) dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaultConfig {
    /// Probability the request times out (nothing comes back).
    pub p_timeout: f64,
    /// Probability of an HTTP-429-style rejection with a retry-after.
    pub p_rate_limit: f64,
    /// Probability the response stream dies mid-answer.
    pub p_truncate: f64,
    /// Probability of a 5xx internal error.
    pub p_server_error: f64,
    /// Probability a call *starts* a correlated outage.
    pub p_burst_start: f64,
    /// Outage length in calls, drawn uniformly from this inclusive range.
    pub burst_len: (u32, u32),
    /// Retry-after window (milliseconds) for rate-limit responses.
    pub retry_after_ms: (u64, u64),
}

impl TransportFaultConfig {
    /// A perfectly reliable transport (the default: no faults, ever).
    pub fn none() -> TransportFaultConfig {
        TransportFaultConfig {
            p_timeout: 0.0,
            p_rate_limit: 0.0,
            p_truncate: 0.0,
            p_server_error: 0.0,
            p_burst_start: 0.0,
            burst_len: (3, 8),
            retry_after_ms: (100, 1_500),
        }
    }

    /// A transport whose *total* per-call fault probability is `rate`,
    /// split across the four classes in realistic proportions, with a
    /// small share of the rate fuelling correlated outages. `rate` is
    /// clamped to `[0, 1]`. This is what the CLIs' `--transport-faults`
    /// flag constructs.
    pub fn uniform(rate: f64) -> TransportFaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        TransportFaultConfig {
            p_timeout: rate * 0.35,
            p_rate_limit: rate * 0.25,
            p_truncate: rate * 0.20,
            p_server_error: rate * 0.15,
            p_burst_start: rate * 0.05,
            ..TransportFaultConfig::none()
        }
    }

    /// Whether any fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.p_timeout == 0.0
            && self.p_rate_limit == 0.0
            && self.p_truncate == 0.0
            && self.p_server_error == 0.0
            && self.p_burst_start == 0.0
    }
}

impl Default for TransportFaultConfig {
    fn default() -> Self {
        TransportFaultConfig::none()
    }
}

/// Counters of injected faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    pub timeouts: u64,
    pub rate_limits: u64,
    pub truncations: u64,
    pub server_errors: u64,
    /// Calls that failed as part of a correlated outage (also counted in
    /// their per-class field above).
    pub burst_failures: u64,
    /// Correlated outages started.
    pub bursts: u64,
}

impl InjectedFaults {
    /// Total injected failures.
    pub fn total(&self) -> u64 {
        self.timeouts + self.rate_limits + self.truncations + self.server_errors
    }
}

/// A [`LanguageModel`] decorator that injects transport faults.
pub struct FaultyTransport<M> {
    inner: M,
    config: TransportFaultConfig,
    rng: StdRng,
    /// Remaining calls in the current correlated outage.
    remaining_burst: u32,
    injected: InjectedFaults,
    /// Token accounting for requests that failed before reaching the
    /// wrapped model (the prompt was still sent over the wire).
    wasted: TokenUsage,
}

impl<M: LanguageModel> FaultyTransport<M> {
    /// Wrap `inner`, drawing faults from a dedicated RNG seeded by `seed`.
    pub fn new(inner: M, config: TransportFaultConfig, seed: u64) -> FaultyTransport<M> {
        FaultyTransport {
            inner,
            config,
            rng: StdRng::seed_from_u64(seed),
            remaining_burst: 0,
            injected: InjectedFaults::default(),
            wasted: TokenUsage::default(),
        }
    }

    /// Fault counters so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Draw this call's fate. Exactly five Bernoulli draws (plus the
    /// burst-length / payload draws when applicable) in a fixed order, so
    /// the RNG stream stays aligned across runs regardless of which fault
    /// fires.
    fn draw_fault(&mut self) -> Fate {
        if self.remaining_burst > 0 {
            self.remaining_burst -= 1;
            self.injected.burst_failures += 1;
            // Outages alternate deterministically between the two
            // fail-fast classes a dead backend produces.
            return Fate::Fail(if self.injected.burst_failures.is_multiple_of(2) {
                self.injected.timeouts += 1;
                LlmError::Timeout
            } else {
                self.injected.server_errors += 1;
                LlmError::ServerError
            });
        }
        let timeout = self.rng.gen_bool(self.config.p_timeout.clamp(0.0, 1.0));
        let rate_limit = self.rng.gen_bool(self.config.p_rate_limit.clamp(0.0, 1.0));
        let truncate = self.rng.gen_bool(self.config.p_truncate.clamp(0.0, 1.0));
        let server = self.rng.gen_bool(self.config.p_server_error.clamp(0.0, 1.0));
        let burst = self.rng.gen_bool(self.config.p_burst_start.clamp(0.0, 1.0));
        if burst {
            let (lo, hi) = self.config.burst_len;
            self.remaining_burst = self.rng.gen_range(lo..=hi.max(lo));
            self.injected.bursts += 1;
            self.injected.burst_failures += 1;
            self.injected.server_errors += 1;
            return Fate::Fail(LlmError::ServerError);
        }
        if timeout {
            self.injected.timeouts += 1;
            return Fate::Fail(LlmError::Timeout);
        }
        if rate_limit {
            self.injected.rate_limits += 1;
            let (lo, hi) = self.config.retry_after_ms;
            return Fate::Fail(LlmError::RateLimited {
                retry_after_ms: self.rng.gen_range(lo..=hi.max(lo)),
            });
        }
        if truncate {
            self.injected.truncations += 1;
            return Fate::Truncate(self.rng.gen_range(0.0..0.9));
        }
        if server {
            self.injected.server_errors += 1;
            return Fate::Fail(LlmError::ServerError);
        }
        Fate::Deliver
    }
}

/// One call's drawn outcome.
enum Fate {
    /// Pass through to the wrapped model.
    Deliver,
    /// Fail before the model is reached.
    Fail(LlmError),
    /// Call the model, then cut the response to this length fraction.
    Truncate(f64),
}

/// Cut `text` to roughly `frac` of its length, snapped down to a char
/// boundary — what a dropped connection leaves in the receive buffer.
fn truncate_at_fraction(text: &str, frac: f64) -> String {
    let cut = (text.len() as f64 * frac) as usize;
    let mut cut = cut.min(text.len());
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

impl<M: LanguageModel> LanguageModel for FaultyTransport<M> {
    fn complete(&mut self, prompt: &str) -> Result<String, LlmError> {
        match self.draw_fault() {
            Fate::Deliver => self.inner.complete(prompt),
            Fate::Truncate(frac) => {
                // The backend produced a full answer; the wire lost its
                // tail. The inner call is metered in full (the tokens
                // were generated and billed).
                let full = self.inner.complete(prompt)?;
                Err(LlmError::Truncated { partial: truncate_at_fraction(&full, frac) })
            }
            Fate::Fail(error) => {
                // Failed before a response was produced: the prompt still
                // crossed the wire, so account its tokens as waste.
                self.wasted.record(prompt, "");
                Err(error)
            }
        }
    }

    fn usage(&self) -> TokenUsage {
        let mut usage = self.inner.usage();
        usage.merge(&self.wasted);
        usage
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn export_state(&self) -> Option<crate::ModelState> {
        Some(crate::ModelState::Transport {
            layer: crate::TransportState {
                rng: self.rng.state(),
                remaining_burst: self.remaining_burst,
                injected: self.injected,
                wasted: self.wasted,
            },
            inner: Box::new(self.inner.export_state()?),
        })
    }

    fn import_state(&mut self, state: &crate::ModelState) -> Result<(), String> {
        let crate::ModelState::Transport { layer, inner } = state else {
            return Err(format!(
                "model state mismatch: transport layer given a '{}' state",
                state.layer_name()
            ));
        };
        // Restore the wrapped model first so a shape mismatch deeper in
        // the stack leaves this layer untouched too.
        self.inner.import_state(inner)?;
        self.rng = StdRng::from_state(layer.rng);
        self.remaining_burst = layer.remaining_burst;
        self.injected = layer.injected;
        self.wasted = layer.wasted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that always answers with a fixed payload.
    struct Echo {
        usage: TokenUsage,
    }

    impl LanguageModel for Echo {
        fn complete(&mut self, prompt: &str) -> Result<String, LlmError> {
            let response = format!("SQL:\nSELECT {} FROM t\n", prompt.len());
            self.usage.record(prompt, &response);
            Ok(response)
        }
        fn usage(&self) -> TokenUsage {
            self.usage
        }
        fn model_name(&self) -> &str {
            "echo"
        }
    }

    fn echo() -> Echo {
        Echo { usage: TokenUsage::default() }
    }

    #[test]
    fn no_faults_is_transparent() {
        let mut plain = echo();
        let mut wrapped = FaultyTransport::new(echo(), TransportFaultConfig::none(), 7);
        for i in 0..50 {
            let prompt = format!("prompt {i}");
            assert_eq!(plain.complete(&prompt), wrapped.complete(&prompt));
        }
        assert_eq!(wrapped.injected(), InjectedFaults::default());
        assert_eq!(plain.usage(), wrapped.usage());
    }

    #[test]
    fn fault_sequence_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<String> {
            let mut t = FaultyTransport::new(echo(), TransportFaultConfig::uniform(0.5), seed);
            (0..200)
                .map(|i| match t.complete(&format!("p{i}")) {
                    Ok(s) => format!("ok:{s}"),
                    Err(e) => format!("err:{e}"),
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should diverge");
    }

    #[test]
    fn uniform_rate_injects_roughly_that_many_faults() {
        let mut t = FaultyTransport::new(echo(), TransportFaultConfig::uniform(0.3), 11);
        let n = 1_000;
        let failures = (0..n).filter(|i| t.complete(&format!("p{i}")).is_err()).count();
        let rate = failures as f64 / n as f64;
        // Burst mode makes the realized rate a bit lumpy; wide bounds.
        assert!((0.15..=0.55).contains(&rate), "failure rate {rate}");
        assert_eq!(t.injected().total() as usize, failures);
    }

    #[test]
    fn bursts_fail_consecutively() {
        let config = TransportFaultConfig {
            p_burst_start: 1.0,
            burst_len: (4, 4),
            ..TransportFaultConfig::none()
        };
        let mut t = FaultyTransport::new(echo(), config, 1);
        // Call 1 starts the outage; calls 2–5 ride it out.
        for i in 0..5 {
            assert!(t.complete(&format!("p{i}")).is_err(), "call {i} succeeded");
        }
        assert_eq!(t.injected().bursts, 1);
        assert!(t.injected().burst_failures >= 5);
    }

    #[test]
    fn truncation_returns_a_prefix_of_the_real_response() {
        let config = TransportFaultConfig { p_truncate: 1.0, ..TransportFaultConfig::none() };
        let mut t = FaultyTransport::new(echo(), config, 5);
        let full = echo().complete("hello").unwrap();
        match t.complete("hello") {
            Err(LlmError::Truncated { partial }) => {
                assert!(full.starts_with(&partial), "{partial:?} not a prefix");
                assert!(partial.len() < full.len());
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        assert_eq!(truncate_at_fraction("héllo wörld", 0.0), "");
        for frac in [0.1, 0.3, 0.5, 0.7, 0.99] {
            let cut = truncate_at_fraction("héllo wörld ✂ stream", frac);
            assert!("héllo wörld ✂ stream".starts_with(&cut));
        }
    }

    #[test]
    fn failed_calls_still_meter_the_prompt() {
        let config = TransportFaultConfig { p_timeout: 1.0, ..TransportFaultConfig::none() };
        let mut t = FaultyTransport::new(echo(), config, 9);
        assert!(t.complete("a long enough prompt").is_err());
        assert!(t.usage().input_tokens > 0, "wasted prompt tokens not metered");
        assert_eq!(t.usage().output_tokens, 0);
    }

    #[test]
    fn rate_limits_carry_a_retry_after_in_range() {
        let config = TransportFaultConfig { p_rate_limit: 1.0, ..TransportFaultConfig::none() };
        let mut t = FaultyTransport::new(echo(), config, 13);
        for i in 0..20 {
            match t.complete(&format!("p{i}")) {
                Err(LlmError::RateLimited { retry_after_ms }) => {
                    assert!((100..=1_500).contains(&retry_after_ms));
                }
                other => panic!("expected rate limit, got {other:?}"),
            }
        }
    }
}
