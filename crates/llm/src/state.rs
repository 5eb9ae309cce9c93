//! Checkpointable model state.
//!
//! The pipeline's crash-safe snapshots must capture the LLM stack
//! mid-stream: every layer's RNG position, fault/retry accounting, and
//! breaker/clock state, so a resumed run replays the exact same fault
//! and jitter sequences an uninterrupted run would see. [`ModelState`]
//! mirrors the decorator composition structurally — each wrapper stores
//! its own layer state plus the boxed state of the model it wraps — so
//! any stacking order of [`crate::SyntheticLlm`],
//! [`crate::FaultyTransport`], and [`crate::ResilientLlm`] round-trips
//! without the state type knowing the concrete stack.
//!
//! Models without checkpoint support (e.g. one driven by a real API over
//! a wall clock, whose position in time cannot be restored) return
//! `None` from [`crate::LanguageModel::export_state`]; the driver then
//! refuses to checkpoint rather than writing a snapshot that could not
//! resume bit-identically.

use crate::transport::InjectedFaults;
use crate::usage::TokenUsage;
use crate::ResilienceStats;

/// Complete serializable state of a model stack, one node per layer.
///
/// The tree shape encodes the composition order: a default pipeline
/// stack `ResilientLlm<FaultyTransport<SyntheticLlm>>` exports as
/// `Resilient { .., inner: Transport { .., inner: Synthetic(..) } }`.
/// Import fails with a descriptive error when the tree shape does not
/// match the receiving stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelState {
    /// Leaf: the deterministic offline model.
    Synthetic(SyntheticState),
    /// A [`crate::FaultyTransport`] layer and whatever it wraps.
    Transport {
        /// The transport layer's own state.
        layer: TransportState,
        /// State of the wrapped model.
        inner: Box<ModelState>,
    },
    /// A [`crate::ResilientLlm`] layer and whatever it wraps.
    Resilient {
        /// The retry/breaker layer's own state.
        layer: ResilientState,
        /// State of the wrapped model.
        inner: Box<ModelState>,
    },
}

/// [`crate::SyntheticLlm`] state: RNG position, token metering, and the
/// per-specification repair-attempt counters that drive fault decay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticState {
    /// xoshiro256++ state words of the content-fault RNG.
    pub rng: [u64; 4],
    /// Cumulative token usage.
    pub usage: TokenUsage,
    /// `(spec id, attempts)` pairs, sorted ascending by spec id so the
    /// serialized form is canonical regardless of map iteration order.
    pub attempts: Vec<(u32, u32)>,
}

/// [`crate::FaultyTransport`] state: fault RNG, outage progress, and
/// injected-fault/wasted-token accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportState {
    /// xoshiro256++ state words of the fault-draw RNG.
    pub rng: [u64; 4],
    /// Calls left in the current correlated outage.
    pub remaining_burst: u32,
    /// Injected-fault counters.
    pub injected: InjectedFaults,
    /// Tokens wasted on prompts that failed before reaching the model.
    pub wasted: TokenUsage,
}

/// [`crate::ResilientLlm`] state: jitter RNG, virtual-clock position,
/// breaker state, remaining retry budget, and resilience counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientState {
    /// xoshiro256++ state words of the jitter RNG.
    pub rng: [u64; 4],
    /// Virtual-clock position, milliseconds.
    pub now_ms: u64,
    /// Circuit-breaker state.
    pub breaker: BreakerSnapshot,
    /// Retry budget remaining for the run.
    pub retries_left: u64,
    /// Resilience counters so far.
    pub stats: ResilienceStats,
}

/// Serializable mirror of the breaker's three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerSnapshot {
    /// Normal operation with a consecutive-failure count.
    Closed {
        /// Failures seen in a row while closed.
        consecutive_failures: u32,
    },
    /// Failing fast until the cooldown deadline (virtual ms).
    Open {
        /// Clock reading at which a half-open probe is admitted.
        until_ms: u64,
    },
    /// One probe in flight.
    HalfOpen,
}

impl ModelState {
    /// Short name of the outermost layer, for error messages.
    pub fn layer_name(&self) -> &'static str {
        match self {
            ModelState::Synthetic(_) => "synthetic",
            ModelState::Transport { .. } => "transport",
            ModelState::Resilient { .. } => "resilient",
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::faults::FaultConfig;
    use crate::{
        FaultyTransport, LanguageModel, ModelState, ResilientLlm, RetryPolicy, SyntheticLlm,
        TransportFaultConfig,
    };

    type Stack = ResilientLlm<FaultyTransport<SyntheticLlm>>;

    fn stack(seed: u64) -> Stack {
        ResilientLlm::new(
            FaultyTransport::new(
                SyntheticLlm::new(FaultConfig::default(), seed ^ 1),
                TransportFaultConfig::uniform(0.3),
                seed ^ 2,
            ),
            RetryPolicy::default(),
            seed ^ 3,
        )
    }

    fn prompt(i: usize) -> String {
        let schema = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
            .schema_summary();
        crate::PromptBuilder::new(crate::protocol::TASK_GENERATE)
            .schema(&schema)
            .spec(&sqlkit::TemplateSpec::new(i as u32).with_tables(1))
            .build()
    }

    fn transcript(llm: &mut Stack, calls: usize) -> Vec<String> {
        (0..calls)
            .map(|i| match llm.complete(&prompt(i)) {
                Ok(s) => format!("ok:{s}"),
                Err(e) => format!("err:{e}"),
            })
            .collect()
    }

    #[test]
    fn full_stack_state_round_trips_mid_stream() {
        // Drive one stack partway, capture, restore into a *fresh* stack
        // with different seeds, and require both to produce identical
        // futures — the property resume correctness rests on.
        let mut original = stack(42);
        transcript(&mut original, 40);
        let state = original.export_state().expect("default stack is checkpointable");

        let mut restored = stack(999);
        restored.import_state(&state).unwrap();
        assert_eq!(restored.export_state().as_ref(), Some(&state), "capture is lossless");

        assert_eq!(transcript(&mut original, 60), transcript(&mut restored, 60));
        assert_eq!(original.resilience(), restored.resilience());
        assert_eq!(original.usage(), restored.usage());
        assert_eq!(original.now_ms(), restored.now_ms());
    }

    #[test]
    fn shape_mismatch_is_a_typed_error_not_a_panic() {
        let state = stack(7).export_state().unwrap();
        let ModelState::Resilient { inner, .. } = &state else { unreachable!() };

        let mut bare = SyntheticLlm::reliable(1);
        let err = bare.import_state(&state).unwrap_err();
        assert!(err.contains("resilient"), "{err}");
        // The transport node under the resilient root also mismatches.
        let err = bare.import_state(inner).unwrap_err();
        assert!(err.contains("transport"), "{err}");
    }
}
