//! Transport-level error taxonomy.
//!
//! [`crate::faults`] models *content* failures — the model answers, but
//! hallucinates. This module models *transport* failures — the completion
//! API never delivers a usable answer at all: timeouts, rate limits,
//! truncated streams, 5xx responses. The two layers are independent: a
//! response can arrive intact and still be wrong, and a perfect model is
//! useless behind a flaky connection. Algorithm 1 repairs the former;
//! [`crate::resilient::ResilientLlm`] absorbs the latter.

/// Why a completion call failed to produce a usable response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlmError {
    /// The request exceeded its deadline; nothing came back.
    Timeout,
    /// The API rejected the request for quota reasons and suggested a
    /// wait before retrying (the HTTP 429 `Retry-After` contract).
    RateLimited {
        /// Server-suggested wait in milliseconds.
        retry_after_ms: u64,
    },
    /// The stream died mid-response. `partial` is whatever arrived; it is
    /// NOT trustworthy — callers that try to salvage it must survive
    /// arbitrary prefixes (see the `fallible_properties` proptests).
    Truncated {
        /// The prefix of the response that was received.
        partial: String,
    },
    /// The API returned a 5xx-class internal error.
    ServerError,
    /// The local circuit breaker is open: recent calls failed so
    /// consistently that the client refuses to send more until the
    /// cooldown elapses. The request was never sent.
    CircuitOpen,
    /// The response arrived intact but does not follow the expected
    /// protocol (unparseable verdict, missing `SQL:` section). Surfaced
    /// by call sites, not by transports — it counts as a failed attempt
    /// rather than being silently swallowed.
    Malformed {
        /// What the caller was trying to parse out of the response.
        expected: &'static str,
    },
}

impl LlmError {
    /// Whether a retry of the same request can plausibly succeed.
    ///
    /// `CircuitOpen` is not retryable *now* — the breaker exists to stop
    /// hammering a failing backend; later calls probe it. `Malformed` is
    /// retryable content-wise, but the retry decision belongs to the
    /// pipeline (a fix/regenerate round), not the transport loop.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            LlmError::Timeout
                | LlmError::RateLimited { .. }
                | LlmError::Truncated { .. }
                | LlmError::ServerError
        )
    }

    /// Server-mandated minimum wait before a retry, if any.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            LlmError::RateLimited { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// Short machine-readable label (for logs and counters).
    pub fn kind(&self) -> &'static str {
        match self {
            LlmError::Timeout => "timeout",
            LlmError::RateLimited { .. } => "rate_limited",
            LlmError::Truncated { .. } => "truncated",
            LlmError::ServerError => "server_error",
            LlmError::CircuitOpen => "circuit_open",
            LlmError::Malformed { .. } => "malformed",
        }
    }
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmError::Timeout => write!(f, "completion request timed out"),
            LlmError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited; retry after {retry_after_ms} ms")
            }
            LlmError::Truncated { partial } => {
                write!(f, "response truncated after {} bytes", partial.len())
            }
            LlmError::ServerError => write!(f, "completion API internal error"),
            LlmError::CircuitOpen => {
                write!(f, "circuit breaker open; request not sent")
            }
            LlmError::Malformed { expected } => {
                write!(f, "response did not contain a parseable {expected}")
            }
        }
    }
}

impl std::error::Error for LlmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_matches_the_taxonomy() {
        assert!(LlmError::Timeout.is_retryable());
        assert!(LlmError::RateLimited { retry_after_ms: 10 }.is_retryable());
        assert!(LlmError::Truncated { partial: String::new() }.is_retryable());
        assert!(LlmError::ServerError.is_retryable());
        assert!(!LlmError::CircuitOpen.is_retryable());
        assert!(!LlmError::Malformed { expected: "SQL" }.is_retryable());
    }

    #[test]
    fn retry_after_only_for_rate_limits() {
        assert_eq!(LlmError::RateLimited { retry_after_ms: 250 }.retry_after_ms(), Some(250));
        assert_eq!(LlmError::Timeout.retry_after_ms(), None);
    }

    #[test]
    fn display_is_informative() {
        let e = LlmError::Truncated { partial: "SQL:\nSELECT".into() };
        assert!(e.to_string().contains("truncated"));
        assert_eq!(e.kind(), "truncated");
        assert!(LlmError::Malformed { expected: "verdict" }.to_string().contains("verdict"));
    }
}
