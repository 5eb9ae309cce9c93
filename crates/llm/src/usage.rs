//! Token accounting and pricing.
//!
//! Reproduces the paper's Table 2 cost study: every LLM call is metered in
//! input/output tokens and priced with o3-mini-style per-million-token
//! rates. Token counting uses the standard chars/4 approximation (the
//! paper reports totals in the hundreds of K, where the approximation
//! error is immaterial).

/// o3-mini input price, USD per million tokens.
pub const INPUT_PRICE_PER_MTOK: f64 = 1.10;
/// o3-mini output price, USD per million tokens.
pub const OUTPUT_PRICE_PER_MTOK: f64 = 4.40;

/// Approximate token count of a text (≈ 4 characters per token).
pub fn count_tokens(text: &str) -> u64 {
    (text.len() as u64).div_ceil(4)
}

/// Cumulative usage across LLM calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenUsage {
    /// Prompt tokens consumed.
    pub input_tokens: u64,
    /// Completion tokens produced.
    pub output_tokens: u64,
    /// Number of API calls.
    pub requests: u64,
}

impl TokenUsage {
    /// Record one request/response pair.
    pub fn record(&mut self, prompt: &str, response: &str) {
        self.input_tokens += count_tokens(prompt);
        self.output_tokens += count_tokens(response);
        self.requests += 1;
    }

    /// Total tokens (the paper's "Tokens (K)" column counts both sides).
    pub fn total_tokens(&self) -> u64 {
        self.input_tokens + self.output_tokens
    }

    /// Monetary cost in USD under o3-mini pricing.
    pub fn cost_usd(&self) -> f64 {
        self.input_tokens as f64 / 1e6 * INPUT_PRICE_PER_MTOK
            + self.output_tokens as f64 / 1e6 * OUTPUT_PRICE_PER_MTOK
    }

    /// Merge another usage record into this one.
    pub fn merge(&mut self, other: &TokenUsage) {
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
        self.requests += other.requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_count_rounds_up() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("abc"), 1);
        assert_eq!(count_tokens("abcd"), 1);
        assert_eq!(count_tokens("abcde"), 2);
    }

    #[test]
    fn record_and_cost() {
        let mut usage = TokenUsage::default();
        usage.record(&"x".repeat(4_000_000), &"y".repeat(4_000_000));
        assert_eq!(usage.input_tokens, 1_000_000);
        assert_eq!(usage.output_tokens, 1_000_000);
        assert_eq!(usage.requests, 1);
        assert!((usage.cost_usd() - 5.50).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_cost_is_dollars_not_cents() {
        // Table 2: ~500K total tokens ↔ ~$1.5.
        let usage = TokenUsage { input_tokens: 300_000, output_tokens: 210_000, requests: 100 };
        let cost = usage.cost_usd();
        assert!(cost > 0.8 && cost < 2.5, "cost {cost}");
        assert_eq!(usage.total_tokens(), 510_000);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TokenUsage { input_tokens: 1, output_tokens: 2, requests: 3 };
        a.merge(&TokenUsage { input_tokens: 10, output_tokens: 20, requests: 30 });
        assert_eq!(a, TokenUsage { input_tokens: 11, output_tokens: 22, requests: 33 });
    }
}
