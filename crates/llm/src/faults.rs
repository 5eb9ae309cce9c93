//! Hallucination fault model.
//!
//! LLMs "can generate plausible but factually incorrect or nonsensical
//! information" (§1) — that failure mode is what Algorithm 1 exists to
//! repair, and what Figure 8(a) measures. The synthetic model injects
//! three fault classes at seeded rates:
//!
//! * **syntax faults** — the emitted text does not parse (dropped
//!   parenthesis, misspelled keyword);
//! * **wrong columns** — syntactically fine, but references a column the
//!   schema does not have (the classic schema hallucination; it fails
//!   `ValidateSyntax` with `column … does not exist`);
//! * **spec violations** — executable SQL that misses a structural
//!   requirement (wrong join/aggregation count, missing subquery or
//!   `GROUP BY`).
//!
//! Default rates are calibrated to the paper's starting point (24
//! templates: ~8 executable, ~2 spec-compliant), and decay geometrically
//! per repair attempt, reproducing the ≤4-attempt convergence.

use rand::rngs::StdRng;
use rand::Rng;

/// Fault probabilities and repair dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of emitting unparseable SQL on a fresh generation.
    pub p_syntax: f64,
    /// Probability of hallucinating a column name.
    pub p_wrong_column: f64,
    /// Probability of violating the structural specification.
    pub p_spec_violation: f64,
    /// Multiplier applied to all rates per repair attempt (feedback makes
    /// the model increasingly likely to get it right).
    pub repair_decay: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            p_syntax: 0.5,
            p_wrong_column: 0.3,
            p_spec_violation: 0.9,
            repair_decay: 0.35,
        }
    }
}

impl FaultConfig {
    /// A perfectly reliable model (for tests and ablations).
    pub fn none() -> FaultConfig {
        FaultConfig { p_syntax: 0.0, p_wrong_column: 0.0, p_spec_violation: 0.0, repair_decay: 1.0 }
    }

    /// Rates after `attempts` rounds of feedback.
    pub fn at_attempt(&self, attempts: u32) -> FaultConfig {
        let factor = self.repair_decay.powi(attempts as i32);
        FaultConfig {
            p_syntax: self.p_syntax * factor,
            p_wrong_column: self.p_wrong_column * factor,
            p_spec_violation: self.p_spec_violation * factor,
            repair_decay: self.repair_decay,
        }
    }
}

/// Which faults fire for one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDraw {
    pub syntax: bool,
    pub wrong_column: bool,
    pub spec_violation: bool,
}

impl FaultDraw {
    /// Draw faults for a generation at the given attempt number.
    pub fn sample(config: &FaultConfig, attempts: u32, rng: &mut StdRng) -> FaultDraw {
        let rates = config.at_attempt(attempts);
        FaultDraw {
            syntax: rng.gen_bool(rates.p_syntax.clamp(0.0, 1.0)),
            wrong_column: rng.gen_bool(rates.p_wrong_column.clamp(0.0, 1.0)),
            spec_violation: rng.gen_bool(rates.p_spec_violation.clamp(0.0, 1.0)),
        }
    }
}

/// Apply a syntax-breaking text mutation.
pub fn break_syntax(sql: &str, rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => sql.replacen("FROM", "FORM", 1),
        1 => match sql.rfind(')') {
            Some(idx) => {
                let mut s = sql.to_string();
                s.remove(idx);
                s
            }
            None => format!("{sql} WHERE"),
        },
        2 => sql.replacen("SELECT", "SELECT ,", 1),
        _ => format!("{sql} ORDER BY"),
    }
}

/// Corrupt one column identifier so it no longer exists in the schema.
/// Identifier occurrences are replaced at the text level, mimicking how a
/// model misremembers a name everywhere it writes it.
pub fn corrupt_column(sql: &str, column: &str) -> String {
    // Whole-token replacement: avoid matching inside longer identifiers.
    let mut out = String::with_capacity(sql.len() + 3);
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < sql.len() {
        if sql[i..].starts_with(column) {
            let before_ok =
                i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            let end = i + column.len();
            let after_ok =
                end >= sql.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
            if before_ok && after_ok {
                out.push_str(column);
                out.push_str("_zz");
                i = end;
                continue;
            }
        }
        let ch = sql[i..].chars().next().unwrap();
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_rates_match_figure_8a_starting_point() {
        let config = FaultConfig::default();
        // Expected executable fraction ≈ (1-0.5)(1-0.3) = 0.35 → ~8/24.
        let executable = (1.0 - config.p_syntax) * (1.0 - config.p_wrong_column);
        assert!((executable * 24.0 - 8.4).abs() < 1.0);
        // Expected spec-compliant ≈ 0.1 → ~2/24.
        assert!(((1.0 - config.p_spec_violation) * 24.0 - 2.4).abs() < 1.0);
    }

    #[test]
    fn rates_decay_per_attempt() {
        let config = FaultConfig::default();
        let after3 = config.at_attempt(3);
        assert!(after3.p_syntax < 0.03);
        assert!(after3.p_spec_violation < 0.05);
    }

    #[test]
    fn break_syntax_makes_unparseable_sql() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let broken = break_syntax("SELECT a FROM t WHERE ABS(a) > 1", &mut rng);
            assert!(sqlkit::parse_select(&broken).is_err(), "still parses: {broken}");
        }
    }

    #[test]
    fn corrupt_column_replaces_whole_tokens_only() {
        let sql = "SELECT t.order_amount, t.order_amount_total FROM t \
                   WHERE t.order_amount > {p_1}";
        let corrupted = corrupt_column(sql, "order_amount");
        assert!(corrupted.contains("order_amount_zz,"));
        assert!(corrupted.contains("order_amount_zz >"));
        // the longer identifier is untouched
        assert!(corrupted.contains("order_amount_total"));
    }

    #[test]
    fn no_fault_config_never_draws() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let draw = FaultDraw::sample(&FaultConfig::none(), 0, &mut rng);
            assert_eq!(draw, FaultDraw::default());
        }
    }
}
