//! Template specifications and compliance checking.
//!
//! A [`TemplateSpec`] is the machine form of the paper's Definition 2.5: a
//! mix of numerical constraints (`num_tables`, `num_joins`,
//! `num_aggregations` — the attributes the Redset workload annotates every
//! template with) and natural-language [`Instruction`]s ("have a nested
//! subquery", "use GROUP BY", "have three predicates", …).
//!
//! [`TemplateSpec::check`] diffs a template's [`TemplateFeatures`] against
//! the spec and returns the list of violations; this is the ground truth
//! that both the synthetic LLM's `ValidateSemantics` and the Template
//! Alignment Accuracy metric are built on.

use crate::features::TemplateFeatures;
use std::convert::Infallible;
use std::fmt;

/// A natural-language instruction constraining template structure.
///
/// The paper's evaluation uses three instructions (nested subquery,
/// number of predicates, GROUP BY); `NoJoins` and
/// `ComplexScalarExpressions` come from its business-intelligence
/// motivating example ("an SQL template with no joins but with complex
/// scalar expressions", Example 2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// The template must contain a nested subquery.
    NestedSubquery,
    /// The template must contain exactly this many placeholder predicates.
    NumPredicates(u32),
    /// The template must use `GROUP BY`.
    GroupBy,
    /// The template must not contain any join.
    NoJoins,
    /// The `SELECT` list must contain complex scalar expressions
    /// (arithmetic / `CASE` / scalar functions), complexity ≥ 3.
    ComplexScalarExpressions,
    /// The template must have an `ORDER BY` clause.
    OrderBy,
    /// The template must apply `DISTINCT`.
    Distinct,
}

impl Instruction {
    /// Parse a natural-language instruction. Matching is keyword-based and
    /// case-insensitive, tolerant to phrasing ("have a nested subquery",
    /// "include one nested subquery", …). Returns `None` when the sentence
    /// matches no known constraint, or asks for a number of predicates
    /// that is not a `u32`.
    pub fn parse(text: &str) -> Option<Instruction> {
        unfailing(Self::parse_counting(text, &mut lenient_count))
    }

    /// [`Instruction::parse`], refusing a predicate count above
    /// [`MAX_SPEC_COUNT`] or past `u32` instead of passing it on or
    /// ignoring the sentence.
    pub fn try_parse(text: &str) -> Result<Option<Instruction>, SpecError> {
        Self::parse_counting(text, &mut checked_count)
    }

    /// The one instruction parser: `count(key, digits)` turns a count
    /// written in digits into its value (`None` drops the sentence).
    fn parse_counting<E>(text: &str, count: &mut Count<'_, E>) -> Result<Option<Instruction>, E> {
        let lower = text.to_ascii_lowercase();
        if lower.contains("subquery") || lower.contains("sub-query") {
            return Ok(Some(Instruction::NestedSubquery));
        }
        if lower.contains("no join")
            || lower.contains("without join")
            || lower.contains("zero join")
        {
            return Ok(Some(Instruction::NoJoins));
        }
        if lower.contains("scalar expression") || lower.contains("scalar expr") {
            return Ok(Some(Instruction::ComplexScalarExpressions));
        }
        if lower.contains("group by") || lower.contains("groupby") {
            return Ok(Some(Instruction::GroupBy));
        }
        if lower.contains("order by") || lower.contains("orderby") {
            return Ok(Some(Instruction::OrderBy));
        }
        if lower.contains("distinct") || lower.contains("unique") {
            return Ok(Some(Instruction::Distinct));
        }
        if lower.contains("predicate") {
            let n = match count_token(&lower) {
                Some(token) => match COUNT_WORDS.iter().find(|(word, _)| *word == token) {
                    Some(&(_, n)) => Some(n),
                    None => count("predicates", token)?,
                },
                None => None,
            };
            return Ok(n.map(Instruction::NumPredicates));
        }
        Ok(None)
    }

    /// Human-readable phrasing, used when building prompts.
    pub fn describe(&self) -> String {
        match self {
            Instruction::NestedSubquery => "include a nested subquery".into(),
            Instruction::NumPredicates(n) => {
                format!("have exactly {n} predicate placeholder(s)")
            }
            Instruction::GroupBy => "use the GROUP BY operator".into(),
            Instruction::NoJoins => "contain no joins".into(),
            Instruction::ComplexScalarExpressions => "project complex scalar expressions".into(),
            Instruction::OrderBy => "include an ORDER BY clause".into(),
            Instruction::Distinct => "apply DISTINCT to the result".into(),
        }
    }
}

/// The largest count a declarative spec may ask for: tables, joins,
/// aggregations or predicates. Each count drives a synthesis loop, so an
/// unbounded one could exhaust memory or run for hours; real templates
/// stay far below it (Redset's have at most 8 joins).
pub const MAX_SPEC_COUNT: u32 = 64;

/// Why [`TemplateSpec::try_parse_declarative`] refused a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A count that is not a whole number (`tables=-1`, `joins=two`).
    MalformedCount {
        /// The key as written (`tables`, `aggs`, …), or `predicates`.
        key: String,
        /// The value as written.
        value: String,
    },
    /// A count above [`MAX_SPEC_COUNT`].
    CountAboveCap {
        /// The key as written (`tables`, `aggs`, …), or `predicates`.
        key: String,
        /// The value as written.
        value: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::MalformedCount { key, value } => {
                write!(f, "{key} count `{value}` is not a whole number")
            }
            SpecError::CountAboveCap { key, value } => {
                write!(f, "{key} count {value} is above the cap of {MAX_SPEC_COUNT}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Turns a spec count, given its key and its digits as written, into its
/// value; `Ok(None)` drops the constraint.
type Count<'a, E> = dyn FnMut(&str, &str) -> Result<Option<u32>, E> + 'a;

/// The lenient [`Count`]: any `u32`, and no constraint for anything else.
fn lenient_count(_key: &str, value: &str) -> Result<Option<u32>, Infallible> {
    Ok(value.parse().ok())
}

/// The strict [`Count`]: a whole number up to [`MAX_SPEC_COUNT`].
fn checked_count(key: &str, value: &str) -> Result<Option<u32>, SpecError> {
    let digits = value.strip_prefix('+').unwrap_or(value);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(SpecError::MalformedCount { key: key.into(), value: value.into() });
    }
    match value.parse::<u32>() {
        Ok(n) if n <= MAX_SPEC_COUNT => Ok(Some(n)),
        _ => Err(SpecError::CountAboveCap { key: key.into(), value: value.into() }),
    }
}

/// The value of a parse that cannot fail.
fn unfailing<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// Count words a natural-language instruction may use.
const COUNT_WORDS: [(&str, u32); 10] = [
    ("one", 1),
    ("two", 2),
    ("three", 3),
    ("four", 4),
    ("five", 5),
    ("six", 6),
    ("seven", 7),
    ("eight", 8),
    ("nine", 9),
    ("ten", 10),
];

/// The first count in a lowercase sentence, as written: a count word or
/// a run of digits.
fn count_token(lower: &str) -> Option<&str> {
    lower.split(|c: char| !c.is_ascii_alphanumeric()).find(|token| {
        (!token.is_empty() && token.bytes().all(|b| b.is_ascii_digit()))
            || COUNT_WORDS.iter().any(|(word, _)| word == token)
    })
}

/// A specification for one SQL template (Definition 2.5).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TemplateSpec {
    /// Identifier, matching the paper's `template id` JSON attribute.
    pub id: u32,
    /// Required number of distinct base tables accessed.
    pub num_tables: Option<u32>,
    /// Required number of joins.
    pub num_joins: Option<u32>,
    /// Required number of aggregations.
    pub num_aggregations: Option<u32>,
    /// Structural natural-language instructions.
    pub instructions: Vec<Instruction>,
}

impl TemplateSpec {
    /// New empty spec with an id.
    pub fn new(id: u32) -> Self {
        TemplateSpec { id, ..Default::default() }
    }

    /// Builder: constrain the number of tables.
    pub fn with_tables(mut self, n: u32) -> Self {
        self.num_tables = Some(n);
        self
    }

    /// Builder: constrain the number of joins.
    pub fn with_joins(mut self, n: u32) -> Self {
        self.num_joins = Some(n);
        self
    }

    /// Builder: constrain the number of aggregations.
    pub fn with_aggregations(mut self, n: u32) -> Self {
        self.num_aggregations = Some(n);
        self
    }

    /// Builder: add a structured instruction.
    pub fn with_instruction(mut self, instruction: Instruction) -> Self {
        self.instructions.push(instruction);
        self
    }

    /// Builder: add a natural-language instruction; sentences that match no
    /// known constraint are ignored (the paper's system likewise only
    /// enforces constraints the validator can check).
    pub fn with_nl_instruction(mut self, text: &str) -> Self {
        if let Some(instruction) = Instruction::parse(text) {
            self.instructions.push(instruction);
        }
        self
    }

    /// Parse a declarative one-line spec: optional `key=value` tokens
    /// (`tables`, `joins`, `aggregations`/`aggs`) followed by `;`-separated
    /// natural-language instructions. Lenient: a count that is not a `u32`
    /// clears its constraint, and any `u32` count is taken as written (see
    /// [`TemplateSpec::try_parse_declarative`] for the checked form).
    /// Examples:
    ///
    /// ```
    /// use sqlkit::TemplateSpec;
    /// let spec = TemplateSpec::parse_declarative(
    ///     1,
    ///     "tables=3 joins=2 aggs=1; include a nested subquery; use GROUP BY",
    /// );
    /// assert_eq!(spec.num_tables, Some(3));
    /// assert_eq!(spec.num_joins, Some(2));
    /// assert_eq!(spec.num_aggregations, Some(1));
    /// assert_eq!(spec.instructions.len(), 2);
    /// ```
    pub fn parse_declarative(id: u32, text: &str) -> TemplateSpec {
        unfailing(Self::parse_counting(id, text, &mut lenient_count))
    }

    /// [`TemplateSpec::parse_declarative`], refusing any count that is
    /// not a whole number or is above [`MAX_SPEC_COUNT`]:
    ///
    /// ```
    /// use sqlkit::{SpecError, TemplateSpec};
    /// assert!(TemplateSpec::try_parse_declarative(1, "joins=2; have 3 predicates").is_ok());
    /// assert!(matches!(
    ///     TemplateSpec::try_parse_declarative(1, "joins=4294967295"),
    ///     Err(SpecError::CountAboveCap { .. })
    /// ));
    /// assert!(matches!(
    ///     TemplateSpec::try_parse_declarative(1, "tables=-1"),
    ///     Err(SpecError::MalformedCount { .. })
    /// ));
    /// ```
    pub fn try_parse_declarative(id: u32, text: &str) -> Result<TemplateSpec, SpecError> {
        Self::parse_counting(id, text, &mut checked_count)
    }

    /// The one declarative parser, counting with `count`.
    fn parse_counting<E>(id: u32, text: &str, count: &mut Count<'_, E>) -> Result<TemplateSpec, E> {
        let mut spec = TemplateSpec::new(id);
        let mut parts = text.split(';');
        // First segment may carry key=value constraints; everything that
        // is not a recognized key=value is treated as NL.
        if let Some(first) = parts.next() {
            let mut leftover = Vec::new();
            for token in first.split_whitespace() {
                let (key, value) = match token.split_once('=') {
                    Some(pair @ ("tables" | "joins" | "aggregations" | "aggs", _)) => pair,
                    _ => {
                        leftover.push(token);
                        continue;
                    }
                };
                let n = count(key, value)?;
                match key {
                    "tables" => spec.num_tables = n,
                    "joins" => spec.num_joins = n,
                    _ => spec.num_aggregations = n,
                }
            }
            if !leftover.is_empty() {
                spec.instructions.extend(Instruction::parse_counting(&leftover.join(" "), count)?);
            }
        }
        for sentence in parts {
            spec.instructions.extend(Instruction::parse_counting(sentence, count)?);
        }
        Ok(spec)
    }

    /// Check a template's features against this spec, returning every
    /// violation (empty = compliant). This is the ground-truth predicate
    /// behind the paper's `ValidateSemantics` LLM call.
    pub fn check(&self, features: &TemplateFeatures) -> Vec<SpecViolation> {
        let mut violations = Vec::new();
        if let Some(expected) = self.num_tables {
            if features.num_tables != expected {
                violations.push(SpecViolation::count(
                    "num_tables_accessed",
                    expected,
                    features.num_tables,
                ));
            }
        }
        if let Some(expected) = self.num_joins {
            if features.num_joins != expected {
                violations.push(SpecViolation::count("num_joins", expected, features.num_joins));
            }
        }
        if let Some(expected) = self.num_aggregations {
            if features.num_aggregations != expected {
                violations.push(SpecViolation::count(
                    "num_aggregations",
                    expected,
                    features.num_aggregations,
                ));
            }
        }
        for instruction in &self.instructions {
            let ok = match instruction {
                Instruction::NestedSubquery => features.has_nested_subquery(),
                Instruction::NumPredicates(n) => features.num_placeholders == *n,
                Instruction::GroupBy => features.has_group_by,
                Instruction::NoJoins => features.num_joins == 0,
                Instruction::ComplexScalarExpressions => features.scalar_complexity >= 3,
                Instruction::OrderBy => features.has_order_by,
                Instruction::Distinct => features.has_distinct,
            };
            if !ok {
                violations.push(SpecViolation::instruction(*instruction, features));
            }
        }
        violations
    }

    /// True when the template satisfies every constraint.
    pub fn is_satisfied_by(&self, features: &TemplateFeatures) -> bool {
        self.check(features).is_empty()
    }
}

/// One violated constraint, phrased for LLM feedback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecViolation {
    /// Constraint name, e.g. `num_joins` or `nested_subquery`.
    pub constraint: String,
    /// Expected value/behaviour.
    pub expected: String,
    /// Observed value/behaviour.
    pub actual: String,
}

impl SpecViolation {
    fn count(constraint: &str, expected: u32, actual: u32) -> Self {
        SpecViolation {
            constraint: constraint.into(),
            expected: expected.to_string(),
            actual: actual.to_string(),
        }
    }

    fn instruction(instruction: Instruction, features: &TemplateFeatures) -> Self {
        let (constraint, expected, actual) = match instruction {
            Instruction::NestedSubquery => (
                "nested_subquery",
                "present".to_string(),
                format!("{} subqueries", features.num_subqueries),
            ),
            Instruction::NumPredicates(n) => {
                ("num_predicate_placeholders", n.to_string(), features.num_placeholders.to_string())
            }
            Instruction::GroupBy => ("group_by", "present".to_string(), "absent".to_string()),
            Instruction::NoJoins => {
                ("no_joins", "0 joins".to_string(), format!("{} joins", features.num_joins))
            }
            Instruction::ComplexScalarExpressions => (
                "complex_scalar_expressions",
                "complexity >= 3".to_string(),
                format!("complexity {}", features.scalar_complexity),
            ),
            Instruction::OrderBy => ("order_by", "present".to_string(), "absent".to_string()),
            Instruction::Distinct => ("distinct", "present".to_string(), "absent".to_string()),
        };
        SpecViolation { constraint: constraint.into(), expected, actual }
    }
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint {} violated: expected {}, got {}",
            self.constraint, self.expected, self.actual
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_template;

    #[test]
    fn nl_parsing_recognizes_paper_instructions() {
        assert_eq!(
            Instruction::parse("The template should have a nested subquery"),
            Some(Instruction::NestedSubquery)
        );
        assert_eq!(
            Instruction::parse("use three predicate values"),
            Some(Instruction::NumPredicates(3))
        );
        assert_eq!(
            Instruction::parse("make sure to use the GROUP BY operator"),
            Some(Instruction::GroupBy)
        );
        assert_eq!(Instruction::parse("I want no joins in this one"), Some(Instruction::NoJoins));
        assert_eq!(
            Instruction::parse("include complex scalar expressions"),
            Some(Instruction::ComplexScalarExpressions)
        );
        assert_eq!(Instruction::parse("make the weather sunny"), None);
    }

    #[test]
    fn numeric_predicate_counts_parse_digits_and_words() {
        assert_eq!(Instruction::parse("have 5 predicates"), Some(Instruction::NumPredicates(5)));
        assert_eq!(Instruction::parse("have two predicates"), Some(Instruction::NumPredicates(2)));
    }

    #[test]
    fn check_reports_every_violation() {
        let spec = TemplateSpec::new(1)
            .with_tables(2)
            .with_joins(1)
            .with_instruction(Instruction::GroupBy);
        let t = parse_template("SELECT x FROM t WHERE x > {p_1}").unwrap();
        let violations = spec.check(&t.features());
        let names: Vec<_> = violations.iter().map(|v| v.constraint.as_str()).collect();
        assert_eq!(names, vec!["num_tables_accessed", "num_joins", "group_by"]);
    }

    #[test]
    fn compliant_template_passes() {
        let spec = TemplateSpec::new(1)
            .with_tables(2)
            .with_joins(1)
            .with_aggregations(1)
            .with_instruction(Instruction::GroupBy)
            .with_instruction(Instruction::NumPredicates(1));
        let t = parse_template(
            "SELECT a.x, SUM(b.y) FROM a JOIN b ON a.id = b.id \
             WHERE b.z > {p_1} GROUP BY a.x",
        )
        .unwrap();
        assert!(spec.is_satisfied_by(&t.features()));
    }

    #[test]
    fn bi_spec_no_joins_complex_scalars() {
        let spec = TemplateSpec::new(2)
            .with_instruction(Instruction::NoJoins)
            .with_instruction(Instruction::ComplexScalarExpressions);
        let good = parse_template(
            "SELECT (a + b) * c, CASE WHEN a > 0 THEN a ELSE -a END FROM t WHERE a > {p_1}",
        )
        .unwrap();
        assert!(spec.is_satisfied_by(&good.features()));
        let bad = parse_template("SELECT a FROM t JOIN u ON t.id = u.id").unwrap();
        assert_eq!(spec.check(&bad.features()).len(), 2);
    }

    #[test]
    fn violation_display_is_feedback_ready() {
        let spec = TemplateSpec::new(1).with_joins(3);
        let t = parse_template("SELECT x FROM t").unwrap();
        let v = &spec.check(&t.features())[0];
        assert_eq!(v.to_string(), "constraint num_joins violated: expected 3, got 0");
    }

    #[test]
    fn declarative_parsing_handles_mixed_forms() {
        let spec =
            TemplateSpec::parse_declarative(7, "tables=2 joins=1; have two predicate values");
        assert_eq!(spec.id, 7);
        assert_eq!(spec.num_tables, Some(2));
        assert_eq!(spec.num_joins, Some(1));
        assert_eq!(spec.num_aggregations, None);
        assert_eq!(spec.instructions, vec![Instruction::NumPredicates(2)]);

        // pure natural language, no key=value segment
        let nl_only = TemplateSpec::parse_declarative(1, "include a nested subquery");
        assert_eq!(nl_only.instructions, vec![Instruction::NestedSubquery]);

        // aggs alias
        let aliased = TemplateSpec::parse_declarative(1, "aggs=3");
        assert_eq!(aliased.num_aggregations, Some(3));
    }

    #[test]
    fn checked_parsing_refuses_malformed_and_huge_counts() {
        let refused = |text: &str| TemplateSpec::try_parse_declarative(1, text).unwrap_err();
        let above = |key: &str, value: &str| SpecError::CountAboveCap {
            key: key.into(),
            value: value.into(),
        };
        let malformed = |key: &str, value: &str| SpecError::MalformedCount {
            key: key.into(),
            value: value.into(),
        };
        assert_eq!(refused("joins=4294967295"), above("joins", "4294967295"));
        assert_eq!(refused("aggregations=4294967295"), above("aggregations", "4294967295"));
        assert_eq!(refused("tables=99999999999999999999"), above("tables", "99999999999999999999"));
        assert_eq!(refused("aggs=65"), above("aggs", "65"));
        assert_eq!(refused("have 4294967295 predicates"), above("predicates", "4294967295"));
        assert_eq!(
            refused("tables=1; use 99999999999 predicates"),
            above("predicates", "99999999999")
        );
        assert_eq!(refused("tables=-1"), malformed("tables", "-1"));
        assert_eq!(refused("joins="), malformed("joins", ""));
        assert_eq!(refused("joins=two"), malformed("joins", "two"));
        assert_eq!(refused("tables=2 joins=1.5"), malformed("joins", "1.5"));
        assert_eq!(
            refused("joins=4294967295").to_string(),
            "joins count 4294967295 is above the cap of 64"
        );
        assert_eq!(refused("tables=-1").to_string(), "tables count `-1` is not a whole number");
    }

    #[test]
    fn checked_parsing_takes_counts_up_to_the_cap() {
        let spec = TemplateSpec::try_parse_declarative(
            3,
            "tables=64 joins=+63 aggs=0; have 64 predicates; use GROUP BY",
        )
        .unwrap();
        assert_eq!(
            spec,
            TemplateSpec::parse_declarative(
                3,
                "tables=64 joins=63 aggs=0; have 64 predicates; use GROUP BY"
            )
        );
        assert_eq!(spec.num_tables, Some(64));
        assert_eq!(spec.num_joins, Some(63));
        assert_eq!(spec.num_aggregations, Some(0));
        assert_eq!(spec.instructions, vec![Instruction::NumPredicates(64), Instruction::GroupBy]);
        // Counts in other sentences are not counts of anything.
        assert!(TemplateSpec::try_parse_declarative(1, "include 99999 subqueries").is_ok());
        assert_eq!(
            Instruction::try_parse("have two predicates"),
            Ok(Some(Instruction::NumPredicates(2)))
        );
        assert_eq!(Instruction::try_parse("have predicates"), Ok(None));
    }

    #[test]
    fn lenient_parsing_drops_malformed_counts_and_keeps_large_ones() {
        let spec = TemplateSpec::parse_declarative(1, "tables=-1 joins=4294967295 aggs=x");
        assert_eq!(
            (spec.num_tables, spec.num_joins, spec.num_aggregations),
            (None, Some(u32::MAX), None)
        );
        assert_eq!(
            Instruction::parse("have 4294967295 predicates"),
            Some(Instruction::NumPredicates(u32::MAX))
        );
        assert_eq!(Instruction::parse("have 4294967296 predicates"), None);
    }

    mod arbitrary_text {
        use super::*;
        use proptest::prelude::*;

        /// Spec text: keys, values of every kind, separators, words and
        /// random characters.
        fn spec_text() -> impl Strategy<Value = String> {
            let piece = prop::sample::select(vec![
                "tables=",
                "joins=",
                "aggs=",
                "aggregations=",
                "=",
                ";",
                " ",
                "  ",
                "0",
                "2",
                "64",
                "65",
                "-1",
                "+3",
                "4294967295",
                "4294967296",
                "99999999999999999999",
                "two",
                "ten",
                "predicates",
                "have ",
                "group by",
                "subquery",
                "no joins",
                "é",
                "\u{0}",
                "\t",
            ]);
            (prop::collection::vec(piece, 0..16), "[a-z0-9=; +.-]{0,12}")
                .prop_map(|(pieces, tail)| pieces.concat() + &tail)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn parsing_never_panics_and_checked_agrees_with_lenient(text in spec_text()) {
                let lenient = TemplateSpec::parse_declarative(9, &text);
                if let Ok(checked) = TemplateSpec::try_parse_declarative(9, &text) {
                    prop_assert_eq!(&checked, &lenient);
                    let counts = [checked.num_tables, checked.num_joins, checked.num_aggregations];
                    prop_assert!(counts.iter().flatten().all(|&n| n <= MAX_SPEC_COUNT));
                    for instruction in &checked.instructions {
                        if let Instruction::NumPredicates(n) = instruction {
                            prop_assert!(*n <= MAX_SPEC_COUNT, "{}", text);
                        }
                    }
                }
            }

            #[test]
            fn arbitrary_bytes_and_text_parse_or_give_a_typed_error(
                bytes in prop::collection::vec(any::<u8>(), 0..96),
                points in prop::collection::vec(any::<u32>(), 0..48),
            ) {
                // Bytes as a `--spec` argument that is not UTF-8 reaches
                // the parser, and any Unicode scalar values.
                let lossy = String::from_utf8_lossy(&bytes).into_owned();
                let unicode: String = points
                    .iter()
                    .map(|&p| if p % 2 == 0 { char::from((p >> 1) as u8 & 0x7f) } else {
                        char::from_u32((p >> 1) % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER)
                    })
                    .collect();
                for text in [lossy, unicode] {
                    let lenient = TemplateSpec::parse_declarative(3, &text);
                    match TemplateSpec::try_parse_declarative(3, &text) {
                        Ok(checked) => prop_assert_eq!(&checked, &lenient),
                        Err(SpecError::MalformedCount { key, value }
                        | SpecError::CountAboveCap { key, value }) => {
                            prop_assert!(text.contains(&value), "{} {}", key, text);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn with_nl_instruction_ignores_unknown_sentences() {
        let spec = TemplateSpec::new(1)
            .with_nl_instruction("have a nested subquery")
            .with_nl_instruction("be fast please");
        assert_eq!(spec.instructions, vec![Instruction::NestedSubquery]);
    }
}
