//! Prompt/response protocol between SQLBarber and the language model.
//!
//! Prompts are plain text with `### SECTION` headers — realistic LLM
//! prompts with a structure strict enough for the synthetic model to parse
//! back. The [`PromptBuilder`] is what `sqlbarber` core uses to construct
//! prompts (§4 Step 3, "Customized Prompt Construction"); [`LlmRequest`]
//! is the parsed form the synthetic model dispatches on; the response
//! parsers are shared by both sides.

use sqlkit::{Instruction, TemplateSpec};

/// Task tags.
pub const TASK_GENERATE: &str = "generate_template";
pub const TASK_VALIDATE: &str = "validate_semantics";
pub const TASK_FIX_SEMANTICS: &str = "fix_semantics";
pub const TASK_FIX_EXECUTION: &str = "fix_execution";
pub const TASK_REFINE: &str = "refine_template";

/// Builds prompts for every LLM interaction in the pipeline.
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder {
    sections: Vec<(String, String)>,
}

impl PromptBuilder {
    /// Start a prompt for a task.
    pub fn new(task: &str) -> PromptBuilder {
        let mut b = PromptBuilder::default();
        b.sections.push(("TASK".into(), task.to_string()));
        b
    }

    /// Add a raw section.
    pub fn section(mut self, name: &str, body: impl Into<String>) -> Self {
        self.sections.push((name.to_uppercase(), body.into()));
        self
    }

    /// Add the database schema summary (§4 Step 1's output).
    pub fn schema(self, summary: &str) -> Self {
        self.section("SCHEMA", summary)
    }

    /// Add a join path as `a.x = b.y` lines.
    pub fn join_path(self, steps: &[(String, String, String, String)]) -> Self {
        let body = steps
            .iter()
            .map(|(t1, c1, t2, c2)| format!("{t1}.{c1} = {t2}.{c2}"))
            .collect::<Vec<_>>()
            .join("\n");
        self.section("JOIN PATH", body)
    }

    /// Add a template specification (numeric constraints + instructions).
    pub fn spec(self, spec: &TemplateSpec) -> Self {
        let numeric = format!(
            "id={} tables={} joins={} aggregations={}",
            spec.id,
            opt(spec.num_tables),
            opt(spec.num_joins),
            opt(spec.num_aggregations),
        );
        let with_numeric = self.section("SPEC", numeric);
        if spec.instructions.is_empty() {
            with_numeric
        } else {
            let body =
                spec.instructions.iter().map(Instruction::describe).collect::<Vec<_>>().join("\n");
            with_numeric.section("INSTRUCTIONS", body)
        }
    }

    /// Add the SQL template under discussion.
    pub fn template(self, sql: &str) -> Self {
        self.section("TEMPLATE", sql)
    }

    /// Add a violations list (feedback for `FixSemantics`).
    pub fn violations(self, violations: &[String]) -> Self {
        self.section("VIOLATIONS", violations.join("\n"))
    }

    /// Add a DBMS error message (feedback for `FixExecution`).
    pub fn error(self, message: &str) -> Self {
        self.section("ERROR", message)
    }

    /// Add the target cost interval for refinement.
    pub fn target_interval(self, lo: f64, hi: f64) -> Self {
        self.section("TARGET", format!("{lo} {hi}"))
    }

    /// Add observed profile costs of the template being refined.
    pub fn profile(self, costs: &[f64]) -> Self {
        let body = costs.iter().map(|c| format!("{c:.1}")).collect::<Vec<_>>().join(", ");
        self.section("PROFILE", body)
    }

    /// Add prior refinement attempts (template SQL + its median cost) for
    /// the in-context phase of Algorithm 2.
    pub fn history(self, attempts: &[(String, f64)]) -> Self {
        let body = attempts
            .iter()
            .map(|(sql, cost)| format!("{sql} => {cost:.1}"))
            .collect::<Vec<_>>()
            .join("\n");
        self.section("HISTORY", body)
    }

    /// Render the final prompt text.
    pub fn build(self) -> String {
        let mut out = String::new();
        for (name, body) in self.sections {
            out.push_str("### ");
            out.push_str(&name);
            out.push('\n');
            out.push_str(&body);
            if !body.ends_with('\n') {
                out.push('\n');
            }
        }
        out.push_str("### END\n");
        out
    }
}

fn opt(v: Option<u32>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

/// A parsed LLM request (the synthetic model's view of a prompt).
#[derive(Debug, Clone, PartialEq)]
pub struct LlmRequest {
    pub task: String,
    pub schema: Option<String>,
    pub join_path: Vec<(String, String, String, String)>,
    pub spec: Option<TemplateSpec>,
    pub template: Option<String>,
    pub violations: Vec<String>,
    pub error: Option<String>,
    pub target: Option<(f64, f64)>,
    pub profile: Vec<f64>,
    pub history: Vec<(String, f64)>,
}

impl LlmRequest {
    /// Parse a prompt back into its sections. Returns `None` when the text
    /// does not follow the protocol (a real model would answer anyway; the
    /// synthetic model refuses, which surfaces programming errors).
    pub fn parse(prompt: &str) -> Option<LlmRequest> {
        let mut sections: Vec<(String, String)> = Vec::new();
        let mut current: Option<(String, String)> = None;
        for line in prompt.lines() {
            if let Some(name) = line.strip_prefix("### ") {
                if let Some(section) = current.take() {
                    sections.push(section);
                }
                if name == "END" {
                    break;
                }
                current = Some((name.to_string(), String::new()));
            } else if let Some((_, body)) = current.as_mut() {
                if !body.is_empty() {
                    body.push('\n');
                }
                body.push_str(line);
            }
        }
        if let Some(section) = current.take() {
            sections.push(section);
        }

        let find = |name: &str| -> Option<String> {
            sections.iter().find(|(n, _)| n == name).map(|(_, b)| b.clone())
        };
        let task = find("TASK")?.trim().to_string();

        let join_path = find("JOIN PATH")
            .map(|body| {
                body.lines()
                    .filter_map(|line| {
                        let (lhs, rhs) = line.split_once('=')?;
                        let (t1, c1) = lhs.trim().split_once('.')?;
                        let (t2, c2) = rhs.trim().split_once('.')?;
                        Some((
                            t1.trim().to_string(),
                            c1.trim().to_string(),
                            t2.trim().to_string(),
                            c2.trim().to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();

        let spec = find("SPEC").map(|body| {
            let mut spec = TemplateSpec::default();
            for token in body.split_whitespace() {
                if let Some((key, value)) = token.split_once('=') {
                    let parsed = value.parse::<u32>().ok();
                    match key {
                        "id" => spec.id = parsed.unwrap_or(0),
                        "tables" => spec.num_tables = parsed,
                        "joins" => spec.num_joins = parsed,
                        "aggregations" => spec.num_aggregations = parsed,
                        _ => {}
                    }
                }
            }
            if let Some(instructions) = find("INSTRUCTIONS") {
                for line in instructions.lines() {
                    if let Some(instruction) = Instruction::parse(line) {
                        spec.instructions.push(instruction);
                    }
                }
            }
            spec
        });

        let target = find("TARGET").and_then(|body| {
            let mut parts = body.split_whitespace();
            let lo = parts.next()?.parse().ok()?;
            let hi = parts.next()?.parse().ok()?;
            Some((lo, hi))
        });

        let profile = find("PROFILE")
            .map(|body| body.split(',').filter_map(|tok| tok.trim().parse::<f64>().ok()).collect())
            // detlint::allow(silent_swallow): request-side prompt parsing in the synthetic model — an absent PROFILE section means "no profile", not a malformed LLM response
            .unwrap_or_default();

        let history = find("HISTORY")
            .map(|body| {
                body.lines()
                    .filter_map(|line| {
                        let (sql, cost) = line.rsplit_once("=>")?;
                        Some((sql.trim().to_string(), cost.trim().parse().ok()?))
                    })
                    .collect()
            })
            // detlint::allow(silent_swallow): request-side prompt parsing — an absent HISTORY section means no history
            .unwrap_or_default();

        Some(LlmRequest {
            task,
            schema: find("SCHEMA"),
            join_path,
            spec,
            template: find("TEMPLATE").map(|t| t.trim().to_string()),
            violations: find("VIOLATIONS")
                .map(|v| v.lines().map(str::to_string).collect())
                .unwrap_or_default(),
            error: find("ERROR").map(|e| e.trim().to_string()),
            target,
            profile,
            history,
        })
    }
}

/// Parsed response of a `validate_semantics` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationVerdict {
    pub satisfied: bool,
    pub violations: Vec<String>,
}

impl ValidationVerdict {
    /// Render a verdict as response text.
    pub fn render(&self) -> String {
        if self.satisfied {
            "SATISFIED: yes\n".to_string()
        } else {
            let mut out = String::from("SATISFIED: no\nVIOLATIONS:\n");
            for violation in &self.violations {
                out.push_str("- ");
                out.push_str(violation);
                out.push('\n');
            }
            out
        }
    }

    /// Parse a response back.
    pub fn parse(response: &str) -> Option<ValidationVerdict> {
        let mut satisfied = None;
        let mut violations = Vec::new();
        for line in response.lines() {
            if let Some(rest) = line.strip_prefix("SATISFIED:") {
                satisfied = Some(rest.trim().eq_ignore_ascii_case("yes"));
            } else if let Some(v) = line.strip_prefix("- ") {
                violations.push(v.trim().to_string());
            }
        }
        Some(ValidationVerdict { satisfied: satisfied?, violations })
    }
}

/// Render a template-producing response.
pub fn render_sql_response(sql: &str) -> String {
    format!("SQL:\n{sql}\n")
}

/// Extract SQL text from a template-producing response.
pub fn parse_sql_response(response: &str) -> Option<String> {
    let rest = response.split_once("SQL:")?.1;
    let sql = rest.trim();
    if sql.is_empty() {
        None
    } else {
        Some(sql.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Instruction;

    fn sample_spec() -> TemplateSpec {
        TemplateSpec::new(7)
            .with_tables(3)
            .with_joins(2)
            .with_aggregations(1)
            .with_instruction(Instruction::NestedSubquery)
            .with_instruction(Instruction::NumPredicates(2))
    }

    #[test]
    fn generate_prompt_round_trips() {
        let prompt = PromptBuilder::new(TASK_GENERATE)
            .schema("Table users (10 rows, ~1 KB)\n  user_id bigint (n_distinct=10) [PK]")
            .join_path(&[("users".into(), "user_id".into(), "orders".into(), "user_id".into())])
            .spec(&sample_spec())
            .build();
        let request = LlmRequest::parse(&prompt).unwrap();
        assert_eq!(request.task, TASK_GENERATE);
        assert!(request.schema.unwrap().contains("user_id bigint"));
        assert_eq!(request.join_path.len(), 1);
        let spec = request.spec.unwrap();
        assert_eq!(spec.id, 7);
        assert_eq!(spec.num_tables, Some(3));
        assert_eq!(spec.num_joins, Some(2));
        assert_eq!(spec.instructions.len(), 2);
        assert!(spec.instructions.contains(&Instruction::NestedSubquery));
        assert!(spec.instructions.contains(&Instruction::NumPredicates(2)));
    }

    #[test]
    fn fix_prompt_carries_feedback() {
        let prompt = PromptBuilder::new(TASK_FIX_EXECUTION)
            .spec(&sample_spec())
            .template("SELECT * FROM t WHERE x > {p_1}")
            .error("ERROR: column \"x\" does not exist")
            .build();
        let request = LlmRequest::parse(&prompt).unwrap();
        assert_eq!(request.task, TASK_FIX_EXECUTION);
        assert!(request.template.unwrap().contains("{p_1}"));
        assert!(request.error.unwrap().contains("does not exist"));
    }

    #[test]
    fn refine_prompt_round_trips_target_profile_history() {
        let prompt = PromptBuilder::new(TASK_REFINE)
            .template("SELECT * FROM t WHERE x > {p_1}")
            .target_interval(6000.0, 8000.0)
            .profile(&[120.0, 4500.5])
            .history(&[("SELECT 1 FROM t".into(), 3200.0)])
            .build();
        let request = LlmRequest::parse(&prompt).unwrap();
        assert_eq!(request.target, Some((6000.0, 8000.0)));
        assert_eq!(request.profile, vec![120.0, 4500.5]);
        assert_eq!(request.history.len(), 1);
        assert_eq!(request.history[0].1, 3200.0);
    }

    #[test]
    fn verdict_round_trips() {
        let verdict = ValidationVerdict {
            satisfied: false,
            violations: vec!["num_joins: expected 2, got 0".into()],
        };
        let parsed = ValidationVerdict::parse(&verdict.render()).unwrap();
        assert_eq!(parsed, verdict);
        let ok = ValidationVerdict { satisfied: true, violations: vec![] };
        assert_eq!(ValidationVerdict::parse(&ok.render()).unwrap(), ok);
    }

    #[test]
    fn sql_response_round_trips() {
        let sql = "SELECT a FROM t WHERE a > {p_1}";
        assert_eq!(parse_sql_response(&render_sql_response(sql)).unwrap(), sql);
        assert!(parse_sql_response("garbage").is_none());
        assert!(parse_sql_response("SQL:\n   \n").is_none());
    }

    #[test]
    fn unparseable_prompt_is_rejected() {
        assert!(LlmRequest::parse("hello world").is_none());
    }
}
