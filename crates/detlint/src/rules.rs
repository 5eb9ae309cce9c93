//! The rule registry: stable identifiers, short codes, and one-line
//! rationales. Every rule is individually toggleable from the CLI and
//! suppressible per-site via a reasoned `detlint::allow` comment.

/// Identifier of a detlint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R1: iterating `HashMap`/`HashSet` (or collecting them into
    /// ordered output) — iteration order varies per process.
    UnorderedIter,
    /// R2: ambient nondeterminism — wall clocks, entropy-seeded RNGs,
    /// randomized hashers, thread identity.
    AmbientNondet,
    /// R3: `unsafe` without a preceding `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// R4: float sorts via `partial_cmp` instead of `total_cmp`.
    FloatOrdering,
    /// R5: `unwrap_or`/`unwrap_or_default` swallowing parse failures on
    /// paths that should route through typed `Malformed` accounting.
    SilentSwallow,
    /// R6: no lock is taken while another is held — no nested
    /// acquisition, including a lock held across a call into another
    /// locking function.
    LockOrder,
    /// R7: every `StdRng`/`SeedableRng` construction must trace to the
    /// `split_seed` chain, a snapshot-restored state, or a config seed.
    SeedProvenance,
    /// R8: functions tagged `// detlint::hot` may not reach allocating
    /// APIs through any intra-workspace call chain.
    HotAlloc,
    /// Meta-rule: malformed, unknown, or unused suppression directives.
    Suppression,
}

/// All rules in reporting order.
pub const ALL_RULES: [RuleId; 9] = [
    RuleId::UnorderedIter,
    RuleId::AmbientNondet,
    RuleId::UndocumentedUnsafe,
    RuleId::FloatOrdering,
    RuleId::SilentSwallow,
    RuleId::LockOrder,
    RuleId::SeedProvenance,
    RuleId::HotAlloc,
    RuleId::Suppression,
];

impl RuleId {
    /// Stable snake_case name (used in suppressions, JSON, and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnorderedIter => "unordered_iter",
            RuleId::AmbientNondet => "ambient_nondet",
            RuleId::UndocumentedUnsafe => "undocumented_unsafe",
            RuleId::FloatOrdering => "float_ordering",
            RuleId::SilentSwallow => "silent_swallow",
            RuleId::LockOrder => "lock_order",
            RuleId::SeedProvenance => "seed_provenance",
            RuleId::HotAlloc => "hot_alloc",
            RuleId::Suppression => "suppression",
        }
    }

    /// Short code used in human diagnostics (`R1`..`R5`, `S0`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::UnorderedIter => "R1",
            RuleId::AmbientNondet => "R2",
            RuleId::UndocumentedUnsafe => "R3",
            RuleId::FloatOrdering => "R4",
            RuleId::SilentSwallow => "R5",
            RuleId::LockOrder => "R6",
            RuleId::SeedProvenance => "R7",
            RuleId::HotAlloc => "R8",
            RuleId::Suppression => "S0",
        }
    }

    /// One-line rationale shown by `detlint rules`.
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::UnorderedIter => {
                "HashMap/HashSet iteration order is unspecified; anything it feeds \
                 (reports, workloads, prompts) breaks bit-identity. Use BTreeMap/\
                 BTreeSet or collect + explicit sort."
            }
            RuleId::AmbientNondet => {
                "Wall clocks, entropy RNGs, RandomState/DefaultHasher and thread \
                 identity inject per-run state. Route time through the injectable \
                 Clock and randomness through seeded RNGs."
            }
            RuleId::UndocumentedUnsafe => {
                "Every unsafe block/impl/fn must be preceded by a // SAFETY: \
                 comment stating why the invariants hold."
            }
            RuleId::FloatOrdering => {
                "sort_by/max_by/min_by with partial_cmp gives NaN-dependent, \
                 comparator-incomparable orderings; use f64::total_cmp."
            }
            RuleId::SilentSwallow => {
                "unwrap_or/unwrap_or_default on parse paths silently converts \
                 malformed input into defaults; route through the typed \
                 Malformed accounting instead."
            }
            RuleId::LockOrder => {
                "No lock may be taken while another is held, directly or \
                 through a call chain into another locking function; a \
                 thread that never waits while holding a lock cannot \
                 deadlock."
            }
            RuleId::SeedProvenance => {
                "Every RNG must descend from the split_seed chain, a \
                 snapshot-restored state, or a config seed; seeding from \
                 iteration order, thread identity, or arrival order breaks \
                 bit-identity across thread counts."
            }
            RuleId::HotAlloc => {
                "Functions tagged // detlint::hot are zero-alloc steady-state \
                 paths (verified dynamically by alloc_probe); they may not \
                 reach allocating APIs through any intra-workspace call chain."
            }
            RuleId::Suppression => {
                "detlint::allow directives must name a known rule and carry a \
                 non-empty reason, and must actually suppress something."
            }
        }
    }

    /// Parse a rule name or short code (`unordered_iter`, `R1`, `r1`).
    pub fn parse(token: &str) -> Option<RuleId> {
        let t = token.trim();
        ALL_RULES.iter().copied().find(|r| r.name() == t || r.code().eq_ignore_ascii_case(t))
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_codes_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(RuleId::parse(rule.name()), Some(rule));
            assert_eq!(RuleId::parse(rule.code()), Some(rule));
            assert_eq!(RuleId::parse(&rule.code().to_lowercase()), Some(rule));
        }
        assert_eq!(RuleId::parse("nope"), None);
    }
}
