//! Property tests for the snapshot codec: encode/decode must round-trip
//! bit for bit, and `decode` must be *total* — arbitrary, truncated, or
//! bit-flipped input always yields a typed error, never a panic or a
//! wild allocation. The checkpoint layer leans on this: a crash can leave
//! any byte soup on disk, and recovery must shrug it off.

use llm::{ModelState, SyntheticState, TokenUsage};
use proptest::prelude::*;
use sqlbarber::bo_search::{GeneratedQuery, SearchState};
use sqlbarber::snapshot::{
    PhaseState, ReportAcc, SchedState, Snapshot, StoredResult, TemplatePool,
};
use std::collections::{BTreeMap, BTreeSet};

/// f64 with the codec's awkward corners: NaN, signed zero, infinities.
fn f64_strategy() -> BoxedStrategy<f64> {
    prop_oneof![
        -1.0e9..1.0e9f64,
        Just(f64::NAN),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn words_strategy() -> impl Strategy<Value = [u64; 4]> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn sql_strategy() -> BoxedStrategy<String> {
    "[a-zA-Z0-9 _'(){}]{0,24}".boxed()
}

fn phase_strategy() -> BoxedStrategy<PhaseState> {
    prop_oneof![
        Just(PhaseState::AfterTemplates),
        Just(PhaseState::AfterProfiling),
        (0u64..10).prop_map(|round| PhaseState::AfterRefine { round }),
        (
            0u64..10,
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((0usize..8, 0usize..8), 0..4),
            prop::collection::vec(f64_strategy(), 0..4),
            prop::collection::vec((sql_strategy(), f64_strategy()), 0..3),
        )
            .prop_map(|(round, search_seed, next_round, bad, d, queries)| {
                PhaseState::MidSearch {
                    round,
                    sched: SchedState {
                        search_seed,
                        next_round,
                        bad: bad.into_iter().collect(),
                        skip: BTreeSet::new(),
                        failures: BTreeMap::new(),
                        evaluations: 0,
                        accepted: SearchState::new(
                            d,
                            queries
                                .into_iter()
                                .map(|(sql, cost)| GeneratedQuery { sql, cost })
                                .collect(),
                        ),
                    },
                }
            }),
        (
            0u64..10,
            prop::collection::vec((sql_strategy(), f64_strategy()), 0..3),
            prop::collection::vec(f64_strategy(), 0..4),
        )
            .prop_map(|(round, queries, distribution)| PhaseState::AfterSearch {
                round,
                result: StoredResult { queries, distribution, skipped: vec![], evaluations: 7 },
            }),
    ]
}

fn snapshot_strategy() -> BoxedStrategy<Snapshot> {
    (
        any::<u64>(),
        words_strategy(),
        prop::collection::vec((0u32..100, 1u32..5), 0..4),
        prop::collection::vec(sql_strategy(), 0..4),
        prop::collection::vec(any::<u64>(), 0..4),
        phase_strategy(),
    )
        .prop_map(|(fingerprint, rng, attempts, seeds, spec_correct, phase)| Snapshot {
            fingerprint,
            rng,
            llm: ModelState::Synthetic(SyntheticState {
                rng,
                usage: TokenUsage {
                    input_tokens: fingerprint.rotate_left(13),
                    output_tokens: fingerprint.rotate_right(7),
                    requests: 3,
                },
                attempts,
            }),
            acc: ReportAcc {
                spec_correct: spec_correct.clone(),
                syntax_correct: spec_correct,
                rewrite_total: 9,
                alignment_accuracy: 0.5,
                n_seed_templates: 4,
                n_refined_templates: 1,
                degradation: [0, 1, 2, 3],
            },
            pool: TemplatePool::Seeds(seeds),
            oracle: None,
            phase,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any snapshot the driver can construct survives the wire format
    /// unchanged: re-encoding the decoded value reproduces the exact
    /// bytes (byte equality sidesteps NaN's PartialEq problems).
    #[test]
    fn round_trips_bit_for_bit(snapshot in snapshot_strategy()) {
        let bytes = snapshot.encode();
        let back = Snapshot::decode(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Decode is total over arbitrary input.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Snapshot::decode(&bytes);
    }

    /// Every proper prefix of a valid encoding is rejected, not
    /// mis-decoded or panicked on.
    #[test]
    fn truncations_are_rejected(snapshot in snapshot_strategy(), cut in any::<usize>()) {
        let bytes = snapshot.encode();
        let len = cut % bytes.len();
        prop_assert!(Snapshot::decode(&bytes[..len]).is_err());
    }

    /// Any single corrupted byte is detected — header damage by the
    /// magic/version/framing checks, payload damage by the CRC.
    #[test]
    fn bit_flips_are_rejected(
        snapshot in snapshot_strategy(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = snapshot.encode();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }
}
