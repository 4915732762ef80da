//! Property suite for the incremental delta-evaluation engine.
//!
//! The distance-cached affected-source path must be *observationally
//! invisible*: after any interleaving of apply / evaluate / rollback /
//! commit, a cached [`SearchState`] must return bit-identical
//! [`PathMetrics`] to both a cache-disabled twin driven in lockstep and a
//! from-scratch [`path_metrics`] on the owned graph. The early-reject
//! guard must additionally be *sound*: whenever it skips the BFS, a full
//! recompute of the proposal must confirm the rejection (true h-ASPL at
//! or above the reported lower bound, which itself exceeds the limit).
//!
//! `SearchState::check_consistency` cross-checks the cache internally
//! (row distances vs `switch_distances`, per-source aggregates vs rows),
//! so calling it after every step also exercises the transactional cache
//! protocol. A fixed lockstep walk at n = 1024 adds the metric-stream
//! check at a size where the cache's repair paths carry real work.

use orp_core::construct::random_general;
use orp_core::metrics::{path_metrics, PathMetrics};
use orp_core::ops::{sample_swap, sample_swing};
use orp_core::search::{EvalOutcome, SearchConfig, SearchState};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn assert_matches_fresh(outcome: &EvalOutcome, fresh: Option<PathMetrics>) -> Result<(), String> {
    match (outcome, fresh) {
        (EvalOutcome::Metrics(a), Some(b)) => {
            if a.total_length != b.total_length
                || a.diameter != b.diameter
                || a.haspl.to_bits() != b.haspl.to_bits()
            {
                return Err(format!("metrics diverged: cached {a:?} vs fresh {b:?}"));
            }
            Ok(())
        }
        (EvalOutcome::Disconnected, None) => Ok(()),
        (a, b) => Err(format!("verdicts diverged: {a:?} vs fresh {b:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached and cache-disabled engines driven in lockstep agree on
    /// every evaluation, evaluated both mid-transaction and after the
    /// commit/rollback resolution, and the cache survives all of it.
    #[test]
    fn cached_engine_is_bit_identical_to_uncached(
        gseed in 0u64..24,
        opseed in proptest::prelude::any::<u64>(),
        steps in 8usize..32,
    ) {
        let g = random_general(48, 16, 8, gseed).unwrap();
        let mut cached = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
        prop_assert!(cached.cache_active());
        prop_assert!(!plain.cache_active());
        let mut rng = ChaCha8Rng::seed_from_u64(opseed);

        for step in 0..steps {
            let swap = rng.gen::<bool>();
            cached.begin();
            plain.begin();
            let applied = if swap {
                match sample_swap(cached.graph(), cached.edges(), &mut rng, 32) {
                    Some(s) => {
                        cached.apply_swap(s).unwrap();
                        plain.apply_swap(s).unwrap();
                        true
                    }
                    None => false,
                }
            } else {
                match sample_swing(cached.graph(), cached.edges(), &mut rng, 32) {
                    Some(s) => {
                        cached.apply_swing(s).unwrap();
                        plain.apply_swing(s).unwrap();
                        true
                    }
                    None => false,
                }
            };
            if !applied {
                cached.rollback();
                plain.rollback();
                continue;
            }
            // Evaluate mid-transaction: the cached path sees the pending
            // edge delta and must still agree with scratch recomputation.
            let a = cached.evaluate_guarded(None);
            let b = plain.evaluate_guarded(None);
            let fresh = path_metrics(cached.graph());
            if let Err(e) = assert_matches_fresh(&a, fresh) {
                prop_assert!(false, "step {step} (cached mid-txn): {e}");
            }
            if let Err(e) = assert_matches_fresh(&b, fresh) {
                prop_assert!(false, "step {step} (plain mid-txn): {e}");
            }
            // Keep the walk connected: only commit evaluable states.
            if matches!(a, EvalOutcome::Metrics(_)) && rng.gen::<bool>() {
                cached.commit();
                plain.commit();
            } else {
                cached.rollback();
                plain.rollback();
            }
            if let Err(e) = cached.check_consistency() {
                prop_assert!(false, "step {step}: cached state inconsistent: {e}");
            }
            // Evaluate again at rest — exercises the post-rollback cache
            // repair (inverse deltas) and the post-commit adoption.
            let a = cached.evaluate_guarded(None);
            let fresh = path_metrics(cached.graph());
            if let Err(e) = assert_matches_fresh(&a, fresh) {
                prop_assert!(false, "step {step} (cached at rest): {e}");
            }
        }
        let stats = cached.eval_stats();
        prop_assert!(
            stats.incremental > 0,
            "walk never took the incremental path: {stats:?}"
        );
    }

    /// Guarded evaluation with a finite limit never mis-rejects: every
    /// `EarlyRejected(lb)` is confirmed by a full recompute of the same
    /// proposal, and every returned metric matches scratch.
    #[test]
    fn early_reject_guard_is_sound(
        gseed in 0u64..24,
        opseed in proptest::prelude::any::<u64>(),
        // Tight limits make the guard fire often; loose ones exercise
        // the pass-through path. Sampled per-walk.
        slack_millis in 0u64..200,
    ) {
        let g = random_general(64, 16, 8, gseed).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(opseed);
        let mut cur = st.evaluate().expect("start graph connected");
        let slack = slack_millis as f64 * 1e-3;
        let mut fired = 0u32;

        for step in 0..60 {
            st.begin();
            let applied = if rng.gen::<bool>() {
                sample_swing(st.graph(), st.edges(), &mut rng, 32)
                    .map(|s| st.apply_swing(s).unwrap())
                    .is_some()
            } else {
                sample_swap(st.graph(), st.edges(), &mut rng, 32)
                    .map(|s| st.apply_swap(s).unwrap())
                    .is_some()
            };
            if !applied {
                st.rollback();
                continue;
            }
            let limit = cur.haspl + slack;
            match st.evaluate_guarded(Some(limit)) {
                EvalOutcome::Metrics(m) => {
                    let fresh = path_metrics(st.graph()).expect("metrics imply connected");
                    prop_assert_eq!(m.haspl.to_bits(), fresh.haspl.to_bits());
                    prop_assert_eq!(m.total_length, fresh.total_length);
                    if m.haspl < cur.haspl {
                        st.commit();
                        cur = m;
                        continue;
                    }
                }
                EvalOutcome::EarlyRejected(lb) => {
                    fired += 1;
                    prop_assert!(lb > limit, "guard fired below the limit: {lb} <= {limit}");
                    // The lower bound must be genuine: the true score of
                    // the proposal is at or above it (or the proposal
                    // disconnects, which the limit also rejects).
                    if let Some(truth) = path_metrics(st.graph()) {
                        prop_assert!(
                            truth.haspl >= lb - 1e-9,
                            "step {}: unsound lower bound {} > true {}",
                            step, lb, truth.haspl
                        );
                    }
                }
                EvalOutcome::Disconnected => {}
            }
            st.rollback();
            if let Err(e) = st.check_consistency() {
                prop_assert!(false, "step {step}: {e}");
            }
        }
        prop_assert_eq!(st.eval_stats().early_rejected, u64::from(fired));
    }
}

/// One accept-improving walk of `proposals` evaluated proposals (swings,
/// swaps or a seeded mix), returning every evaluation's metrics.
fn accept_improving_walk(
    st: &mut SearchState,
    mix: Option<bool>,
    proposals: usize,
    seed: u64,
) -> Vec<Option<PathMetrics>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cur = st.evaluate().expect("instance connected");
    let mut stream = Vec::with_capacity(proposals);
    while stream.len() < proposals {
        let swing = mix.unwrap_or_else(|| rng.gen::<bool>());
        st.begin();
        let applied = if swing {
            sample_swing(st.graph(), st.edges(), &mut rng, 32)
                .map(|s| st.apply_swing(s).unwrap())
                .is_some()
        } else {
            sample_swap(st.graph(), st.edges(), &mut rng, 32)
                .map(|s| st.apply_swap(s).unwrap())
                .is_some()
        };
        if !applied {
            st.rollback();
            continue;
        }
        match st.evaluate_guarded(None) {
            EvalOutcome::Metrics(m) => {
                stream.push(Some(m));
                if m.haspl < cur.haspl {
                    st.commit();
                    cur = m;
                    continue;
                }
            }
            _ => stream.push(None),
        }
        st.rollback();
    }
    stream
}

/// Cached and cache-disabled engines walk the same accept-improving
/// proposal stream at n = 1024, m = 256, r = 12 over swing, swap and
/// mixed moves: the cache must engage and the metric streams must be
/// equal.
#[test]
fn accept_improving_walks_match_full_recompute_at_n1024() {
    let g = random_general(1024, 256, 12, 7).unwrap();
    for (name, mix) in [
        ("swing", Some(true)),
        ("swap", Some(false)),
        ("mixed", None),
    ] {
        let mut cached = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g.clone(), 1, SearchConfig::off()).unwrap();
        assert!(
            cached.cache_active(),
            "{name}: cache must engage at m = 256"
        );
        let inc = accept_improving_walk(&mut cached, mix, 24, 11);
        let full = accept_improving_walk(&mut plain, mix, 24, 11);
        assert_eq!(inc, full, "{name}: incremental metrics diverged from full");
        assert!(cached.cache_active(), "{name}: cache dropped mid-walk");
        assert!(cached.eval_stats().incremental > 0, "{name}");
        cached.check_consistency().unwrap();
    }
}
