//! Property-based tests (proptest) of the core invariants across random
//! instances: bounds hold, operations preserve invariants, serialization
//! round-trips, partitions stay balanced, and routing stays loop-free.

use orp::core::bounds::{
    continuous_moore_aspl, diameter_lower_bound, haspl_lower_bound, moore_aspl,
};
use orp::core::construct::random_general;
use orp::core::io;
use orp::core::metrics::{host_distances, path_metrics, path_metrics_par};
use orp::core::ops::{sample_swap, sample_swing, EdgeSet};
use orp::partition::{partition, PartitionConfig};
use orp::route::{RoutingTable, UpDownRouting};
use orp_bench::to_cut_graph;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Applies 1–4 random byte edits to `text`: overwrite, delete, insert,
/// or append digits after a header number (which reaches huge `n`, `m`
/// and `r` declarations far more often than single-byte edits would).
fn mutate(text: &str, rng: &mut ChaCha8Rng) -> String {
    const ALPHABET: &[u8] = b"0123456789 \nhemnr#-x";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..bytes.len());
        let byte = if rng.gen_bool(0.8) {
            *ALPHABET.choose(rng).unwrap()
        } else {
            rng.gen::<u32>() as u8
        };
        match rng.gen_range(0..4) {
            0 => bytes[at] = byte,
            1 if bytes.len() > 1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, byte),
            _ => {
                let header = [b'n', b'm', b'r'].choose(rng).unwrap();
                if let Some(p) = bytes.windows(2).position(|w| w == [*header, b' ']) {
                    let end = p
                        + 2
                        + bytes[p + 2..]
                            .iter()
                            .take_while(|b| b.is_ascii_digit())
                            .count();
                    let digits = rng.gen_range(1..=9);
                    let extra: Vec<u8> =
                        (0..digits).map(|_| b'0' + rng.gen_range(0..10u8)).collect();
                    bytes.splice(end..end, extra);
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Strategy: a feasible random (n, m, r, seed) instance.
fn instance() -> impl Strategy<Value = (u32, u32, u32, u64)> {
    (2u32..8, 6u32..14, any::<u64>()).prop_map(|(m, r, seed)| {
        // hosts: between m and what keeps 2 free ports per switch
        let max_hosts = m * (r - 2);
        let n = (max_hosts / 2).max(2);
        (n, m, r, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metrics_respect_theorem_bounds((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let pm = path_metrics(&g).unwrap();
        prop_assert!(pm.haspl >= haspl_lower_bound(n as u64, r as u64) - 1e-9);
        prop_assert!(pm.diameter >= diameter_lower_bound(n as u64, r as u64));
        prop_assert!(pm.haspl <= pm.diameter as f64);
        prop_assert!(pm.haspl >= 2.0);
    }

    #[test]
    fn parallel_metrics_match((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let a = path_metrics(&g).unwrap();
        let b = path_metrics_par(&g).unwrap();
        prop_assert_eq!(a.total_length, b.total_length);
        prop_assert_eq!(a.diameter, b.diameter);
    }

    #[test]
    fn haspl_equals_mean_of_host_distances((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let pm = path_metrics(&g).unwrap();
        let mut total = 0u64;
        for h in 0..n {
            for (other, d) in host_distances(&g, h).into_iter().enumerate() {
                if other as u32 > h {
                    prop_assert!(d != u32::MAX);
                    total += d as u64;
                }
            }
        }
        prop_assert_eq!(total, pm.total_length);
    }

    #[test]
    fn ops_preserve_degree_profile((n, m, r, seed) in instance()) {
        let mut g = random_general(n, m, r, seed).unwrap();
        let before: Vec<u32> = (0..m).map(|s| g.switch_degree(s)).collect();
        let hosts_before = g.num_hosts();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabc);
        let es = EdgeSet::from_graph(&g);
        if let Some(sw) = sample_swap(&g, &es, &mut rng, 64) {
            sw.apply(&mut g).unwrap();
        }
        if let Some(sg) = sample_swing(&g, &EdgeSet::from_graph(&g), &mut rng, 64) {
            sg.apply(&mut g).unwrap();
        }
        let after: Vec<u32> = (0..m).map(|s| g.switch_degree(s)).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(g.num_hosts(), hosts_before);
    }

    #[test]
    fn io_roundtrip_preserves_metrics((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let parsed = io::from_str(&io::to_string(&g)).unwrap();
        let a = path_metrics(&g).unwrap();
        let b = path_metrics(&parsed).unwrap();
        prop_assert_eq!(a.total_length, b.total_length);
        prop_assert_eq!(io::to_string(&g), io::to_string(&parsed));
    }

    #[test]
    fn mutated_graph_files_parse_to_errors_or_roundtripping_graphs(
        (n, m, r, seed) in instance(),
        mutation_seed in any::<u64>(),
    ) {
        let text = io::to_string(&random_general(n, m, r, seed).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(mutation_seed);
        for _ in 0..8 {
            let mutated = mutate(&text, &mut rng);
            // must return, never panic or abort on an allocation
            if let Ok(g) = io::from_str(&mutated) {
                let again = io::to_string(&g);
                let reparsed = io::from_str(&again).unwrap();
                prop_assert_eq!(io::to_string(&reparsed), again);
            }
        }
    }

    #[test]
    fn partitions_are_balanced_and_consistent((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let cg = to_cut_graph(&g);
        for k in [2usize, 3, 4] {
            let p = partition(&cg, k, &PartitionConfig { seed, ..Default::default() });
            prop_assert_eq!(p.part_weights.iter().sum::<u64>(), (n + m) as u64);
            let ideal = (n + m) as f64 / k as f64;
            for &w in &p.part_weights {
                prop_assert!((w as f64) <= ideal * 1.6 + 2.0, "k={} w={} ideal={}", k, w, ideal);
            }
            // recomputing the cut from the assignment matches
            prop_assert_eq!(p.cut, cg.edge_cut(&p.assignment));
        }
    }

    #[test]
    fn routing_agrees_with_metrics((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let t = RoutingTable::build(&g);
        for a in 0..m {
            let bfs = g.switch_distances(a);
            for b in 0..m {
                prop_assert_eq!(t.distance(a, b), Some(bfs[b as usize]));
                let path = t.path(a, b, seed).unwrap();
                prop_assert_eq!(path.len() as u32 - 1, bfs[b as usize]);
            }
        }
    }

    #[test]
    fn updown_paths_are_legal_and_at_least_shortest((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let ud = UpDownRouting::build(&g, 0);
        for a in 0..m {
            let bfs = g.switch_distances(a);
            for b in 0..m {
                let p = ud.path(a, b).unwrap();
                prop_assert!(ud.is_legal_path(&p));
                prop_assert!(p.len() as u32 > bfs[b as usize]);
            }
        }
    }

    #[test]
    fn moore_bound_is_below_any_real_aspl(seed in any::<u64>(), m in 8u32..40, k in 3u32..6) {
        prop_assume!(k < m && (m * k) % 2 == 0);
        let g = orp::core::construct::random_regular_fabric(m, k, seed);
        prop_assume!(g.is_ok());
        let g = g.unwrap();
        let aspl = orp::core::metrics::switch_aspl(&g).unwrap();
        let bound = moore_aspl(m as u64, k as u64).unwrap();
        prop_assert!(aspl >= bound - 1e-9, "aspl {} < Moore {}", aspl, bound);
        // continuous agrees at integers
        let c = continuous_moore_aspl(m as f64, k as f64).unwrap();
        prop_assert!((c - bound).abs() < 1e-9);
    }
}
