//! Golden hashes of the seeded start-graph constructors.
//!
//! Every seeded search, simulation fabric and checkpoint in the
//! workspace starts from `random_general`, `random_regular`,
//! `random_regular_fabric` or `erdos_renyi`. Their output must not
//! change when their implementation does: the hashes below pin each
//! graph exactly, including the order of every adjacency and host list
//! (which the annealer's move sampling sees), so a faster constructor or
//! rng has to reproduce every random draw in the same order.

use orp_core::construct::{random_general, random_regular, random_regular_fabric};
use orp_core::graph::HostSwitchGraph;
use orp_core::random_graphs::erdos_renyi;

/// FNV-1a over `n, m, r` and, per switch, its neighbour list and host
/// list in stored order (each prefixed by its length).
fn fingerprint(g: &HostSwitchGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    put(g.num_hosts());
    put(g.num_switches());
    put(g.radix());
    for s in 0..g.num_switches() {
        put(g.neighbors(s).len() as u32);
        g.neighbors(s).iter().for_each(|&t| put(t));
        put(g.hosts_of(s).len() as u32);
        g.hosts_of(s).iter().for_each(|&h| put(h));
    }
    h
}

/// `(n, m, r, seed, fingerprint)`.
type GeneralCase = (u32, u32, u32, u64, u64);

fn check_general(cases: &[GeneralCase]) {
    for &(n, m, r, seed, want) in cases {
        let g = random_general(n, m, r, seed).unwrap();
        g.validate().unwrap();
        assert_eq!(
            fingerprint(&g),
            want,
            "random_general({n}, {m}, {r}, {seed}) changed"
        );
    }
}

#[test]
fn random_general_matches_golden_hashes() {
    check_general(&[
        // the solve_dense start graphs
        (4096, 734, 16, 1, 0xd914970d7e217bb8),
        (4096, 734, 16, 2, 0xf6e6e468d716ec34),
        (4096, 734, 16, 3, 0xfc6512d04aa8b88a),
        // the inject_open fabric and the sim_compat fabric
        (256, 64, 16, 7, 0x915337898a48403a),
        (64, 16, 8, 3, 0x2a55c0b17fcf46dd),
        (1024, 194, 15, 7, 0xd2ed45117e91c74e),
        (256, 64, 12, 99, 0xfd697e88aec410a6),
    ]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 3e8 rng draws; runs in release builds"
)]
fn random_general_matches_golden_hash_at_n32768() {
    // the solve_packed start graph
    check_general(&[(32768, 8122, 16, 1, 0xe9a315a8fa14e704)]);
}

#[test]
fn tight_random_general_instances_match_golden_hashes() {
    // Ring backbones whose simple-graph limit strands free ports (the
    // count is in the comment), path backbones at the path capacity,
    // and two-switch graphs.
    check_general(&[
        (1, 3, 3, 0, 0x01e4c56461829057),  // 2 free
        (2, 3, 4, 1, 0x51a7b75100bb4ab3),  // 4 free
        (1, 4, 4, 0, 0xea88f1b5ea71dd25),  // 3 free
        (1, 3, 5, 1, 0x0d41e3edc0333ae1),  // 8 free
        (4, 3, 5, 0, 0xc06d0592e49e6777),  // 5 free
        (6, 3, 5, 1, 0x9c1e39e66c47c884),  // 3 free
        (2, 4, 5, 0, 0x68da156cf8fc07e7),  // 6 free
        (4, 4, 5, 1, 0x252a50ebf8ab4d50),  // 4 free
        (1, 5, 5, 0, 0x06cf26e4af03f951),  // 4 free
        (3, 5, 5, 1, 0x30a6269bc87f92e0),  // 2 free
        (3, 3, 6, 0, 0x7810dd9351b86063),  // 9 free
        (5, 3, 6, 1, 0x87b6bf351545d322),  // 7 free
        (8, 3, 6, 0, 0x7bc46be0a9e91308),  // 4 free
        (10, 3, 6, 1, 0xd775bc9faed04f5d), // 2 free
        (3, 4, 6, 0, 0x9aca9a7d49783be6),  // 9 free
        (5, 4, 6, 1, 0x068ad2da81838f05),  // 7 free
        (8, 4, 6, 0, 0x685b3c6d7f35b6af),  // 4 free
        (10, 4, 6, 1, 0xd71e719aecff2e9c), // 2 free
        (3, 5, 6, 0, 0x41ad471acace0433),  // 7 free
        (5, 5, 6, 1, 0x0e35fa484a001992),  // 5 free
        (8, 5, 6, 0, 0x20af2866fca75058),  // 2 free
        (2, 6, 6, 1, 0xefacfa7316fe0ab7),  // 4 free
        (4, 3, 3, 0, 0xc061b4f711389382),  // path, 1 free
        (9, 8, 3, 0, 0x98f358dee41c0a1a),  // path, 1 free
        (7, 3, 4, 0, 0x08feec51a2c08650),  // path, 1 free
        (17, 8, 4, 0, 0xc9768364785cce5f), // path, 1 free
        (10, 3, 5, 0, 0x5ccdd8865c76bfdd), // path, 1 free
        (25, 8, 5, 0, 0x6d70cc757abd29b8), // path, 1 free
        (13, 3, 6, 0, 0x6940daa0736d8785), // path, 1 free
        (33, 8, 6, 0, 0x1c2c1341e9f5d5bd), // path, 1 free
        (7, 5, 3, 0, 0x2935945cd00f7d62),  // path, 0 free
        (12, 5, 4, 0, 0xc1019d96d008d72a), // path, 0 free
        (17, 5, 5, 0, 0xfc6fe535509e2267), // path, 0 free
        (22, 5, 6, 0, 0x1ae4562be02af405), // path, 0 free
        (1, 2, 3, 0, 0x2e1f04af4918b895),  // two switches, 3 free
        (8, 2, 6, 0, 0xae101bf8bb667db8),  // two switches, 2 free
    ]);
}

#[test]
fn random_regular_matches_golden_hashes() {
    for (n, m, r, seed, want) in [
        (128, 16, 12, 0, 0x902016711cc7da49u64),
        (128, 16, 12, 4, 0x5cd201ea24908dc9),
        (256, 64, 12, 3, 0x9acd822967e91316),
        (16, 4, 6, 1, 0x15c5446eaec47577),
        (8192, 1024, 16, 1, 0xc28879b9e8606835),
    ] {
        let g = random_regular(n, m, r, seed).unwrap();
        assert_eq!(
            fingerprint(&g),
            want,
            "random_regular({n}, {m}, {r}, {seed}) changed"
        );
    }
}

#[test]
fn random_regular_fabric_matches_golden_hashes() {
    for (m, k, seed, want) in [
        (50, 4, 3, 0x8f83fa7425e8c963u64),
        (64, 3, 2, 0xb84574bccca1db16),
        (1000, 6, 1, 0x44da45704d7f6bd2),
        (97, 10, 5, 0x28d44c928d7f4eb4),
    ] {
        let g = random_regular_fabric(m, k, seed).unwrap();
        assert_eq!(
            fingerprint(&g),
            want,
            "random_regular_fabric({m}, {k}, {seed}) changed"
        );
    }
}

#[test]
fn erdos_renyi_matches_golden_hashes() {
    for (n, m, r, seed, want) in [
        (256, 64, 12, 5, 0xa31c238efe8d94b6u64),
        (1024, 194, 15, 7, 0x6b36dd4676f5a1f1),
    ] {
        let g = erdos_renyi(n, m, r, seed).unwrap();
        assert_eq!(
            fingerprint(&g),
            want,
            "erdos_renyi({n}, {m}, {r}, {seed}) changed"
        );
    }
}
