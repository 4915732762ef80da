//! Constructions of host-switch graphs: the trivial optima of Section 3.2,
//! the clique graphs of the Appendix, and randomized initial solutions for
//! the annealer.

use crate::error::GraphError;
use crate::graph::{HostSwitchGraph, Switch};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The `n ≤ r` optimum: a single switch holding every host (h-ASPL = 2).
pub fn star(n: u32, r: u32) -> Result<HostSwitchGraph, GraphError> {
    if n > r {
        return Err(GraphError::InvalidParameters(format!(
            "star needs n <= r, got n={n} r={r}"
        )));
    }
    let mut g = HostSwitchGraph::new(1, r)?;
    for _ in 0..n {
        g.attach_host(0)?;
    }
    Ok(g)
}

/// A *clique host-switch graph* (Appendix): the minimum number of switches
/// forming a complete graph, hosts spread as evenly as possible. Optimal
/// whenever `r < n ≤ m(r − m + 1)` for some `m` (Theorem 3).
pub fn clique(n: u32, r: u32) -> Result<HostSwitchGraph, GraphError> {
    let m = crate::bounds::min_clique_switches(n as u64, r as u64).ok_or_else(|| {
        GraphError::InvalidParameters(format!(
            "no clique of radix-{r} switches can hold {n} hosts"
        ))
    })? as u32;
    clique_with_switches(n, m, r)
}

/// A clique host-switch graph with exactly `m` switches.
pub fn clique_with_switches(n: u32, m: u32, r: u32) -> Result<HostSwitchGraph, GraphError> {
    if m >= 1 && n as u64 > crate::bounds::clique_capacity(m as u64, r as u64) {
        return Err(GraphError::InvalidParameters(format!(
            "clique with m={m} r={r} holds at most {} hosts, asked {n}",
            crate::bounds::clique_capacity(m as u64, r as u64)
        )));
    }
    let mut g = HostSwitchGraph::new(m, r)?;
    for a in 0..m {
        for b in (a + 1)..m {
            g.add_link(a, b)?;
        }
    }
    for h in 0..n {
        g.attach_host(h % m)?;
    }
    Ok(g)
}

/// A random connected `k`-regular switch fabric with `n` hosts spread
/// `n/m` per switch (the paper's *regular host-switch graph*): requires
/// `m | n` and `k = r − n/m ≥ 2`.
///
/// Strategy: a Hamiltonian ring guarantees connectivity and 2 of the `k`
/// switch ports; the rest are filled by a configuration-model style random
/// matching repaired with edge swaps.
pub fn random_regular(n: u32, m: u32, r: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    if m == 0 || !n.is_multiple_of(m) {
        return Err(GraphError::InvalidParameters(format!(
            "m={m} must divide n={n}"
        )));
    }
    let per = n / m;
    if per > r {
        return Err(GraphError::InvalidParameters(format!(
            "n/m = {per} hosts exceed radix {r}"
        )));
    }
    let k = r - per;
    if m > 1 && k < 2 {
        return Err(GraphError::InvalidParameters(format!(
            "switch degree k = r - n/m = {k} cannot form a connected regular graph"
        )));
    }
    if m == 1 {
        return star(n, r);
    }
    if !(m as u64 * k as u64).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!(
            "m·k = {m}·{k} must be even for a k-regular graph"
        )));
    }
    if k as u64 >= m as u64 {
        // complete graph is the only (m-1)-regular graph; larger k impossible
        if k == m - 1 {
            return clique_with_switches(n, m, r);
        }
        return Err(GraphError::InvalidParameters(format!(
            "k = {k} regular graph on m = {m} vertices does not exist"
        )));
    }
    // The greedy filler can rarely strand ports; retry with derived seeds.
    for attempt in 0..32u64 {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9e3779b97f4a7c15)));
        let mut g = HostSwitchGraph::new(m, r)?;
        for h in 0..n {
            g.attach_host(h % m)?;
        }
        random_fill_ring_first(&mut g, &mut rng)?;
        if g.regularity() == Some((k, per)) && g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::ConstructionFailed(format!(
        "could not realise a connected {k}-regular fabric on m={m} (n={n}, r={r})"
    )))
}

/// A random connected host-switch graph with `m` switches where hosts are
/// spread as evenly as the port budget allows and the remaining ports are
/// filled with random switch links by [`fill_free_ports`]. This is the
/// annealer's initial solution for the swing search.
///
/// Usually at most one port in the whole graph stays free (for parity),
/// but not always: once the switches with free ports are pairwise
/// adjacent and no repair swap helps, the simple-graph limit binds and
/// more stay free. Small dense instances hit this, e.g. `n = 1, m = 2,
/// r = 3` keeps 3 free ports and `n = 1, m = 3, r = 5` keeps 8.
///
/// The connecting backbone is a random Hamiltonian ring when every
/// switch can spare two ports and `m ≥ 3`; otherwise it is a random path,
/// which needs two ports fewer (a star would hold exactly as many hosts
/// as a path, `m(r − 2) + 2`). Anything beyond that cannot be connected.
///
/// The same seed gives the same graph, including the order of every
/// adjacency list, on every platform.
pub fn random_general(n: u32, m: u32, r: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    if m == 0 {
        return Err(GraphError::InvalidParameters("m must be positive".into()));
    }
    if n as u64 > m as u64 * r as u64 {
        return Err(GraphError::InvalidParameters(format!(
            "{m} radix-{r} switches hold at most {} hosts, asked {n}",
            m as u64 * r as u64
        )));
    }
    if m == 1 {
        return star(n, r);
    }
    let ring_cap = m as u64 * (r as u64 - 2);
    let path_cap = ring_cap + 2;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = HostSwitchGraph::new(m, r)?;
    let mut order: Vec<Switch> = (0..m).collect();
    order.shuffle(&mut rng);
    if m > 2 && (n as u64) <= ring_cap {
        for i in 0..m as usize {
            g.add_link(order[i], order[(i + 1) % m as usize])?;
        }
    } else if (n as u64) <= path_cap {
        for w in order.windows(2) {
            g.add_link(w[0], w[1])?;
        }
    } else {
        return Err(GraphError::InvalidParameters(format!(
            "no connected backbone on m={m} radix-{r} switches leaves room for {n} hosts"
        )));
    }
    // hosts: round-robin over the shuffled order, skipping full switches
    let mut left = n;
    while left > 0 {
        let mut placed = false;
        for &s in &order {
            if left == 0 {
                break;
            }
            if g.free_ports(s) > 0 {
                g.attach_host(s)?;
                left -= 1;
                placed = true;
            }
        }
        debug_assert!(placed, "capacity verified above");
        if !placed {
            return Err(GraphError::ConstructionFailed(
                "host placement stalled".into(),
            ));
        }
    }
    fill_free_ports(&mut g, &mut rng);
    Ok(g)
}

/// Connects all switches in a random Hamiltonian ring, then fills the
/// remaining free ports with random simple edges. At most one odd port may
/// remain unused. Assumes every switch currently has ≥ 2 free ports.
fn random_fill_ring_first<R: Rng>(g: &mut HostSwitchGraph, rng: &mut R) -> Result<(), GraphError> {
    let m = g.num_switches();
    if m == 2 {
        g.add_link(0, 1)?;
        return Ok(());
    }
    let mut ring: Vec<Switch> = (0..m).collect();
    ring.shuffle(rng);
    for i in 0..m as usize {
        g.add_link(ring[i], ring[(i + 1) % m as usize])?;
    }
    fill_free_ports(g, rng);
    Ok(())
}

/// Greedily pairs free ports with random simple edges until at most one
/// free port remains or no valid pair is left. When the switches that
/// still have free ports are pairwise adjacent, a repair swap rewires a
/// random edge to one of them, within a bounded number of steps.
///
/// Every step shuffles the switches with a free port (one `gen_range`
/// draw each, in ascending switch order before the shuffle) and links the
/// first non-adjacent pair, so filling `E` edges costs O(E · open) draws,
/// `open` being the number of such switches: about 2.7·10⁸ draws at
/// n = 32768, m = 8122, r = 16. The open list and the free-port total are
/// kept up to date as links come and go rather than rebuilt from all `m`
/// switches each step. A repair also collects the links not touching its
/// switch, O(m·r), but repairs only happen once the open switches are
/// few and mutually adjacent.
pub fn fill_free_ports<R: Rng>(g: &mut HostSwitchGraph, rng: &mut R) {
    let m = g.num_switches();
    // Each loop iteration either adds an edge or performs one repair
    // rewire; bound the total to rule out pathological oscillation.
    let budget = 4 * (m as u64 * g.radix() as u64 / 2 + 64);
    let mut open = OpenPorts::new(g);
    let mut order: Vec<Switch> = Vec::with_capacity(open.switches.len());
    for _ in 0..budget {
        if open.total <= 1 {
            return; // at most the parity port remains
        }
        order.clear();
        order.extend_from_slice(&open.switches);
        order.shuffle(rng);
        let mut progressed = false;
        // try all unordered pairs of port-bearing switches, front-to-back
        'outer: for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (order[i], order[j]);
                if !g.has_link(a, b) && g.add_link(a, b).is_ok() {
                    open.used(g, a);
                    open.used(g, b);
                    progressed = true;
                    break 'outer;
                }
            }
        }
        if !progressed {
            // Remaining free-port switches are pairwise adjacent (or a
            // single switch has >1 free port). Repair: pick a free-port
            // switch a and a random edge {c,d} not touching a, rewire
            // {c,d} → {a,c} + retry; equivalent of one swap step.
            let a = order[0];
            let candidates: Vec<(Switch, Switch)> = g
                .links()
                .filter(|&(c, d)| c != a && d != a && (!g.has_link(a, c) || !g.has_link(a, d)))
                .collect();
            let Some(&(c, d)) = candidates.as_slice().choose(rng) else {
                return;
            };
            let other = if !g.has_link(a, c) { c } else { d };
            g.remove_link(c, d).expect("edge came from links()");
            open.freed(g, c);
            open.freed(g, d);
            g.add_link(a, other)
                .expect("checked not adjacent with free port");
            open.used(g, a);
            open.used(g, other);
            // c or d regained a free port; loop continues
        }
    }
}

/// The switches of a graph with a free port, ascending, and their free
/// ports in total, updated one port at a time by [`fill_free_ports`].
struct OpenPorts {
    switches: Vec<Switch>,
    total: u32,
}

impl OpenPorts {
    fn new(g: &HostSwitchGraph) -> Self {
        let switches: Vec<Switch> = (0..g.num_switches())
            .filter(|&s| g.free_ports(s) > 0)
            .collect();
        let total = switches.iter().map(|&s| g.free_ports(s)).sum();
        Self { switches, total }
    }

    /// `s` has just used a port.
    fn used(&mut self, g: &HostSwitchGraph, s: Switch) {
        self.total -= 1;
        if g.free_ports(s) == 0 {
            let at = self.switches.binary_search(&s).expect("s had a free port");
            self.switches.remove(at);
        }
    }

    /// `s` has just regained a port.
    fn freed(&mut self, g: &HostSwitchGraph, s: Switch) {
        self.total += 1;
        if g.free_ports(s) == 1 {
            let at = self
                .switches
                .binary_search(&s)
                .expect_err("s had no free port");
            self.switches.insert(at, s);
        }
    }
}

/// A random connected `k`-regular plain graph on `m` vertices embedded as
/// a host-less host-switch fabric (radix `k`, `k ≥ 3`); useful for tests
/// and as a baseline generator.
pub fn random_regular_fabric(m: u32, k: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    if m < 2 || k < 3 || k >= m || !(m as u64 * k as u64).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!(
            "no connected {k}-regular (k >= 3) graph on {m} vertices"
        )));
    }
    for attempt in 0..32u64 {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9e3779b97f4a7c15)));
        let mut g = HostSwitchGraph::new(m, k)?;
        random_fill_ring_first(&mut g, &mut rng)?;
        if g.regularity() == Some((k, 0)) && g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::ConstructionFailed(format!(
        "could not realise a connected {k}-regular fabric on {m} vertices"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::path_metrics;
    use proptest::prelude::*;

    /// The previous `fill_free_ports` body, which rebuilt the open-switch
    /// list from all `m` switches before every edge: the oracle that the
    /// incremental open list must match draw for draw.
    fn fill_free_ports_rescan<R: Rng>(g: &mut HostSwitchGraph, rng: &mut R) {
        let m = g.num_switches();
        let budget = 4 * (m as u64 * g.radix() as u64 / 2 + 64);
        for _ in 0..budget {
            let mut free: Vec<Switch> = (0..m).filter(|&s| g.free_ports(s) > 0).collect();
            let total_free: u32 = free.iter().map(|&s| g.free_ports(s)).sum();
            if total_free <= 1 {
                return;
            }
            free.shuffle(rng);
            let mut progressed = false;
            'outer: for i in 0..free.len() {
                for j in (i + 1)..free.len() {
                    let (a, b) = (free[i], free[j]);
                    if g.free_ports(a) == 0 || g.free_ports(b) == 0 {
                        continue;
                    }
                    if !g.has_link(a, b) && g.add_link(a, b).is_ok() {
                        progressed = true;
                        break 'outer;
                    }
                }
            }
            if !progressed {
                let a = free[0];
                let candidates: Vec<(Switch, Switch)> = g
                    .links()
                    .filter(|&(c, d)| c != a && d != a && (!g.has_link(a, c) || !g.has_link(a, d)))
                    .collect();
                let Some(&(c, d)) = candidates.as_slice().choose(rng) else {
                    return;
                };
                let other = if !g.has_link(a, c) { c } else { d };
                g.remove_link(c, d).unwrap();
                g.add_link(a, other).unwrap();
            }
        }
    }

    /// A partly built graph: random host loads (some switches full) and
    /// a few random links, as left by any of the constructors' first
    /// phases or by none of them.
    fn partial_graph(m: u32, r: u32, seed: u64) -> HostSwitchGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = HostSwitchGraph::new(m, r).unwrap();
        for s in 0..m {
            for _ in 0..rng.gen_range(0..=r) {
                g.attach_host(s).unwrap();
            }
        }
        for _ in 0..rng.gen_range(0..=m) {
            let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
            let _ = g.add_link(a, b);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fill_free_ports_matches_the_rescanning_oracle(
            m in 1u32..40,
            r in 3u32..12,
            seed in any::<u64>(),
        ) {
            let mut fast = partial_graph(m, r, seed);
            let mut oracle = fast.clone();
            let mut fast_rng = ChaCha8Rng::seed_from_u64(!seed);
            let mut oracle_rng = fast_rng.clone();
            fill_free_ports(&mut fast, &mut fast_rng);
            fill_free_ports_rescan(&mut oracle, &mut oracle_rng);
            prop_assert_eq!(&fast, &oracle);
            prop_assert_eq!(fast_rng.state_words(), oracle_rng.state_words());
        }
    }

    #[test]
    fn two_switches_beyond_a_path_are_rejected() {
        // 2 radix-6 switches hold 12 hosts, but one link leaves room for 10
        assert!(random_general(10, 2, 6, 0).is_ok());
        assert!(matches!(
            random_general(11, 2, 6, 0),
            Err(GraphError::InvalidParameters(_))
        ));
    }

    #[test]
    fn star_is_haspl_two() {
        let g = star(24, 24).unwrap();
        g.validate().unwrap();
        assert_eq!(path_metrics(&g).unwrap().haspl, 2.0);
        assert!(star(25, 24).is_err());
    }

    #[test]
    fn clique_picks_min_switches() {
        // n=128, r=24 → m=8 per the paper (8·17 = 136 ≥ 128).
        let g = clique(128, 24).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_switches(), 8);
        let m = path_metrics(&g).unwrap();
        assert!(m.haspl < 3.0, "clique h-ASPL {}", m.haspl);
        assert_eq!(m.diameter, 3);
    }

    #[test]
    fn clique_respects_capacity() {
        assert!(clique_with_switches(200, 8, 24).is_err());
        assert!(clique(157, 24).is_err());
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        for seed in 0..5 {
            let g = random_regular(128, 16, 12, seed).unwrap();
            g.validate().unwrap();
            // per = 8, k = 4
            assert_eq!(g.regularity(), Some((4, 8)));
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_regular_rejects_bad_params() {
        assert!(random_regular(100, 7, 12, 0).is_err()); // 7 ∤ 100
        assert!(random_regular(128, 16, 9, 0).is_err()); // k = 1
                                                         // odd m·k: m=5, per=2, r=5 → k=3, 5·3 odd
        assert!(random_regular(10, 5, 5, 0).is_err());
    }

    #[test]
    fn random_regular_clique_edge_case() {
        // k = m-1 → complete switch graph
        let g = random_regular(8, 4, 5, 1).unwrap(); // per=2, k=3=m-1
        g.validate().unwrap();
        assert_eq!(g.num_links(), 6);
    }

    #[test]
    fn random_general_balances_hosts() {
        let g = random_general(1024, 194, 15, 7).unwrap();
        g.validate().unwrap();
        assert!(g.is_connected());
        let counts = g.host_counts();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*mx - *mn <= 1, "hosts unbalanced: {mn}..{mx}");
        assert_eq!(counts.iter().sum::<u32>(), 1024);
        // all but at most one port used
        let free: u32 = (0..194).map(|s| g.free_ports(s)).sum();
        assert!(free <= 1, "{free} ports left free");
    }

    #[test]
    fn random_general_rejects_overfull() {
        assert!(random_general(1000, 10, 24, 0).is_err());
        // 43 switches × radix 24 could hold the hosts, but not with
        // 2 ring ports per switch
        assert!(random_general(1024, 44, 24, 0).is_err());
    }

    #[test]
    fn random_general_two_switches() {
        let g = random_general(8, 2, 6, 0).unwrap();
        g.validate().unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = random_general(256, 64, 12, 99).unwrap();
        let b = random_general(256, 64, 12, 99).unwrap();
        assert_eq!(a, b);
        let c = random_general(256, 64, 12, 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fabric_generator() {
        let g = random_regular_fabric(50, 4, 3).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.num_links(), 100);
        assert!((0..50).all(|s| g.neighbors(s).len() == 4));
    }
}
