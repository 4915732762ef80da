//! Textual serialization of host-switch graphs.
//!
//! The format is line-oriented and diff-friendly, in the spirit of the
//! Graph Golf edge-list files:
//!
//! ```text
//! orp-hsg 1
//! n 16
//! m 4
//! r 6
//! h 0 0        # host 0 attached to switch 0
//! ...
//! e 0 1        # switch link {0,1}
//! ```
//!
//! Comments (`#` to end of line) and blank lines are ignored on input.

use crate::error::ParseError;
use crate::graph::HostSwitchGraph;
use std::fmt::Write as _;

/// Serializes a graph to the textual format.
pub fn to_string(g: &HostSwitchGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "orp-hsg 1");
    let _ = writeln!(out, "n {}", g.num_hosts());
    let _ = writeln!(out, "m {}", g.num_switches());
    let _ = writeln!(out, "r {}", g.radix());
    for h in 0..g.num_hosts() {
        let _ = writeln!(out, "h {h} {}", g.switch_of(h));
    }
    let mut links: Vec<_> = g.links().collect();
    links.sort_unstable();
    for (a, b) in links {
        let _ = writeln!(out, "e {a} {b}");
    }
    out
}

/// Parses the textual format produced by [`to_string`].
///
/// Every switch a file can populate is named by one of its host or edge
/// lines, so a declared `m` above `max(1, #h + 2·#e)` is refused as
/// [`ParseError::BadHeader`] before any per-switch state is allocated: a
/// corrupted header cannot make the parser ask for gigabytes.
pub fn from_str(text: &str) -> Result<HostSwitchGraph, ParseError> {
    let mut n: Option<u32> = None;
    let mut m: Option<u32> = None;
    let mut r: Option<u32> = None;
    let mut hosts: Vec<(u32, u32)> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut saw_magic = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || ParseError::BadLine {
            line_no,
            content: raw.to_string(),
        };
        let mut it = line.split_whitespace();
        let tag = it.next().ok_or_else(bad)?;
        if !saw_magic {
            if tag != "orp-hsg" || it.next() != Some("1") {
                return Err(ParseError::BadHeader(raw.to_string()));
            }
            saw_magic = true;
            continue;
        }
        let mut num =
            || -> Result<u32, ParseError> { it.next().ok_or_else(bad)?.parse().map_err(|_| bad()) };
        match tag {
            "n" => n = Some(num()?),
            "m" => m = Some(num()?),
            "r" => r = Some(num()?),
            "h" => {
                let h = num()?;
                let s = num()?;
                hosts.push((h, s));
            }
            "e" => {
                let a = num()?;
                let b = num()?;
                edges.push((a, b));
            }
            _ => return Err(bad()),
        }
    }
    if !saw_magic {
        return Err(ParseError::BadHeader("<empty input>".into()));
    }
    let (Some(n), Some(m), Some(r)) = (n, m, r) else {
        return Err(ParseError::BadHeader("missing n/m/r declaration".into()));
    };
    let populated = (hosts.len() + 2 * edges.len()).max(1);
    if m as usize > populated {
        return Err(ParseError::BadHeader(format!(
            "declared m = {m} but {} host and {} edge lines can populate at most {populated} switches",
            hosts.len(),
            edges.len()
        )));
    }
    let mut g = HostSwitchGraph::new(m, r)?;
    for (a, b) in edges {
        g.add_link(a, b)?;
    }
    // hosts must be attached in id order to reproduce identical ids
    hosts.sort_unstable();
    for (expect, &(h, s)) in hosts.iter().enumerate() {
        if h as usize != expect {
            return Err(ParseError::BadHeader(format!(
                "host ids must be contiguous from 0; saw {h} at position {expect}"
            )));
        }
        g.attach_host(s)?;
    }
    if g.num_hosts() != n {
        return Err(ParseError::BadHeader(format!(
            "declared n = {n} but {} host lines present",
            g.num_hosts()
        )));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::random_general;

    #[test]
    fn roundtrip_preserves_graph() {
        let mut g = random_general(64, 16, 10, 5).unwrap();
        let text = to_string(&g);
        let mut g2 = from_str(&text).unwrap();
        // adjacency-list order is not part of the format; compare canonical
        g.canonicalize();
        g2.canonicalize();
        assert_eq!(g, g2);
        assert_eq!(text, to_string(&g2));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "orp-hsg 1\n\n# a comment\nn 2\nm 1\nr 4\nh 0 0 # host zero\nh 1 0\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.num_hosts(), 2);
        assert_eq!(g.num_switches(), 1);
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(matches!(
            from_str("n 2\nm 1\nr 4\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(from_str(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            from_str("orp-hsg 2\n"),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn malformed_lines_are_located() {
        let text = "orp-hsg 1\nn 2\nm 1\nr 4\nh zero 0\n";
        match from_str(text) {
            Err(ParseError::BadLine { line_no, .. }) => assert_eq!(line_no, 5),
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn invalid_graphs_are_rejected() {
        // duplicate edge
        let text = "orp-hsg 1\nn 0\nm 2\nr 4\ne 0 1\ne 1 0\n";
        assert!(matches!(from_str(text), Err(ParseError::Graph(_))));
        // radix overflow
        let text = "orp-hsg 1\nn 4\nm 1\nr 3\nh 0 0\nh 1 0\nh 2 0\nh 3 0\n";
        assert!(matches!(from_str(text), Err(ParseError::Graph(_))));
    }

    #[test]
    fn switch_count_beyond_the_lines_is_a_header_error() {
        // would otherwise allocate per-switch lists for 2^32 − 1 switches
        let text = "orp-hsg 1\nn 2\nm 4294967295\nr 4\nh 0 0\nh 1 0\n";
        assert!(matches!(from_str(text), Err(ParseError::BadHeader(_))));
        // one host and one edge name at most three switches
        let text = "orp-hsg 1\nn 1\nm 4\nr 4\nh 0 0\ne 1 2\n";
        assert!(matches!(from_str(text), Err(ParseError::BadHeader(_))));
        let text = "orp-hsg 1\nn 1\nm 3\nr 4\nh 0 0\ne 1 2\n";
        assert_eq!(from_str(text).unwrap().num_switches(), 3);
        // an empty one-switch graph still parses
        assert_eq!(
            from_str("orp-hsg 1\nn 0\nm 1\nr 4\n")
                .unwrap()
                .num_switches(),
            1
        );
    }

    #[test]
    fn host_count_mismatch_detected() {
        let text = "orp-hsg 1\nn 3\nm 1\nr 4\nh 0 0\nh 1 0\n";
        assert!(from_str(text).is_err());
        let text = "orp-hsg 1\nn 2\nm 1\nr 4\nh 0 0\nh 2 0\n";
        assert!(from_str(text).is_err());
    }
}
