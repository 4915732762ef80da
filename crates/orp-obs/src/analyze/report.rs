//! Human-readable faces of the analysis engine: the text reports
//! behind `orp report` and `orp diff`.

use super::breakdown::attribute;
use super::diff::TraceDiff;
use super::hotspot::hotspots;
use super::spans::aggregate_spans;
use super::TraceData;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Formats simulated seconds with a readable unit.
fn t(secs: f64) -> String {
    let a = secs.abs();
    if a >= 1.0 || a == 0.0 {
        format!("{secs:.4} s")
    } else if a >= 1e-3 {
        format!("{:.4} ms", secs * 1e3)
    } else {
        format!("{:.4} µs", secs * 1e6)
    }
}

fn pct(part: f64, whole: f64) -> String {
    if whole.abs() < 1e-300 {
        "    –".into()
    } else {
        format!("{:5.1}%", part / whole * 100.0)
    }
}

/// Renders the full single-trace report: makespan attribution,
/// critical path, link hotspots, span rollup, and counters. Always
/// non-empty; sections without data explain their absence instead of
/// vanishing.
pub fn render_report(data: &TraceData, top_k: usize) -> String {
    let mut o = String::with_capacity(4096);
    let _ = writeln!(o, "== latency attribution report ==");
    let _ = writeln!(
        o,
        "{} flows, {} dependency edges, {} hop records, {} loaded links, {} spans",
        data.flows.len(),
        data.deps.len(),
        data.hops.len(),
        data.links.len(),
        data.spans.len()
    );
    if data.dropped_events > 0 {
        let _ = writeln!(
            o,
            "WARNING: the journal dropped {} events — this analysis is \
             incomplete (raise ObsConfig::journal_capacity when recording)",
            data.dropped_events
        );
    }
    match attribute(data) {
        Some(a) => {
            let _ = writeln!(o, "\nmakespan: {}", t(a.makespan));
            let _ = writeln!(
                o,
                "critical path: {} flows, attribution (share of makespan):",
                a.path_flows
            );
            let rows = [
                ("propagation", a.on_path.propagation),
                ("serialization", a.on_path.serialization),
                ("queueing", a.on_path.queueing),
                ("reroute stall", a.on_path.stall),
                ("compute/blocked", a.compute),
                ("tail drain", a.tail),
                ("residual", a.residual),
            ];
            for (name, v) in rows {
                let _ = writeln!(o, "  {name:<16} {:>14} {}", t(v), pct(v, a.makespan));
            }
            let _ = writeln!(
                o,
                "all {} flows combined: prop {} · ser {} · queue {} · stall {}",
                data.flows.len(),
                t(a.all.propagation),
                t(a.all.serialization),
                t(a.all.queueing),
                t(a.all.stall)
            );
            render_path(&mut o, data);
        }
        None => {
            let _ = writeln!(
                o,
                "\nno flow.done records — makespan attribution unavailable \
                 (anneal-only trace, or an export from an older build)"
            );
        }
    }
    if !data.links.is_empty() {
        let _ = writeln!(o, "\ntop {top_k} link hotspots (util × sharing):");
        let _ = writeln!(
            o,
            "  {:<6} {:<8} {:>11} {:>7} {:>10} {:>6} {:>8}",
            "link", "kind", "endpoints", "util", "avg_flows", "peak", "score"
        );
        for h in hotspots(&data.links, top_k) {
            let kind = match h.link.kind {
                0 => "host-up",
                1 => "host-dn",
                _ => "fabric",
            };
            let _ = writeln!(
                o,
                "  {:<6} {:<8} {:>5}→{:<5} {:>6.1}% {:>10.2} {:>6} {:>8.3}",
                h.link.link,
                kind,
                h.link.a,
                h.link.b,
                h.link.util_ppm / 1e4,
                h.link.avg_flows,
                h.link.peak_flows,
                h.score
            );
        }
    }
    let aggs = aggregate_spans(&data.spans);
    if !aggs.is_empty() {
        let _ = writeln!(o, "\nspans (self/total, µs wall):");
        for a in &aggs {
            let _ = writeln!(
                o,
                "  {:<40} ×{:<5} self {:>10} total {:>10}",
                a.path, a.count, a.self_us, a.total_us
            );
        }
    }
    {
        let counter = |n: &str| {
            data.counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|&(_, v)| v as u64)
        };
        let mut extra = String::new();
        crate::stream::render_eval_mix(&mut extra, counter);
        crate::stream::render_watchdog(
            &mut extra,
            0,
            counter("watchdog.stalls"),
            None,
            data.event_counts
                .iter()
                .find(|(n, _)| n.as_str() == "watchdog.stalled")
                .map_or(0, |(_, c)| *c as u64),
        );
        if !extra.is_empty() {
            let _ = writeln!(o, "\nsearch engine:");
            for line in extra.lines() {
                let _ = writeln!(o, "  {line}");
            }
        }
    }
    if !data.counters.is_empty() {
        let _ = writeln!(o, "\ncounters:");
        for (name, v) in &data.counters {
            let _ = writeln!(o, "  {name:<32} {v}");
        }
    }
    if !data.event_counts.is_empty() {
        let _ = writeln!(o, "\njournal events by name:");
        for (name, n) in &data.event_counts {
            let _ = writeln!(o, "  {name:<32} {n}");
        }
    }
    o
}

fn render_path(o: &mut String, data: &TraceData) {
    use super::critical_path::{critical_path, CpNode};
    let nodes: Vec<CpNode> = data
        .flows
        .iter()
        .map(|f| CpNode {
            id: f.id,
            start: f.created,
            end: f.completed,
        })
        .collect();
    let cp = critical_path(&nodes, &data.deps);
    let by_id: HashMap<u64, (u32, u32)> =
        data.flows.iter().map(|f| (f.id, (f.src, f.dst))).collect();
    const SHOWN: usize = 20;
    let _ = writeln!(
        o,
        "\ncritical path ({} steps{}):",
        cp.steps.len(),
        if cp.steps.len() > SHOWN {
            format!(", last {SHOWN} shown")
        } else {
            String::new()
        }
    );
    let skip = cp.steps.len().saturating_sub(SHOWN);
    for s in &cp.steps[skip..] {
        let (src, dst) = by_id.get(&s.id).copied().unwrap_or((0, 0));
        let _ = writeln!(
            o,
            "  flow {:>6} rank {:>4}→{:<4} [{} .. {}] gap {}",
            s.id,
            src,
            dst,
            t(s.start),
            t(s.end),
            t(s.gap)
        );
    }
}

/// Renders the two-run diff: per-component contributions to the
/// makespan delta plus the attribution coverage line the acceptance
/// bar keys on.
pub fn render_diff(a_label: &str, b_label: &str, d: &TraceDiff) -> String {
    let mut o = String::with_capacity(1024);
    let _ = writeln!(o, "== trace diff ==");
    let _ = writeln!(o, "A: {a_label}  makespan {}", t(d.a_makespan));
    let _ = writeln!(o, "B: {b_label}  makespan {}", t(d.b_makespan));
    let _ = writeln!(
        o,
        "Δ makespan (B − A): {}   critical-path flows: {} vs {}",
        t(d.delta()),
        d.path_flows.0,
        d.path_flows.1
    );
    let _ = writeln!(
        o,
        "\n  {:<16} {:>14} {:>14} {:>14} {:>8}",
        "component", "A", "B", "Δ", "share"
    );
    for c in &d.components {
        let _ = writeln!(
            o,
            "  {:<16} {:>14} {:>14} {:>14} {:>8}",
            c.name,
            t(c.a),
            t(c.b),
            t(c.delta()),
            pct(c.delta(), d.delta())
        );
    }
    let _ = writeln!(
        o,
        "  {:<16} {:>14} {:>14} {:>14} {:>8}",
        "residual",
        "",
        "",
        t(d.residual),
        pct(d.residual, d.delta())
    );
    let _ = writeln!(
        o,
        "\nnamed components explain {:.2}% of the makespan delta",
        d.coverage * 100.0
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::diff::diff;
    use crate::analyze::{FlowRecord, LinkRecord, SpanInfo};

    fn populated() -> TraceData {
        TraceData {
            flows: vec![FlowRecord {
                id: 0,
                src: 0,
                dst: 1,
                bytes: 64.0,
                hops: 3,
                created: 0.0,
                completed: 0.01,
                propagation: 0.004,
                serialization: 0.003,
                queueing: 0.002,
                stall: 0.001,
            }],
            links: vec![LinkRecord {
                link: 4,
                a: 0,
                b: 1,
                kind: 2,
                bytes: 64.0,
                util_ppm: 500_000.0,
                avg_flows: 1.5,
                peak_flows: 2,
            }],
            spans: vec![SpanInfo {
                name: "sim.run".into(),
                start_us: 0,
                dur_us: 120,
                tid: 0,
            }],
            counters: vec![("sim.flows".into(), 1.0)],
            completed_time: Some(0.01),
            ..Default::default()
        }
    }

    #[test]
    fn report_covers_every_section() {
        let text = render_report(&populated(), 5);
        for needle in [
            "makespan",
            "propagation",
            "critical path",
            "hotspots",
            "fabric",
            "sim.run",
            "sim.flows",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn report_surfaces_eval_mix_and_watchdog() {
        let mut data = populated();
        data.counters.push(("eval.full".into(), 5.0));
        data.counters.push(("eval.incremental".into(), 90.0));
        data.counters.push(("eval.early_reject".into(), 5.0));
        data.counters.push(("watchdog.stalls".into(), 2.0));
        let text = render_report(&data, 5);
        assert!(text.contains("eval path mix"), "missing eval mix:\n{text}");
        assert!(text.contains("incremental 90 (90.0%)"), "{text}");
        assert!(text.contains("watchdog: 2 stalls"), "{text}");
        // absent telemetry leaves the section out entirely
        let bare = render_report(&populated(), 5);
        assert!(!bare.contains("search engine:"));
    }

    #[test]
    fn flowless_report_is_still_non_empty() {
        let data = TraceData {
            dropped_events: 3,
            ..Default::default()
        };
        let text = render_report(&data, 5);
        assert!(text.contains("no flow.done records"));
        assert!(text.contains("WARNING"));
    }

    #[test]
    fn diff_report_prints_coverage() {
        let a = populated();
        let mut b = populated();
        for f in &mut b.flows {
            f.completed *= 2.0;
            f.queueing += 0.01;
        }
        b.completed_time = Some(0.02);
        let d = diff(&a, &b).unwrap();
        let text = render_diff("a.json", "b.json", &d);
        assert!(text.contains("a.json"));
        assert!(text.contains("queueing"));
        assert!(text.contains("explain"));
    }
}
