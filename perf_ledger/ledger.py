#!/usr/bin/env python3
"""Repeated runs of the benchmark and their spread.

    python3 perf_ledger/ledger.py run --runs 10 --out perf_ledger/evidence/set_a.jsonl
    python3 perf_ledger/ledger.py summary perf_ledger/evidence/set_a.jsonl [more.jsonl ...]
    python3 perf_ledger/ledger.py compare set_a.jsonl set_b.jsonl

`run` invokes the command in BENCHMARK.json from the repository root,
cycling through the workloads (one seed per round, so a drift in host
speed lands on every workload alike) and appends one JSON line per run
with its UTC start time, seed, wall time, result line and the
fingerprints the benchmark printed. `summary` prints, per workload and
end-to-end metric, the count, median, quartiles (Python's
`statistics.quantiles(n=4)`), min, max and the quartile spread as a
share of the median next to the metric's bound. `compare` checks that
the medians of a second set are within each bound of the first, and that
every seed present in both sets reproduced the same fingerprints and the
same deterministic metrics bit for bit.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("haspl_gap", "sim_time_us")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fingerprints(stderr):
    """The per-repetition fingerprint of each run, without timings."""
    out = set()
    for line in stderr.splitlines():
        if " rep=" in line and "FAILED" not in line:
            out.add(line.split(" run_s=", 1)[1].split(" ", 1)[1])
    return sorted(out)


def rep_times(stderr):
    """Each repetition's run_s, in order, so drift inside a run shows."""
    return [float(l.split(" run_s=", 1)[1].split(" ", 1)[0])
            for l in stderr.splitlines() if " rep=" in l and " run_s=" in l]


def cmd_run(args):
    b = bench()
    names = args.workloads or [w["name"] for w in b["workloads"]]
    seconds = args.seconds or b["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.seed + i
            for name in names:
                started = datetime.datetime.now(datetime.timezone.utc)
                t = time.monotonic()
                p = subprocess.run(
                    b["command"]
                    + ["--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                wall = time.monotonic() - t
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
                rec = {
                    "utc": started.isoformat(timespec="seconds"),
                    "workload": name, "seed": seed, "trace": args.trace,
                    "wall_s": round(wall, 3), "exit": p.returncode,
                    "result": result, "fingerprints": fingerprints(p.stderr),
                    "rep_run_s": rep_times(p.stderr),
                }
                out.write(json.dumps(rec) + "\n")
                out.flush()
                ok = result is not None and result["correct"] and result["failed"] == 0
                print(f"{rec['utc']} {name} seed={seed} exit={p.returncode} "
                      f"ok={ok} wall={wall:.1f}s", file=sys.stderr)
                if not ok:
                    print(p.stderr[-2000:], file=sys.stderr)


def load(paths):
    recs = []
    for path in paths:
        with open(path) as f:
            recs += [json.loads(l) for l in f if l.strip()]
    return recs


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def table(recs, b):
    """{workload: {metric: [values]}} of the untraced runs that passed."""
    out = {}
    for r in recs:
        res = r["result"]
        if r["trace"] or not res or not res["correct"]:
            continue
        for name, m in res["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def cmd_summary(args):
    b = bench()
    recs = load(args.files)
    bounds = {m["name"]: m for m in b["end_to_end"]}
    bad = [r for r in recs if not (r["result"] and r["result"]["correct"])]
    first = min(r["utc"] for r in recs)
    last = max(r["utc"] for r in recs)
    print(f"{len(recs)} runs from {first} to {last}; {len(bad)} failed\n")
    print("| workload | metric | n | median | q1 | q3 | min | max | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    worst = []
    for w, metrics in table(recs, b).items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3, s = spread(vals)
            bound = bounds[name]["bound"]
            unit = bounds[name]["unit"]
            print(f"| {w} | {name} ({unit}) | {len(vals)} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {min(vals):.6g} | {max(vals):.6g} | {s:.4f} | {bound} |")
            if name != "setup_s":
                worst.append((s / bound, w, name, s, bound))
    worst.sort(reverse=True)
    if worst:
        r, w, name, s, bound = worst[0]
        print(f"\nlargest spread relative to its bound: {w}/{name} "
              f"{s:.4f} = {r:.2f} x bound {bound}")
    return 1 if bad else 0


def cmd_compare(args):
    b = bench()
    bounds = {m["name"]: m for m in b["end_to_end"]}
    a_recs, b_recs = load([args.first]), load([args.second])
    a, c = table(a_recs, b), table(b_recs, b)
    status = 0
    for w in a:
        for name, vals in a[w].items():
            if name not in c.get(w, {}):
                continue
            m1, m2 = statistics.median(vals), statistics.median(c[w][name])
            worse = (m2 - m1) / m1 if bounds[name]["better"] == "lower" else (m1 - m2) / m1
            ok = worse <= bounds[name]["bound"]
            status |= not ok
            print(f"{w} {name}: {m1:.6g} -> {m2:.6g} ({worse:+.4f} worse, "
                  f"bound {bounds[name]['bound']}) {'ok' if ok else 'REGRESSED'}")
    seen, differ = {}, False
    for r in a_recs + b_recs:
        if not (r["result"] and r["result"]["correct"]) or r["trace"]:
            continue
        key = (r["workload"], r["seed"])
        det = {k: r["result"]["metrics"][k]["value"] for k in DETERMINISTIC}
        ident = (tuple(r["fingerprints"]), json.dumps(det, sort_keys=True))
        if seen.setdefault(key, ident) != ident:
            print(f"NOT REPRODUCED: {key}")
            differ = True
    print(f"{len(seen)} (workload, seed) pairs; fingerprints and "
          f"{'/'.join(DETERMINISTIC)} {'differ' if differ else 'identical'} across sets")
    return status or differ


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--workloads", nargs="*")
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
