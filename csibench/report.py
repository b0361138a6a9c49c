#!/usr/bin/env python3
"""Runs every csibench workload, each in its own process, and prints a table
of every end-to-end metric by name and unit, plus failed_frac, the tail
percentile behind result_lag_tail_ms and the durable workload's restart
figures. With --traced it also runs each workload traced and prints the
per-layer metrics and the self-time shares of the traced report.

Usage, from the repository root:

    python3 csibench/report.py [--seed N] [--seconds S] [--traced]
"""
import argparse
import json
import subprocess
import sys

WORKLOADS = ["infer-sh-cold", "replay-sq-resolve", "replay-sh-durable"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "csibench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
    report = next((l["report"] for l in lines if "report" in l), {})
    return report, lines[-1]


def table(title, names, units, cols):
    print(f"\n{title}")
    width = max(len(n) for n in names) + 2
    print("".ljust(width) + "unit".ljust(8) + "".join(w.rjust(20) for w in WORKLOADS))
    for name in names:
        cells = []
        for w in WORKLOADS:
            v = cols[w].get(name)
            cells.append(("-" if v is None else f"{v:.6g}").rjust(20))
        print(name.ljust(width) + units.get(name, "").ljust(8) + "".join(cells))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    cols, units, names = {}, {}, []
    for w in WORKLOADS:
        report, res = run(w, args.seed, args.seconds, 0)
        col = {k: v["value"] for k, v in res["metrics"].items()}
        for k, v in res["metrics"].items():
            units[k] = v["unit"]
            if k not in names:
                names.append(k)
        col["failed_frac"] = res["failed"] / res["attempted"]
        col["tail_percentile"] = report["result_lag_tail"]["percentile"]
        for k, v in report.get("durable", {}).items():
            col[k] = v
        cols[w] = col
    extra = ["failed_frac", "tail_percentile", "restart_s", "state_final_mb"]
    units.update({"failed_frac": "ratio", "tail_percentile": "%", "restart_s": "s", "state_final_mb": "MB"})
    table(f"end to end (seed {args.seed}, {args.seconds} s, untraced)", names + extra, units, cols)
    if not args.traced:
        return

    cols, names, shares = {}, [], {}
    for w in WORKLOADS:
        report, res = run(w, args.seed, args.seconds, 1)
        cols[w] = {k: v["value"] for k, v in res["metrics"].items()}
        for k, v in res["metrics"].items():
            units[k] = v["unit"]
            if k not in names:
                names.append(k)
        shares[w] = report["traced"]
    table("per layer (traced run)", names, units, cols)
    for w in WORKLOADS:
        t = shares[w]
        parts = ", ".join(f"{k} {v:.1f}%" for k, v in sorted(t["self_time_share_pct"].items(), key=lambda kv: -kv[1]))
        print(f"\n{w}: {t['end_to_end']}: traced {t['traced_ms']:.2f}, untraced {t['untraced_ms']:.2f}, "
              f"tracing overhead {t['overhead_pct']:.1f}%\n  self time: {parts}\n  unattributed is {t['unattributed_is']}")
        if "solver_share_pct" in t:
            solver = ", ".join(f"{k} {v:.1f}%" for k, v in t["solver_share_pct"].items())
            print(f"  solver workers, as a share of the replay: {solver}; candidates are "
                  f"{t['candidates_of_solves']:.1f}% of solve time")


if __name__ == "__main__":
    main()
