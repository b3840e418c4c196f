"""Run every workload, each in its own process, and summarise.

    python3 perfbench/suite.py                      # every end-to-end metric, every workload
    python3 perfbench/suite.py --seeds 1-10 --sets 2  # spreads, and a second run set to compare
    python3 perfbench/suite.py --trace              # also the per-layer split of a traced run
    python3 perfbench/suite.py --smoke              # tiny sizes: no failures, every hook resolves

For each workload and metric it prints the median over seeds and the spread,
the distance between the first and third quartile as a share of the median.
With two run sets it also prints how far the second median moved, and
whether each seed's output digests were identical in both sets.  Exits 1 if
any operation failed, a hook did not resolve, or digests differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split()[1] for ln in lines if ln.startswith("digest-all ")), "")
    result["unmeasured"] = next((ln.split()[2:] for ln in lines if ln.startswith("unmeasured hooks:")), [])
    result["stderr"] = proc.stderr
    return result


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--trace", action="store_true", help="also one traced run per workload (first seed)")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, --seconds 1 --trace --sets 2")
    args = ap.parse_args()
    if args.smoke:
        args.seconds, args.trace, args.sets = 1.0, True, 2
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []

    for wl in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_one(wl, seed, args.seconds, 0, args.smoke) for seed in seeds]
            sets.append(runs)
        failed = sum(r["failed"] for runs in sets for r in runs)
        attempted = sum(r["attempted"] for runs in sets for r in runs)
        print(f"== {wl}: {len(seeds)} seeds x {args.sets} set(s), error_rate {failed}/{attempted}")
        if failed:
            problems.append(f"{wl}: {failed} failed operations")
            for runs in sets:
                for r in runs:
                    sys.stderr.write(r["stderr"])
        for name, bound in bounds.items():
            first = [r["metrics"][name]["value"] for r in sets[0]]
            unit = sets[0][0]["metrics"][name]["unit"]
            line = (f"  {name:<16} {statistics.median(first):>14.6g} {unit:<5} "
                    f"spread {spread(first):6.2%} (bound {bound:.0%})")
            if args.sets == 2:
                second = [r["metrics"][name]["value"] for r in sets[1]]
                shift = statistics.median(second) / statistics.median(first) - 1.0
                line += f"  set2 spread {spread(second):6.2%} median shift {shift:+.2%}"
            print(line)
        if args.sets == 2:
            same = all(a["digest"] == b["digest"] for a, b in zip(sets[0], sets[1]))
            print(f"  output digests identical across sets: {'yes' if same else 'NO'}")
            if not same:
                problems.append(f"{wl}: output digests differ between run sets")
        if args.trace:
            tr = run_one(wl, seeds[0], args.seconds, 1, args.smoke)
            if tr["failed"]:
                problems.append(f"{wl}: traced run had {tr['failed']} failed operations")
                sys.stderr.write(tr["stderr"])
            if tr["unmeasured"]:
                problems.append(f"{wl}: unresolved hooks {tr['unmeasured']}")
            print(f"  traced run (seed {seeds[0]}):")
            for name, m in tr["metrics"].items():
                print(f"    {name:<28} {m['value']:>14.6g} {m['unit']}")

    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
