"""Repeat the benchmark over seeds and report each end-to-end metric's spread.

    python3 perfbench/prove.py --seeds 1-10                 # every workload
    python3 perfbench/prove.py --seeds 1-5 --workloads stick_mc
    python3 perfbench/prove.py --seeds 1-10 --write-baseline

Spread is the distance between the first and third quartile of the per-seed
values (statistics.quantiles, n=4) as a share of their median; a steady
benchmark keeps it below a third of the metric's bound.  Each median is also
compared with the one in perfbench/baseline.json and flagged when it is worse
by more than the bound; the exit code is 1 if any spread is wide or any median
worse.
--write-baseline stores the medians, the quartiles, the check ledger and one
traced run per workload in perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {"workloads": {}}
    steady = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in seeds:
            report, result = run_once(workload, seed, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed its gate: {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        entry = {"seeds": seeds, "checks_failed_ratio": report["checks"]["ratio"],
                 "fingerprint": {k: v for k, v in report["fingerprint"].items() if k != "seed"},
                 "end_to_end": {}}
        for metric in SPEC["end_to_end"]:
            name, vals = metric["name"], values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            steady &= ok
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "bound": metric["bound"], "unit": metric["unit"],
                                         "values": vals}
            old = baseline["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            versus = ""
            if old:
                change = (med - old["median"]) / old["median"]
                worse = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
                steady &= not worse
                versus = f"  vs baseline {change:+7.2%} {'WORSE' if worse else 'ok'}"
            print(f"{workload:<11} {name:<12} median {med:<12.6g} spread {spread:7.2%} "
                  f"bound/3 {metric['bound'] / 3:6.2%} {'ok' if ok else 'WIDE'}{versus}")
        if args.write_baseline:
            _, traced = run_once(workload, seeds[0], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.write_baseline:
        baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
