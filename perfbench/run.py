"""Seeded benchmark of pitmanyor: the stick route, the restaurant route and
the exact-law identity checks.

    python3 perfbench/run.py --workload stick_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  Each run is a closed loop with one caller and
`workers=1`: passes (see worker.py) run back to back for --seconds, and every
pass checks its outputs against the exact law.  With --trace 0 the last line
of stdout is one JSON object with the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics of a traced run of the same
passes, whose outputs must equal the untraced run's.  The line before it is a
report with the environment fingerprint and the correctness ledger.
`--workload all` runs every workload, prints each result line, and exits 1 if
any of them fails its correctness gate.

Exit codes: 0 for a run whose outputs pass the gate, 1 when the gate fails or
a pass crashed or hung, 2 for a usage or set-up error.  Workload names and
metric names come from BENCHMARK.json.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
BASELINE = HERE / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"

# identities runs each pass in a fresh interpreter so the law cache starts cold
FRESH_PER_PASS = {"identities"}
# a pass that runs longer than this is killed and counted as a failed
# operation; normal passes take one to six seconds
HANG_LIMIT_S = 60.0
SETUP_REPEATS = 15
SETUP_SNIPPET = (
    "import pitmanyor\n"
    "pitmanyor.run_monte_carlo(pitmanyor.PYParams(1.0, 0.5), 3, 16, 'crp', 1, workers=1)\n"
)
# the set-up probe: a fresh interpreter that imports numpy and no pitmanyor
# code, so no change to the package moves it
SETUP_PROBE = "import numpy\n"
# the set-up probe's typical wall time on the reference host (2-vCPU Xeon VM,
# python 3.11, numpy 2.4); setup_s is expressed at that host speed
SETUP_PROBE_REF_S = 0.2
# the one check documented as failing by design (README, "Known failing checks")
KNOWN_RED = {"lemma_b_bridge_at_60"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_interpreter(code: str) -> float:
    """Wall time of a fresh interpreter running `code`.

    The wait blocks in waitpid, with a timer thread as the hang guard:
    `subprocess.run(timeout=...)` would poll and round each time up to 50 ms."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                            stdout=subprocess.DEVNULL)
    guard = threading.Timer(HANG_LIMIT_S, proc.kill)
    guard.start()
    proc.wait()
    elapsed = time.perf_counter() - t0
    guard.cancel()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up call exited with {proc.returncode}")
    return elapsed


def time_setup() -> tuple[list[float], list[float]]:
    """Set-up times (import pitmanyor, one tiny call) and set-up probe times,
    in interleaved pairs, so each set-up time has a probe from the same moment."""
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(time_interpreter(SETUP_SNIPPET))
        probes.append(time_interpreter(SETUP_PROBE))
    return setups, probes


def run_worker(workload, seed, first, trace, seconds=None, count=None):
    """Run one worker process; return (pass lines, hung_or_crashed).

    Lines arrive through a reader thread, so a pass that stops producing
    output for HANG_LIMIT_S is noticed, killed and reported."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--first", str(first), "--trace", str(trace)]
    cmd += ["--seconds", repr(seconds)] if count is None else ["--count", str(count)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    lines: queue.Queue = queue.Queue()

    def read():
        for raw in proc.stdout:
            lines.put(raw)
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    passes, broken = [], False
    while True:
        try:
            raw = lines.get(timeout=HANG_LIMIT_S)
        except queue.Empty:
            print(f"perfbench: {workload} pass {first + len(passes)} exceeded "
                  f"{HANG_LIMIT_S:.0f} s; killed", file=sys.stderr)
            proc.kill()
            broken = True
            break
        if raw is None:
            break
        passes.append(json.loads(raw))
    proc.wait()
    reader.join()
    proc.stdout.close()
    if proc.returncode != 0 and not broken:
        print(f"perfbench: {workload} worker exited with {proc.returncode}", file=sys.stderr)
        broken = True
    return passes, broken


def run_passes(workload, seed, trace, seconds=None, count=None):
    """Closed loop of passes: fill `seconds`, or run exactly `count` passes.

    Returns (pass lines, operations attempted, operations that crashed or hung)."""
    passes, attempted, broken = [], 0, 0
    started = time.perf_counter()
    while True:
        left = None if seconds is None else seconds - (time.perf_counter() - started)
        if workload in FRESH_PER_PASS:
            got, bad = run_worker(workload, seed, len(passes), trace, count=1)
        elif count is None:
            got, bad = run_worker(workload, seed, 0, trace, seconds=left)
        else:
            got, bad = run_worker(workload, seed, 0, trace, count=count)
        passes += got
        attempted += len(got) + bad
        broken += bad
        if bad or workload not in FRESH_PER_PASS:
            break
        if count is not None and len(passes) >= count:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    return passes, attempted, broken


def git_commit() -> str:
    """Commit of the checkout, or "unknown" when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "workers": 1,
        "seed": seed,
        "commit": git_commit(),
    }


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def declared_metrics(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def checks_ledger(workload: str, passes: list) -> dict:
    """Failed checks over attempted checks, gated against the recorded baseline."""
    attempted = sum(p["checks"] for p in passes)
    failed_names = [name for p in passes for name in p["failed_checks"]]
    ratio = len(failed_names) / attempted if attempted else 1.0
    baseline = json.loads(BASELINE.read_text())["workloads"][workload]["checks_failed_ratio"]
    unexpected = sorted(set(failed_names) - KNOWN_RED)
    return {
        "attempted": attempted,
        "failed": len(failed_names),
        "ratio": ratio,
        "baseline_ratio": baseline,
        "unexpected_failures": unexpected,
        "ok": not unexpected and ratio <= baseline + 1e-12,
    }


def timing(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def run_untraced(workload, seed, seconds):
    setups, probes = time_setup()
    passes, attempted, broken = run_passes(workload, seed, 0, seconds=seconds)
    # set-up time over its probe, in seconds at the reference host's speed
    scaled = [SETUP_PROBE_REF_S * s / p for s, p in zip(setups, probes)]
    metrics = {}
    report = {"setup_s": timing(scaled), "setup_raw_s": timing(setups),
              "setup_probe_s": timing(probes)}
    if passes:
        verified = [p["verified_s"] for p in passes]
        metrics = {
            "setup_s": statistics.median(scaled),
            "verified_rel": statistics.median(p["verified_s"] / p["probe_s"] for p in passes),
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
        }
        report["verified_s"] = timing(verified)
        report["probe_s"] = timing([p["probe_s"] for p in passes])
        if passes[0]["draws"]:
            report["draws_per_s"] = timing([p["draws"] / p["mc_s"] for p in passes])
    return passes, attempted, broken, metrics, report, []


def run_traced(workload, seed, seconds):
    """Untraced passes for half the time, then the same passes traced."""
    plain, attempted, broken = run_passes(workload, seed, 0, seconds=seconds / 2)
    traced, t_attempted, t_broken = [], 0, 0
    if plain and not broken:
        traced, t_attempted, t_broken = run_passes(workload, seed, 1, count=len(plain))
    passes = plain + traced
    mismatched = [a["index"] for a, b in zip(plain, traced) if a["digest"] != b["digest"]]
    metrics, report = {}, {}
    if traced:
        names = traced[0]["layers"].keys()
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
        pairs = list(zip(plain, traced))
        metrics["harness.run_monte_carlo.draws_per_s"] = (
            statistics.median(p["draws"] / p["mc_s"] for p in plain) if plain[0]["draws"] else 0.0
        )
        # per-pass times over their probes, so host drift between the two
        # phases does not show up as tracing overhead
        metrics["trace.overhead_ratio"] = statistics.median(
            (b["verified_s"] / b["probe_s"]) / (a["verified_s"] / a["probe_s"]) for a, b in pairs
        )
        report["missing_trace_targets"] = traced[0]["missing"]
    report["trace_mismatched_passes"] = mismatched
    return passes, attempted + t_attempted, broken + t_broken, metrics, report, mismatched


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    run = run_traced if trace else run_untraced
    passes, attempted, broken, metrics, report, mismatched = run(workload, seed, seconds)
    ledger = checks_ledger(workload, passes)
    if trace and metrics:
        metrics["verify.checks_failed_ratio"] = ledger["ratio"]
    bad_passes = sum(1 for p in passes if set(p["failed_checks"]) - KNOWN_RED)
    correct = bool(metrics) and ledger["ok"] and not mismatched and not broken
    declared = declared_metrics(trace)
    if metrics and set(metrics) != set(declared):
        raise SystemExit(
            f"perfbench: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": broken + bad_passes + len(mismatched),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    report.update({"workload": workload, "trace": trace, "seconds": seconds,
                   "fingerprint": fingerprint(seed), "checks": ledger})
    return result, report


def print_table(workload: str, result: dict, report: dict) -> None:
    print(f"== {workload}: correct={result['correct']} passes attempted={result['attempted']} "
          f"failed={result['failed']} checks failed {report['checks']['failed']}"
          f"/{report['checks']['attempted']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        samples = report.get(name, {}).get("samples")
        extra = f"  (median of {samples})" if samples else ""
        print(f"   {name:<64} {m['value']:>14.6g} {m['unit']}{extra}", file=sys.stderr)
    for name, unit in (("verified_s", "s"), ("draws_per_s", "1/s"), ("setup_raw_s", "s")):
        if name in report:
            print(f"   {name + ' (report only)':<64} {report[name]['median']:>14.6g} {unit}"
                  f"  (median of {report[name]['samples']})", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "pitmanyor").is_dir() or not BASELINE.is_file() or not SPEC.is_file():
        print(f"perfbench: run from a checkout that holds src/pitmanyor, "
              f"BENCHMARK.json and {BASELINE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {', '.join(names)} or all")
    workloads = names if args.workload == "all" else [args.workload]
    all_ok = True
    for workload in workloads:
        result, report = run_workload(workload, args.seed, args.seconds, args.trace)
        print_table(workload, result, report)
        print(json.dumps(report))
        print(json.dumps(result), flush=True)
        all_ok &= result["correct"] and result["failed"] == 0
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
