"""chainfft benchmark: one workload run, from the root of a chainfft checkout.

    python3 perfbench/run.py --workload tl8-dense --seed 1 --seconds 20 --trace 0

Builds the bytecode of src/, then starts fresh interpreters one at a time
(closed loop, one caller).  On an in-process workload each of the `setups`
interpreters sets up and then runs its share of the measured loop, so the
samples spread over the whole run.  On cli-tl8 `setups` bare imports of
chainfft.cli time the set-up, and one interpreter runs the loop of cold CLI
processes.  Prints each metric by name with its unit, a
`detail` line (failures, latency samples, tail percentiles, per-element op
counts and image hashes for determinism checks) and, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 a single traced process runs and the metrics are per layer.
Exits 2 without a result when the directory holds no chainfft source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170  # the whole run, set-ups included, ends within this
CLI_IMPORT = "import chainfft.cli"

E2E_UNITS = {
    "setup_s": "s",
    "fwd_tps": "1/s",
    "check_tps": "1/s",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MB",
}

ENGINE_NAMES = {"sov": "sov", "naive": "naive", "inverse": "invert", "cli": "cli_fft"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio") or name.endswith("_over_predicted"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    if len(samples) < 11:
        return None
    idx = len(samples) - 11
    return sorted(samples)[idx], 100.0 * (idx + 1) / len(samples)


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def run_worker(args, part: int, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--t-spawn", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {part} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_setup(deadline: float) -> float:
    """Wall time of one fresh interpreter that imports chainfft.cli and exits."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_IMPORT], env=env,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"{CLI_IMPORT!r} exited with {proc.returncode}")
    return time.perf_counter() - t0


def merge(results: list[dict]) -> dict:
    """One result from the results of the run's loop processes."""
    merged = dict(results[0])
    for key in ("attempted", "failed", "loop_s"):
        merged[key] = sum(r[key] for r in results)
    merged["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    merged["failures"] = [f for r in results for f in r["failures"]]
    merged["elements"] = [r["elements"] for r in results]
    merged["counts"] = {k: sum(r["counts"][k] for r in results) for k in merged["counts"]}
    merged["samples"] = {k: [x for r in results for x in r["samples"][k]]
                         for k in merged["samples"]}
    return merged


def e2e_metrics(wl, setups: list[float], result: dict) -> dict:
    fwd = result["samples"][wl.fwd]
    check = result["samples"][wl.check]
    return {
        "setup_s": statistics.median(setups),
        "fwd_tps": len(fwd) / sum(fwd),
        "check_tps": len(check) / sum(check),
        "elements_per_s": result["attempted"] / result["loop_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def print_engine_lines(result: dict) -> dict:
    """The per-engine metrics under their own names; returns tail details."""
    tails = {}
    for engine, samples in result["samples"].items():
        name = ENGINE_NAMES[engine]
        print(f"metric {name}_tps = {len(samples) / sum(samples):.6g} transforms/s")
        print(f"metric {name}_p50_s = {statistics.median(samples):.6g} s")
        t = tail(samples)
        if t is None:
            print(f"metric {name}_tail_s = n/a ({len(samples)} samples < 11)")
        else:
            print(f"metric {name}_tail_s = {t[0]:.6g} s (p{t[1]:.0f} of {len(samples)})")
            tails[name] = {"value": t[0], "percentile": t[1], "samples": len(samples)}
    return tails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (Path.cwd() / "src" / "chainfft" / "__init__.py").is_file():
        print("error: run from the root of a chainfft checkout (no src/chainfft here)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)

    try:
        if args.trace:
            result = merge([run_worker(args, 0, args.seconds, deadline)])
            setups = [result["setup_s"]]
        elif wl.fwd == "cli":
            setups = [cli_setup(deadline) for _ in range(wl.setups)]
            result = merge([run_worker(args, 0, args.seconds, deadline)])
        else:
            share = args.seconds / wl.setups
            parts = [run_worker(args, part, share, deadline) for part in range(wl.setups)]
            setups = [part["setup_s"] for part in parts]
            result = merge(parts)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["per_layer"]
        units = {name: layer_unit(name) for name in metrics}
        tails = {}
    else:
        metrics = e2e_metrics(wl, setups, result)
        units = E2E_UNITS
        tails = print_engine_lines(result)
    print(f"metric failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted})")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "setups_s": setups, "tails": tails,
        **{k: result[k] for k in ("failures", "elements", "counts", "predicted_total",
                                  "paper_total")},
        "samples": result["samples"],
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
