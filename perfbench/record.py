"""Determinism check and run record for the chainfft benchmark.

    python3 perfbench/record.py

From the root of a chainfft checkout, runs every workload twice untraced with
seed SEED for SECONDS seconds, and once traced.  It fails (exit 1) unless the
three runs give the same op counts and image hash for every element they have
in common, every run has failed == 0,
and the metric names and units printed match BENCHMARK.json.  It writes
perfbench/RECORD.json: the environment (commit, src digest, Python version,
nproc, chainfft.__version__), and per workload its
chain, n, q, algebra dimension, the reason it was chosen, the op counts and
image hash of every element of the first run next to the plan's
predicted_total and the paper bound,
the end-to-end metrics of the first run and the traced run's overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import Q, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 1
SECONDS = 4


def declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def printed_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return detail, json.loads(lines[-1])


def environment() -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", *args], capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    sys.path.insert(0, "src")
    import chainfft

    return {
        "commit": git("rev-parse", "HEAD"),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "chainfft_version": chainfft.__version__,
    }


def same_prefix(*runs: list) -> bool:
    """True when the runs agree on every element they all have.  A run's
    elements come as one list per loop process; process i of every run draws
    the same input stream."""
    parts = min(len(r) for r in runs)
    ok = parts > 0
    for part in range(parts):
        common = min(len(r[part]) for r in runs)
        ok &= common > 0 and all(r[part][:common] == runs[0][part][:common] for r in runs)
    return ok


def main() -> int:
    env = environment()
    from chainfft.combinat import ChainKind, algebra_dim

    record = {"environment": env, "seed": SEED, "seconds": SECONDS, "workloads": {}}
    ok = True
    for name, wl in WORKLOADS.items():
        first, result = run(name, SEED, SECONDS, 0)
        second, _ = run(name, SEED, SECONDS, 0)
        traced, traced_result = run(name, SEED, SECONDS, 1)
        deterministic = same_prefix(first["elements"], second["elements"], traced["elements"])
        failed = sum(r["failed"] for r in (result, traced_result))
        names = (printed_units(result) == declared_units("end_to_end")
                 and printed_units(traced_result) == declared_units("per_layer"))
        ok &= deterministic and names and failed == 0
        print(f"{name}: deterministic={deterministic} failed={failed} "
              f"metric names match BENCHMARK.json={names}", file=sys.stderr)
        record["workloads"][name] = {
            "gated": name in GATED,
            "why": wl.why,
            "chain": wl.chain,
            "n": wl.n,
            "q": str(Q),
            "algebra_dim": algebra_dim(ChainKind.parse(wl.chain), wl.n),
            "inputs": wl.inputs,
            "deterministic": deterministic,
            "predicted_total": first["predicted_total"],
            "paper_total": first["paper_total"],
            "elements": first["elements"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"],
            "failed": result["failed"],
            "setups_s": first["setups_s"],
            "tails": first["tails"],
            "trace_fwd_overhead_s": traced_result["metrics"]["trace.fwd_overhead_s"]["value"],
        }
    (HERE / "RECORD.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
