"""One workload process: fresh-interpreter set-up, then the measured closed loop.

Started by run.py from the root of a chainfft checkout; imports chainfft from
`src/` there.  It sets up, runs the loop for `--seconds` and prints one JSON
line of raw results.  `--part` picks which of the seed's input streams it
runs, so the processes of one run see different elements.  On cli-tl8 the
set-up builds the in-process naive reference and is not reported: that
workload's set-up time is taken by run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, lru_entries
from workloads import Q, WORKLOADS, element_tables

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
TRACED_CLI = Path(__file__).resolve().parent / "tracing.py"
# The console script `chainfft` that pip installs runs exactly this.
CLI_ENTRY = "import sys; from chainfft.cli import main; sys.exit(main())"

MIN_ELEMENTS = 4  # a traced run then has two traced and two untraced elements
CLI_TIMEOUT_S = 60
MAX_FAILURE_NOTES = 5

# Per-layer metrics read straight from the span aggregates (see tracing.WRAPPED).
SPAN_METRICS = (
    "combinat.sov_plan_s",
    "diagrams.factor_map_s", "diagrams.factor_map_calls",
    "diagrams.shrink_s", "diagrams.shrink_calls",
    "diagrams.from_key_s", "diagrams.from_key_calls",
    "diagrams.mul_s", "diagrams.mul_calls",
    "pathalg.enumerate_paths_s", "pathalg.enumerate_paths_calls",
    "ratlinalg.intersect_kernel_s", "ratlinalg.intersect_kernel_calls",
    "ratlinalg.invert_s", "ratlinalg.invert_calls",
    "reps.local_blocks_s",
    "reps.token_columns_s", "reps.token_columns_calls",
    "reps.rho_entries_s", "reps.rho_s", "reps.character_s", "reps.gram_dual_s",
    "transform.fft_sov_s", "transform.fft_sov_self_s",
    "transform.fft_naive_s", "transform.fft_naive_self_s",
    "transform.inverse_ft_self_s",
    "transform.element_from_json_s", "transform.image_to_json_s",
)


def image_digest(blocks) -> str:
    """sha256 of blocks given as [(vertex list, matrix of str)]."""
    text = json.dumps([[list(v), m] for v, m in blocks], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def str_blocks(img):
    return [(list(lam), [[str(x) for x in row] for row in m]) for lam, m in img.blocks]


def load_chainfft():
    """Import chainfft from the checkout's src/, refusing any other copy."""
    import chainfft
    import chainfft.reps.core
    import chainfft.transform

    if not Path(chainfft.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"chainfft imported from {chainfft.__file__}, not from {SRC}")
    return chainfft


class Bench:
    """Set-up and per-element ops of one workload.  Library functions are looked
    up at call time, so traced elements see the wrapped bindings."""

    def __init__(self, wl, stream_seed: str, tracer: Tracer | None):
        self.wl = wl
        self.tracer = tracer
        self.samples = {"sov": [], "naive": [], "inverse": [], "cli": []}
        self.fwd_traced: list = []
        self.fwd_untraced: list = []
        self.counts = {"sov_mul": 0, "sov_add": 0, "naive_mul": 0, "naive_add": 0}
        self.traced_sov_mul = 0
        self.counted = 0
        self.cli_records: list = []
        self.elements: list = []
        self.failures: list = []
        self.attempted = 0
        self.failed = 0
        self.untimed_s = 0.0  # loop time spent on the cli-tl8 reference, kept out of loop_s
        self._prepare(stream_seed)
        warm = self.T.AlgebraElement.from_dict(self.kind, wl.n, next(self.warm_stream))
        if wl.fwd != "cli":
            img, _ = self.T.fft_sov(warm, self.rep, self.plan)
        if wl.check == "naive":
            self.T.fft_naive(warm, self.rep)
        else:
            self.T.inverse_ft(img, self.rep)

    def _prepare(self, stream_seed: str) -> None:
        """Representation, plan and input streams; gram_dual when inverting."""
        wl = self.wl
        chainfft = load_chainfft()
        self.T = chainfft.transform
        self.kind = chainfft.combinat.ChainKind.parse(wl.chain)
        self.rep = chainfft.reps.core.adapted_rep(self.kind, wl.n, Q)
        self.plan = self.T.sov_plan(self.kind, wl.n)
        if wl.check == "inverse":
            self.rep.gram_dual()
        keys = [d.key() for d in chainfft.diagrams.all_diagrams(self.kind, wl.n)]
        self.stream = element_tables(keys, wl.inputs, stream_seed)
        self.warm_stream = element_tables(keys, "dense", stream_seed)

    # -- checks ---------------------------------------------------------------
    def _check_counts(self, mul: int, add: int) -> None:
        plan = self.plan
        if not mul <= plan.predicted_total:
            raise AssertionError(f"SOV mul {mul} > predicted {plan.predicted_total}")
        if plan.paper is not None and not plan.predicted_total <= plan.paper.total:
            raise AssertionError(f"predicted {plan.predicted_total} > paper {plan.paper.total}")
        if not add <= mul:
            raise AssertionError(f"SOV add {add} > mul {mul}")

    # -- one element -----------------------------------------------------------
    def step(self, traced: bool) -> None:
        self.attempted += 1
        table = next(self.stream)
        try:
            if self.wl.fwd == "cli":
                record = self._step_cli(table, traced)
            else:
                record = self._step_inprocess(table, traced)
        except Exception as exc:  # a failed check never aborts the run
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(f"element {self.attempted - 1}: {type(exc).__name__}: {exc}")
            return
        self.elements.append(record)

    def _timed_fwd(self, seconds: float, traced: bool) -> None:
        self.samples[self.wl.fwd].append(seconds)
        (self.fwd_traced if traced else self.fwd_untraced).append(seconds)

    def _step_inprocess(self, table, traced: bool) -> dict:
        T, rep = self.T, self.rep
        f = T.AlgebraElement.from_dict(self.kind, self.wl.n, table)
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            img, ops = T.fft_sov(f, rep, self.plan)
            t1 = time.perf_counter()
            if self.wl.check == "naive":
                other, nops = T.fft_naive(f, rep)
            else:
                other, nops = T.inverse_ft(img, rep), None
            t2 = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        self._timed_fwd(t1 - t0, traced)
        self.samples[self.wl.check].append(t2 - t1)
        self._count(ops.mul, ops.add, nops, traced)
        record = {"sov": [ops.mul, ops.add], "image": image_digest(str_blocks(img))}
        if nops is not None:
            record["naive"] = [nops.mul, nops.add]
            if other != img:
                raise AssertionError("SOV image differs from the naive image")
        elif other.coeffs != f.coeffs:
            raise AssertionError("inverse_ft(fft_sov(f)) != f")
        self._check_counts(ops.mul, ops.add)
        return record

    def _count(self, mul: int, add: int, nops, traced: bool) -> None:
        self.counted += 1
        self.counts["sov_mul"] += mul
        self.counts["sov_add"] += add
        if traced:
            self.traced_sov_mul += mul
        if nops is not None:
            self.counts["naive_mul"] += nops.mul
            self.counts["naive_add"] += nops.add

    def _step_cli(self, table, traced: bool) -> dict:
        wl, T = self.wl, self.T
        coeffs = SCRATCH / f"coeffs-{os.getpid()}.json"
        payload = {
            "chain": wl.chain,
            "n": wl.n,
            "q": str(Q),
            "coeffs": [{"diagram": k, "value": str(v)} for k, v in sorted(table.items())],
        }
        coeffs.write_text(json.dumps(payload))
        cli_args = ["fft", "--chain", wl.chain, "-n", str(wl.n), "--algo", "sov",
                    "--coeffs", str(coeffs)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spans = SCRATCH / f"spans-{os.getpid()}.json"
        if traced:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACED_CLI), "--spans-out", str(spans),
                   "--t-spawn", repr(time.monotonic()), "--", *cli_args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *cli_args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT_S)
        t1 = time.perf_counter()
        f = T.AlgebraElement.from_dict(self.kind, wl.n, table)
        t2 = time.perf_counter()
        ref, nops = T.fft_naive(f, self.rep)
        t3 = time.perf_counter()
        self.untimed_s += t3 - t1
        self._timed_fwd(t1 - t0, traced)
        self.samples["naive"].append(t3 - t2)
        if proc.returncode != 0:
            raise AssertionError(f"CLI exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        out = json.loads(proc.stdout)
        got = [(b["vertex"], b["matrix"]) for b in out["blocks"]]
        mul, add = out["ops"]["mul"], out["ops"]["add"]
        self._count(mul, add, nops, traced)
        if traced:
            self.cli_records.append(json.loads(spans.read_text()))
        if got != str_blocks(ref):
            raise AssertionError("CLI blocks differ from the in-process naive reference")
        self._check_counts(mul, add)
        return {"sov": [mul, add], "naive": [nops.mul, nops.add], "image": image_digest(got)}

    # -- results ---------------------------------------------------------------
    def per_layer(self, setup: dict, final: dict) -> dict:
        """Per-layer metrics; times and calls cover one set-up plus one element."""
        if self.wl.fwd == "cli":
            empty = {**Tracer().snapshot(), "cli.startup_s": 0.0, "cli.main_s": 0.0,
                     "lru_entries": 0}
            records = self.cli_records or [empty]
            scoped = {k: statistics.fmean(r[k] for r in records) for k in records[0]}
            miss = statistics.fmean(
                _ratio(r["token_columns_distinct"], r["reps.token_columns_calls"])
                for r in records
            )
            startup = scoped["cli.startup_s"]
            cli_self = scoped["cli.main_s"] - scoped["top_s"]
            lru = scoped["lru_entries"]
            loop_sov_self = sum(r["transform.fft_sov_self_s"] for r in records)
        else:
            traced = max(1, len(self.fwd_traced))
            scoped = {k: setup[k] + (final[k] - setup[k]) / traced for k in final}
            miss = _ratio(final["token_columns_distinct"], final["reps.token_columns_calls"])
            startup = cli_self = 0.0
            lru = lru_entries()
            loop_sov_self = final["transform.fft_sov_self_s"] - setup["transform.fft_sov_self_s"]
        n = max(1, self.counted)
        predicted = float(self.plan.predicted_total)
        out = {name: scoped[name] for name in SPAN_METRICS}
        out.update({
            "reps.token_columns_miss_ratio": miss,
            "reps.lru_entries": lru,
            "transform.sov_mul_per_s": _ratio(self.traced_sov_mul, loop_sov_self),
            **{f"transform.{k}": v / n for k, v in self.counts.items()},
            "transform.sov_mul_over_predicted": self.counts["sov_mul"] / n / predicted,
            "cli.startup_s": startup,
            "cli.self_s": cli_self,
            "trace.fwd_overhead_s": _median_or_zero(self.fwd_traced)
            - _median_or_zero(self.fwd_untraced),
        })
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_or_zero(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace and wl.fwd != "cli":
        load_chainfft()
        tracer = Tracer()
        tracer.install()
    bench = Bench(wl, f"{args.seed}.{args.part}", tracer)
    setup_s = time.monotonic() - args.t_spawn
    setup_spans = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()

    if wl.fwd == "cli":
        SCRATCH.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or bench.attempted < MIN_ELEMENTS:
        traced = bool(args.trace) and bench.attempted % 2 == 1
        bench.step(traced)
    loop_s = time.perf_counter() - start - bench.untimed_s
    for leftover in SCRATCH.glob(f"*-{os.getpid()}.json"):
        leftover.unlink()

    who = resource.RUSAGE_CHILDREN if wl.fwd == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "elements": bench.elements,
        "samples": {k: v for k, v in bench.samples.items() if v},
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "counts": bench.counts,
        "predicted_total": str(bench.plan.predicted_total),
        "paper_total": str(bench.plan.paper.total) if bench.plan.paper else None,
    }
    if args.trace:
        result["per_layer"] = bench.per_layer(
            setup_spans, tracer.snapshot() if tracer else None
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
