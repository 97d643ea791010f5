"""Command-line surface: construction, transforms, verification, and benchmarks.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when stdout
is closed before the output is written (nothing is printed to stderr).  Identical
flags and seed produce byte-identical output; every number is emitted as an
exact integer or a "p/q" string.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .combinat import (
    ChainKind,
    algebra_dim,
    bratteli_dot,
    bratteli_json_str,
    cached_bratteli,
    hom_count_brute,
    hom_count_closed,
    stage_quiver_shape,
)
from .diagrams import (check_relations, diagram_from_key, diagram_mul, evaluate, factor_set,
                       grow, route_table)
from .errors import ArgumentError, CapabilityError, ChainFFTError
from .reps import DEFAULT_Q, adapted_rep
from .transform import (
    element_from_json,
    fft_naive,
    fft_sov,
    image_to_json,
    inverse_ft,
    random_element,
    sov_plan,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1
CLOSED_STDOUT = 141  # the status a shell reports for a process ended by SIGPIPE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainfft")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q=False, seed=False, formats=()):
        """Add --chain and -n, and the optional flags this command reads."""
        p.add_argument("--chain", required=True, choices=["sn", "brauer", "tl", "bmw"])
        p.add_argument("-n", type=int, required=True)
        if q:
            p.add_argument("--q", default=None, help="loop parameter as p/q")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if formats:
            p.add_argument("--format", default="json", choices=formats)

    common(sub.add_parser("bratteli", help="emit the Bratteli diagram"), formats=["json", "dot"])
    common(sub.add_parser("dims", help="per-level dimension table"), formats=["json", "csv"])

    fft = sub.add_parser("fft", help="run a Fourier transform")
    common(fft, q=True)
    fft.add_argument("--algo", default="sov", choices=["naive", "sov"])
    fft.add_argument("--coeffs", required=True, help="coefficient JSON file")

    inv = sub.add_parser("invert", help="round-trip a coefficient file")
    common(inv, q=True)
    inv.add_argument("--coeffs", required=True)

    ver = sub.add_parser("verify", help="run verification suites")
    common(ver, q=True, seed=True)
    ver.add_argument(
        "--suite",
        default="all",
        choices=["all", "relations", "factor-set", "hom-counts", "roundtrip", "bounds"],
    )

    plan = sub.add_parser("plan", help="emit the SOV schedule and predicted costs")
    common(plan)

    bench = sub.add_parser("bench", help="operation-count benchmark table")
    common(bench, q=True, seed=True)
    bench.add_argument("--n-max", type=int, default=None)
    bench.add_argument("--trials", type=int, default=1)
    return parser


def _parse_q(args) -> Fraction:
    """The --q value, or DEFAULT_Q when it is not given."""
    if args.q is None:
        return DEFAULT_Q
    try:
        return Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--q {args.q!r} is not a rational number") from None


def _load_coeffs(kind: ChainKind, n: int, args):
    """The --coeffs element, checked against --chain/-n, and its q (--q wins)."""
    try:
        with open(args.coeffs) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read coefficient file {args.coeffs}: {exc}") from None
    element, q_file = element_from_json(payload, kind, n)
    return element, q_file if args.q is None else _parse_q(args)


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # stdout was closed before the output was written (`chainfft plan ... | head`).
        # Point it at devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    return code


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ChainFFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def dispatch(args) -> int:
    kind = ChainKind.parse(args.chain)
    n = args.n
    if n < 0:
        raise UsageError("-n must be nonnegative")
    if kind is ChainKind.SYMMETRIC_GROUP and getattr(args, "q", None) is not None:
        raise UsageError("--q is meaningless for the symmetric-group chain")
    if args.command == "bratteli":
        B = cached_bratteli(kind, n)
        print(bratteli_dot(B) if args.format == "dot" else bratteli_json_str(B), end="")
        return 0
    if args.command == "dims":
        return cmd_dims(kind, n, args)
    if args.command == "plan":
        return cmd_plan(kind, n, args)
    if args.command == "fft":
        return cmd_fft(kind, n, args)
    if args.command == "invert":
        return cmd_invert(kind, n, args)
    if args.command == "verify":
        return cmd_verify(kind, n, args)
    if args.command == "bench":
        return cmd_bench(kind, n, args)
    raise UsageError(f"unknown command {args.command}")


def cmd_dims(kind: ChainKind, n: int, args) -> int:
    B = cached_bratteli(kind, n)
    rows = []
    for i in range(n + 1):
        rows.append(
            {
                "level": i,
                "dims": list(B.dims[i]),
                "sum_of_squares": sum(d * d for d in B.dims[i]),
                "algebra_dim": algebra_dim(kind, i),
            }
        )
    if args.format == "csv":
        print("level,sum_of_squares,algebra_dim")
        for row in rows:
            print(f"{row['level']},{row['sum_of_squares']},{row['algebra_dim']}")
    else:
        print(json.dumps(rows, indent=2))
    return 0


def cmd_plan(kind: ChainKind, n: int, args) -> int:
    plan = sov_plan(kind, n)
    payload = {
        "chain": kind.value,
        "n": n,
        "stages": [
            {
                "stage": s.i,
                "family": list(s.family),
                "w_size": s.w_size,
                "hom": s.hom,
                "predicted_mults": s.predicted_mults,
            }
            for s in plan.stages
        ],
        "levels": [
            {
                "level": l.level,
                "algebra_dim": l.algebra_dim,
                "combine_cost": l.combine_cost,
                "weight": str(l.subproblem_weight),
                "contribution": str(l.contribution),
            }
            for l in plan.levels
        ],
        "predicted_total": str(plan.predicted_total),
        "predicted_reduced": str(plan.predicted_reduced),
        "paper_total": str(plan.paper.total) if plan.paper else None,
        "paper_reduced": str(plan.paper.reduced_total) if plan.paper else None,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _reject_bmw(kind: ChainKind, what: str) -> None:
    if kind is ChainKind.BMW_STRUCTURAL:
        raise UsageError(f"{what} unavailable for bmw: structural support only")


def cmd_fft(kind: ChainKind, n: int, args) -> int:
    _reject_bmw(kind, "fft")
    element, q = _load_coeffs(kind, n, args)
    rep = adapted_rep(kind, n, q)
    plan = sov_plan(kind, n)
    if args.algo == "naive":
        img, ops = fft_naive(element, rep)
    else:
        img, ops = fft_sov(element, rep, plan)
    print(json.dumps(image_to_json(img, ops, plan), indent=2))
    return 0


def cmd_invert(kind: ChainKind, n: int, args) -> int:
    _reject_bmw(kind, "invert")
    element, q = _load_coeffs(kind, n, args)
    rep = adapted_rep(kind, n, q)
    img, _ = fft_sov(element, rep)
    back = inverse_ft(img, rep)
    ok = back.coeffs == element.coeffs
    print(json.dumps({"roundtrip": "pass" if ok else "fail"}))
    return 0 if ok else VERIFY_ERROR


def cmd_verify(kind: ChainKind, n: int, args) -> int:
    failures = 0
    suites = (
        ["relations", "factor-set", "hom-counts", "roundtrip", "bounds"]
        if args.suite == "all"
        else [args.suite]
    )
    for suite in suites:
        try:
            ok, detail = run_suite(kind, n, suite, args)
        except ChainFFTError as exc:
            ok, detail = False, f" ({exc})"
        print(f"{suite}: {'pass' if ok else 'FAIL'}{detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else VERIFY_ERROR


def run_suite(kind: ChainKind, n: int, suite: str, args) -> tuple[bool, str]:
    if suite == "relations":
        if kind is ChainKind.BMW_STRUCTURAL or n < 2:
            return True, " (skipped: structural or trivial)"
        report = check_relations(kind, n)
        return report.ok, f" ({report.checked} instances)"
    if suite == "factor-set":
        if kind is ChainKind.BMW_STRUCTURAL:
            return True, " (skipped: structural)"
        if n == 0:
            return True, " (1 diagrams)"  # the empty diagram, the empty word
        # the route table the engine reads: each word a factor-set word, evaluated once
        heads = {word.tokens: evaluate(word, kind, n) for word in factor_set(kind, n)}
        table = route_table(kind, n)
        for key, (tokens, sub) in table.items():
            head = heads.get(tokens)
            if head is None:
                return False, f" (diagram {key})"
            prod = diagram_mul(head.diagram, grow(diagram_from_key(kind, n - 1, sub), n))
            if prod.diagram.key() != key or prod.loops or head.loops:
                return False, f" (diagram {key})"
        return True, f" ({len(table)} diagrams)"
    if suite == "hom-counts":
        B = cached_bratteli(kind, n)
        for i in range(2, n + 1):
            closed = hom_count_closed(B, i, n)
            brute = hom_count_brute(B, stage_quiver_shape(i, n), n)
            if closed != brute:
                return False, f" (stage {i}: {closed} vs {brute})"
        return True, f" (stages 2..{n})"
    if suite == "roundtrip":
        if kind is ChainKind.BMW_STRUCTURAL:
            return True, " (skipped: structural)"
        rep = adapted_rep(kind, n, _parse_q(args))
        f = random_element(kind, n, args.seed)
        img, _ = fft_sov(f, rep)
        try:
            back = inverse_ft(img, rep)
        except CapabilityError:
            return True, " (skipped: beyond the dual-basis size limit)"
        return back.coeffs == f.coeffs, ""
    if suite == "bounds":
        if kind is ChainKind.SYMMETRIC_GROUP or n < 1:
            return True, " (skipped: no headline bound)"
        plan = sov_plan(kind, n)
        ok = plan.predicted_total <= plan.paper.total
        return ok, f" (predicted {plan.predicted_total} vs paper {plan.paper.total})"
    raise UsageError(f"unknown suite {suite}")


def _median(xs: list[int]) -> Fraction:
    """The exact median: the middle count, or the mean of the two middle counts."""
    xs = sorted(xs)
    return Fraction(xs[len(xs) // 2] + xs[~(len(xs) // 2)], 2)


def cmd_bench(kind: ChainKind, n: int, args) -> int:
    _reject_bmw(kind, "bench")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    n_max = args.n_max if args.n_max is not None else n
    if n_max < n:
        raise UsageError(f"--n-max {n_max} is below -n {n}")
    q = _parse_q(args)
    rows = ["n,dim,naive_mul,sov_mul,sov_add,predicted,paper_bound,reduced_t"]
    for size in range(n, n_max + 1):
        rep = adapted_rep(kind, size, q)
        plan = sov_plan(kind, size)
        naive_m, sov_m, sov_a = [], [], []
        for t in range(args.trials):
            f = random_element(kind, size, args.seed + t)
            _, ops_n = fft_naive(f, rep)
            _, ops_s = fft_sov(f, rep, plan)
            naive_m.append(ops_n.mul)
            sov_m.append(ops_s.mul)
            sov_a.append(ops_s.add)
        dim = algebra_dim(kind, size)
        paper = str(plan.paper.total) if plan.paper else ""
        sov_med = _median(sov_m)
        rows.append(
            f"{size},{dim},{_median(naive_m)},{sov_med},{_median(sov_a)},"
            f"{plan.predicted_total},{paper},{sov_med / dim}"
        )
    # every row is computed first, so an error leaves stdout empty
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
