"""Per-layer tracing by wrapping, at run time, the names each chainfft layer
exposes to the layer above.  Nothing under src/ is edited.

A wrapped name that no longer exists is skipped, so its metrics read 0 calls.
Spans are aggregated in memory per name: calls, inclusive time (outermost
call only, so recursion is not counted twice) and self time (inclusive time
minus the time of directly nested wrapped spans).

Run as a script, this module is a traced `chainfft` console entry point:

    python3 perfbench/tracing.py --spans-out FILE --t-spawn T -- fft --chain tl ...

It imports chainfft.cli, installs the wrappers, calls chainfft.cli.main with the
arguments after `--`, writes the aggregates to FILE and exits with main's code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

PUBLIC_OWNERS = ("chainfft.transform", "chainfft.cli", "chainfft")

# (span name, owners whose binding is replaced, attribute)
WRAPPED = (
    ("diagrams.factor_map", ("chainfft.transform",), "factor_map"),
    ("diagrams.shrink", ("chainfft.transform",), "shrink"),
    ("diagrams.from_key", ("chainfft.transform",), "diagram_from_key"),
    ("pathalg.enumerate_paths", ("chainfft.transform",), "enumerate_paths"),
    ("diagrams.mul", ("chainfft.reps.core",), "diagram_mul"),
    ("ratlinalg.invert", ("chainfft.reps.core",), "invert"),
    ("reps.local_blocks", ("chainfft.reps.core",), "local_blocks"),
    ("ratlinalg.intersect_kernel", ("chainfft.reps.cells",), "intersect_kernel"),
    ("reps.token_columns", ("chainfft.reps.core:AdaptedRep",), "token_columns"),
    ("reps.rho", ("chainfft.reps.core:AdaptedRep",), "rho"),
    ("reps.rho_entries", ("chainfft.reps.core:AdaptedRep",), "rho_entries"),
    ("reps.character", ("chainfft.reps.core:AdaptedRep",), "character"),
    ("reps.gram_dual", ("chainfft.reps.core:AdaptedRep",), "gram_dual"),
    ("combinat.sov_plan", PUBLIC_OWNERS, "sov_plan"),
    ("transform.fft_sov", PUBLIC_OWNERS, "fft_sov"),
    ("transform.fft_naive", PUBLIC_OWNERS, "fft_naive"),
    ("transform.inverse_ft", PUBLIC_OWNERS, "inverse_ft"),
    ("transform.element_from_json", PUBLIC_OWNERS, "element_from_json"),
    ("transform.image_to_json", PUBLIC_OWNERS, "image_to_json"),
)

SPAN_NAMES = tuple(name for name, _, _ in WRAPPED)


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.top = 0.0  # time in spans with no wrapped parent
        self.token_keys: set = set()
        self._stack: list = []  # [name, time of nested spans]
        self._installed: list = []
        self._wrappers: dict = {}

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if not any(f[0] == name for f in stack):
                    self.total[name] += dt
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top += dt

        if name == "reps.token_columns":
            inner = wrapper

            @functools.wraps(fn)
            def wrapper(rep, *args, **kwargs):
                key = (id(rep), args, tuple(sorted(kwargs.items())))
                try:
                    self.token_keys.add(key)
                except TypeError:  # unhashable arguments
                    self.token_keys.add(repr(key))
                return inner(rep, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every wrapped binding that exists; uninstall() restores them."""
        for name, owners, attr in WRAPPED:
            for owner in owners:
                obj = _resolve(owner)
                fn = getattr(obj, attr, None) if obj is not None else None
                if fn is None:
                    continue
                if name not in self._wrappers:
                    self._wrappers[name] = (fn, self._wrap(name, fn))
                original, wrapper = self._wrappers[name]
                if fn is not original:
                    continue  # bound to something else; leave it alone
                setattr(obj, attr, wrapper)
                self._installed.append((obj, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._installed):
            setattr(obj, attr, original)
        self._installed.clear()

    def snapshot(self) -> dict:
        """Aggregates as plain numbers: `<span>_s`, `<span>_self_s`, `<span>_calls`."""
        out = {"top_s": self.top, "token_columns_distinct": len(self.token_keys)}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = self.total[name]
            out[f"{name}_self_s"] = self.self_time[name]
            out[f"{name}_calls"] = self.calls[name]
        return out


def lru_entries() -> int:
    """Sum of cache_info().currsize over the lru_caches chainfft modules define."""
    seen: set = set()
    total = 0
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("chainfft") or mod is None:
            continue
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if callable(info) and id(value) not in seen:
                seen.add(id(value))
                total += info().currsize
    return total


def _traced_cli(argv: list[str]) -> int:
    spans_out = argv[argv.index("--spans-out") + 1]
    t_spawn = float(argv[argv.index("--t-spawn") + 1])
    cli_args = argv[argv.index("--") + 1 :]
    import chainfft.cli

    startup = time.monotonic() - t_spawn
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = chainfft.cli.main(cli_args)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    record = tracer.snapshot()
    record.update(
        {"cli.startup_s": startup, "cli.main_s": wall, "lru_entries": lru_entries()}
    )
    with open(spans_out, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1:]))
