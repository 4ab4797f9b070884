"""In-process traced run: spans around the public functions of each module.

Run as a child process with ``PYTHONPATH`` on the tree under test::

    python perfbench/tracer.py --workload NAME --inputs DIR --seconds S --out FILE

It runs the workload's commands through click's test runner, alternating a
traced pass with an untraced one until ``S`` seconds are used (at least one of
each), checks every report, and writes the spans and results to ``FILE`` at
exit.  Each wrapped function is patched in every ``bellkit`` namespace that
binds it, so calls between modules are seen as well as calls from the CLI.
Spans live in memory as (id, parent, name, start, end) until the end.

Importing this module does not import bellkit: the runner uses it only for
the traced names and ``aggregate``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function; metric names are
# "<module>.<attribute>.{calls,self_s,total_s}" per traced pass.
TRACED = (
    ("reps", "commutant_basis"),
    ("reps", "irrep_decompose"),
    ("dilations", "find_local_dilation"),
    ("reps", "cyclic_restrict"),
    ("reps", "states_equal"),
    ("support", "is_centrally_supported_via_transfer"),
    ("support", "support_of"),
    ("tilted", "verify_tilted_sos"),
    ("tilted", "NCPoly.evaluate"),
    ("special", "synchronous_verify"),
    ("special", "binary_round"),
    ("dilations", "naimark_dilate"),
    ("dilations", "verify_local_dilation"),
    ("io", "load_model"),
    ("io", "canonical_dumps"),
    ("models", "validate_model"),
    ("models", "correlation_of"),
    ("schmidt", "schmidt_decompose"),
)
COMMAND_SPAN = "cli.command"
FLOPS = "reps.commutant_basis.flops_computed"
REPORT_BYTES = "io.report_bytes"


class Tracer:
    """Span recorder; one per traced child process."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "reps.commutant_basis":
                self.counters[FLOPS] += _stacked_svd_flops(args[0] if args else kwargs["generators"])
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced


def _stacked_svd_flops(generators) -> int:
    """rows * cols^2 of the (k d^2) x d^2 matrix commutant_basis decomposes."""
    gens = list(generators)
    d = gens[0].shape[0]
    return len(gens) * d * d * (d * d) ** 2


def patch(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace every binding of each traced function in bellkit's modules.

    Returns the (namespace, name, original) list that ``unpatch`` restores.
    """
    import importlib

    undo = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "bellkit" or name.startswith("bellkit."))]
    for mod_name, attr in TRACED:
        module = importlib.import_module(f"bellkit.{mod_name}")
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, wrapped)
    return undo


def unpatch(undo) -> None:
    for namespace, key, orig in reversed(undo):
        setattr(namespace, key, orig)


def aggregate(spans, passes: int) -> dict[str, float]:
    """Per-pass calls, self time and total time of every traced name.

    Self time is a span's duration minus its direct children's; total time
    counts only spans with no ancestor of the same name, so recursion is not
    counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start

    def nested_in_same(span) -> bool:
        parent = span[1]
        while parent is not None:
            if by_id[parent][2] == span[2]:
                return True
            parent = by_id[parent][1]
        return False

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for span in spans:
        span_id, _, name, start, end = span
        calls[name] += 1
        self_s[name] += end - start - child_time[span_id]
        if not nested_in_same(span):
            total_s[name] += end - start
    out = {}
    for name in [f"{m}.{a}" for m, a in TRACED] + [COMMAND_SPAN]:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
        out[f"{name}.total_s"] = total_s[name] / passes
    return out


def _run_pass(runner, main, cmds, judge, tracer: Tracer | None) -> tuple[float, list[dict]]:
    results = []
    start = time.perf_counter()
    for cmd in cmds:
        if tracer is None:
            res = runner.invoke(main, list(cmd.args))
        else:
            res = tracer.span(COMMAND_SPAN, runner.invoke, main, list(cmd.args))
            tracer.counters[REPORT_BYTES] += len(res.stdout_bytes)
        crashed = res.exception is not None and not isinstance(res.exception, SystemExit)
        failed, errors = judge(cmd, None if crashed else res.exit_code, res.stdout_bytes, res.stderr)
        results.append({"label": cmd.label, "failed": failed, "errors": errors})
    return time.perf_counter() - start, results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import workloads
    from click.testing import CliRunner

    from bellkit import cli

    cmds = workloads.commands(args.workload, args.inputs)
    runner = CliRunner()
    tracer = Tracer()
    untraced, traced, results = [], [], []
    deadline = time.perf_counter() + args.seconds
    # Traced pass first: like every fresh CLI process, it pays the first-call
    # costs, which then also count as tracing overhead (an upper bound).
    while True:
        undo = patch(tracer)
        try:
            wall, res = _run_pass(runner, cli.main, cmds, workloads.judge, tracer)
        finally:
            unpatch(undo)
        traced.append(wall)
        results += res
        wall, res = _run_pass(runner, cli.main, cmds, workloads.judge, None)
        untraced.append(wall)
        results += res
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": dict(tracer.counters),
                   "untraced_s": untraced, "traced_s": traced, "results": results,
                   "overhead_s": statistics.median(traced) - statistics.median(untraced)}, fh)


if __name__ == "__main__":
    main()
