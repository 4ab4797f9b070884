"""End-to-end benchmark of the bellkit CLI.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs ``python -m bellkit.cli <cmd>`` as fresh subprocesses, back
to back (a closed loop), with BLAS threads pinned to 1 and ``PYTHONPATH`` on
the tree's ``src``.  Inputs are generated from the seed by ``gen.py`` and
every report is checked against the answer known from its construction
(``workloads.py``).  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` the per-layer metrics of an in-process traced run
(``tracer.py``) and of the import breakdown.  The last stdout line is the
result object; the line before it is the full record (environment, per
command timings and stdout hashes), which is also written under
``perfbench/.work``.
"""

from __future__ import annotations

import os

THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                       "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is imported, here and in children

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 11         # fresh `--version` processes, spread over the run; setup_s is their median
IMPORT_REPS = 5         # `-X importtime` processes per traced run
SPAWN_REPS = 5          # bare `python -c pass` processes per traced run
CMD_TIMEOUT_S = 120.0
IMPORT_PACKAGES = ("scipy", "numpy", "click")

# slowest_cmd_s (one command's wall time) is in the record only: a single
# command spreads too much run to run on a shared machine to gate on.
END_TO_END = (("batch_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# Children always use and refresh the bytecode cache next to the sources, as
# an installed package would, whatever the caller set.
UNSET_FOR_CHILDREN = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of every ``--trace 1`` metric, in output order."""
    out = [("import.bellkit_cli_s", "s")] + [(f"import.{p}_s", "s") for p in IMPORT_PACKAGES]
    out += [("process.spawn_s", "s")]
    for mod, attr in tracer.TRACED:
        out += [(f"{mod}.{attr}.calls", "count"), (f"{mod}.{attr}.self_s", "s"),
                (f"{mod}.{attr}.total_s", "s")]
    out += [(tracer.FLOPS, "flop"), (tracer.REPORT_BYTES, "bytes"),
            (f"{tracer.COMMAND_SPAN}.self_s", "s"), ("trace.untraced_pass_s", "s"),
            ("trace.overhead_s", "s")]
    return out


# -------------------------------------------------------------- processes

def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_FOR_CHILDREN}
    env["PYTHONPATH"] = str(root / "src")
    env.update(THREAD_PINS)
    return env


class Child:
    """Outcome of one child process: wall time, exit code (None on timeout),
    peak RSS from its own rusage, and its output."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, out_dir: Path,
                 timeout_s: float = CMD_TIMEOUT_S):
        out_path, err_path = out_dir / "stdout", out_dir / "stderr"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=env, cwd=cwd)
            timer = threading.Timer(timeout_s, lambda: (timed_out.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = None if timed_out.is_set() else proc.returncode
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def timing(values: list[float]) -> dict:
    """Median, the highest listed percentile with at least 10 samples beyond
    it (when there are enough samples), and the sample count."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]
            break
    return out


# ------------------------------------------------------------ environment

def environment(root: Path, seed: int, inputs_sha256: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
        "blas": blas, "thread_pins": THREAD_PINS, "git": git_state(root), "seed": seed,
        "inputs_sha256": inputs_sha256,
    }


def git_state(root: Path) -> dict | None:
    """Commit and dirty flag, or None when ``root`` is not a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return None
        head = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"commit": head, "dirty": dirty}


# ------------------------------------------------------------------- runs

class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.work = root / "perfbench" / ".work" / workload
        self.inputs = self.work / "inputs"
        self.env = child_env(root)
        self.attempted = self.failed = self.verdict_errors = 0
        self.problems: list[str] = []
        self.inputs_sha256 = gen.write_inputs(workload, seed, self.inputs, root / "fixtures")
        self.cmds = workloads.commands(workload, self.inputs.relative_to(root).as_posix())

    def child(self, argv: list[str], timeout_s: float = CMD_TIMEOUT_S) -> Child:
        return Child(argv, self.env, self.root, self.work, timeout_s)

    def check_inputs(self) -> None:
        bad = gen.manifest_mismatches(self.inputs)
        if bad:
            self.problems.append(f"inputs changed: {bad}")

    def setup_time(self) -> float:
        """Wall time of one fresh ``--version`` run."""
        c = self.child([sys.executable, "-m", "bellkit.cli", "--version"])
        if c.exit_code != 0 or b"version" not in c.stdout:
            self.problems.append(f"--version failed: {c.exit_code} {c.stderr[-300:]}")
        return c.wall_s

    def run_command(self, cmd: workloads.Cmd) -> dict:
        c = self.child([sys.executable, "-m", "bellkit.cli", *cmd.args])
        failed, errors = workloads.judge(cmd, c.exit_code, c.stdout, c.stderr)
        self.attempted += 1
        self.failed += failed
        self.verdict_errors += bool(errors)
        return {"label": cmd.label, "wall_s": c.wall_s, "exit_code": c.exit_code,
                "peak_rss_mb": c.maxrss_mb, "stdout_bytes": len(c.stdout),
                "stdout_sha256": hashlib.sha256(c.stdout).hexdigest(),
                "failed": failed, "errors": errors}

    def end_to_end(self) -> tuple[dict, dict]:
        """Passes over the command list until the next one would overrun
        ``seconds`` (at least one).  The ``--version`` runs behind setup_s are
        spread over the same time, one in a gap between commands once it is
        due, so that their median sees the machine as the passes do; the rest
        run after the last pass.  A pass's time is the sum of its commands."""
        self.setup_time()  # untimed: fills the bytecode cache, as an installed package ships it
        setup, passes = [], []
        start = time.perf_counter()
        deadline = start + self.seconds
        while True:
            self.check_inputs()
            rows = []
            for cmd in self.cmds:
                if (len(setup) < SETUP_REPS and time.perf_counter() - start
                        >= len(setup) * self.seconds / SETUP_REPS):
                    setup.append(self.setup_time())
                rows.append(self.run_command(cmd))
            passes.append((sum(r["wall_s"] for r in rows), rows))
            if time.perf_counter() + passes[-1][0] > deadline:
                break
        while len(setup) < SETUP_REPS:
            setup.append(self.setup_time())
        batch = [w for w, _ in passes]
        slowest = [max(r["wall_s"] for r in rows) for _, rows in passes]
        rss = [max(r["peak_rss_mb"] for r in rows) for _, rows in passes]
        metrics = {"batch_s": statistics.median(batch),
                   "peak_rss_mb": statistics.median(rss),
                   "setup_s": statistics.median(setup)}
        detail = {"batch_s": timing(batch), "slowest_cmd_s": timing(slowest),
                  "peak_rss_mb": timing(rss), "setup_s": timing(setup),
                  "command_wall_s": timing([r["wall_s"] for _, rows in passes for r in rows]),
                  "verdict_errors": self.verdict_errors,
                  "failed_frac": self.failed / self.attempted,
                  "passes": [{"wall_s": w, "commands": rows} for w, rows in passes]}
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        metrics = self.import_breakdown()
        spawn = [self.child([sys.executable, "-c", "pass"]).wall_s for _ in range(SPAWN_REPS)]
        metrics["process.spawn_s"] = statistics.median(spawn)

        self.check_inputs()
        out_file = self.work / "trace.json"
        c = self.child([sys.executable, str(self.root / "perfbench" / "tracer.py"),
                        "--workload", self.workload,
                        "--inputs", self.inputs.relative_to(self.root).as_posix(),
                        "--seconds", str(self.seconds), "--out", str(out_file)],
                       timeout_s=self.seconds + CMD_TIMEOUT_S)  # its first pass pair may outlast --seconds
        if c.exit_code != 0:
            self.problems.append(f"traced run failed: {c.exit_code} {c.stderr[-500:]}")
            self.attempted += 1
            self.failed += 1
            return {}, {}
        trace = json.loads(out_file.read_text(encoding="utf-8"))
        for r in trace["results"]:
            self.attempted += 1
            self.failed += r["failed"]
            self.verdict_errors += bool(r["errors"])
        passes = len(trace["traced_s"])
        spans = trace["spans"]
        layer = tracer.aggregate(spans, passes)
        metrics.update(layer)
        metrics[tracer.FLOPS] = trace["counters"].get(tracer.FLOPS, 0) / passes
        metrics[tracer.REPORT_BYTES] = trace["counters"].get(tracer.REPORT_BYTES, 0) / passes
        metrics["trace.untraced_pass_s"] = statistics.median(trace["untraced_s"])
        metrics["trace.overhead_s"] = trace["overhead_s"]
        detail = {"untraced_pass_s": timing(trace["untraced_s"]),
                  "traced_pass_s": timing(trace["traced_s"]), "spans": len(spans),
                  "verdict_errors": self.verdict_errors,
                  "failed_frac": self.failed / self.attempted,
                  "errors": [r for r in trace["results"] if r["failed"] or r["errors"]][:20]}
        names = [name for name, _ in per_layer_metrics()]
        return {name: metrics[name] for name in names}, detail

    def import_breakdown(self) -> dict[str, float]:
        """Medians over ``-X importtime`` runs: the whole ``import bellkit.cli``
        and the self time of every module of each third-party package."""
        samples: dict[str, list[float]] = {}
        for _ in range(IMPORT_REPS):
            c = self.child([sys.executable, "-X", "importtime", "-c", "import bellkit.cli"])
            if c.exit_code != 0:
                self.problems.append(f"import failed: {c.stderr[-300:]}")
                return {f"import.{p}_s": 0.0 for p in ("bellkit_cli",) + IMPORT_PACKAGES}
            for name, value in parse_importtime(c.stderr).items():
                samples.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in samples.items()}


def parse_importtime(stderr: str) -> dict[str, float]:
    totals = {f"import.{p}_s": 0.0 for p in IMPORT_PACKAGES}
    totals["import.bellkit_cli_s"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        module = name.strip()
        if module == "bellkit.cli" and name[1:2] != " ":  # top level: the whole import
            totals["import.bellkit_cli_s"] += int(cumulative_us) / 1e6
        package = module.split(".")[0]
        if package in IMPORT_PACKAGES:
            totals[f"import.{package}_s"] += int(self_us) / 1e6
    return totals


def inputs_match(previous_record: Path, inputs_sha256: str) -> bool | None:
    """Whether an earlier record of the same workload and seed used the same
    inputs (None when there is no readable earlier record)."""
    try:
        previous = json.loads(previous_record.read_text(encoding="utf-8"))
        return previous["environment"]["inputs_sha256"] == inputs_sha256
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the bellkit CLI.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/bellkit/cli.py", "fixtures") if not (root / p).exists()]
    if missing:
        print(f"error: run from the repository root; missing {missing}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds)
    env = environment(root, args.seed, bench.inputs_sha256)
    if args.trace:
        values, detail = bench.per_layer()
        units = dict(per_layer_metrics())
    else:
        values, detail = bench.end_to_end()
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = bench.verdict_errors == 0 and bench.failed == 0 and not bench.problems
    record_path = bench.work / f"record-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "problems": bench.problems,
              "inputs_match_previous": inputs_match(record_path, bench.inputs_sha256),
              "metrics": metrics, "detail": detail}
    if record["inputs_match_previous"] is False:
        print(f"warning: seed {args.seed} gave other inputs than in the previous {record_path}",
              file=sys.stderr)
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
