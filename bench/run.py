"""Benchmark of polydisc: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload charfn-eval --seed 42 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process

One run imports polydisc from ``src/`` and makes the workload's inputs from
the seed (set-up, repeated and timed), then runs whole rounds of the
workload's operations for ``run_seconds`` of BENCHMARK.json (or ``--seconds``),
checking every output as it goes.  With ``--trace 0`` it reports the
end-to-end metrics.
With ``--trace 1`` plain rounds and rounds with spans alternate; it
reports the per-layer metrics and the tracing overhead, and writes the
spans to ``.bench_out/``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Metric names and units
are read from BENCHMARK.json at the root of the checkout.
"""

import os

# One BLAS thread, set before numpy is first imported in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = (3, 25)  # at least 3 set-ups, more while they take under SETUP_BUDGET_S
SETUP_BUDGET_S = 1.0
ROUND_KINDS = ("plain", "spans")  # traced runs alternate the two
MODULES = ("linalg", "tuples", "sampling", "defects", "hardy", "dilation", "charfn", "battery", "cli")


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use; None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "load_avg_1m": os.getloadavg()[0],
    }


def import_polydisc() -> SimpleNamespace:
    """Import polydisc from the checkout afresh, so its module code runs again."""
    for name in [m for m in sys.modules if m == "polydisc" or m.startswith("polydisc.")]:
        del sys.modules[name]
    importlib.import_module("polydisc.cli")  # imports every layer
    where = Path(sys.modules["polydisc"].__file__).resolve().parent
    if where != SRC / "polydisc":
        raise SystemExit(f"bench: polydisc was imported from {where}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"polydisc.{m}"] for m in MODULES})


def set_up(workload: str, seed: int, workdir: Path):
    """Import plus input generation, repeated (see SETUP_REPEATS); the last is kept."""
    times = []
    while len(times) < SETUP_REPEATS[0] or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_REPEATS[1]):
        start = time.perf_counter()
        pd = import_polydisc()
        ops = WORKLOADS[workload](pd, np.random.default_rng(seed), workdir)
        times.append(time.perf_counter() - start)
    return pd, ops, statistics.median(times)


class Tally:
    """What the timed phase saw: operation times, round walls, failures."""

    def __init__(self):
        self.op_times: dict[str, list[float]] = {}  # operation name -> its times
        self.walls: dict[str, list[float]] = {kind: [] for kind in ROUND_KINDS}
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.rss_growth_mib = 0.0  # peak resident set added by the first (plain) round
        self._told: set[str] = set()

    @property
    def rounds(self) -> int:
        return sum(len(w) for w in self.walls.values())

    def tell(self, op_name: str, text: str) -> None:
        """Print a failure or a wrong output once per operation."""
        if op_name not in self._told:
            self._told.add(op_name)
            print(f"bench: {op_name}: {text}", file=sys.stderr)


def run_op(op, tracer, tally: Tally) -> float:
    if op.report is not None:
        op.report.unlink(missing_ok=True)
    span = tracer.span(op.span) if tracer is not None else contextlib.nullcontext()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with span:
            out = op.run()
        raised = None
    except Exception:  # a call that raises is a failed operation; the run goes on
        raised = traceback.format_exc()
    elapsed = time.perf_counter() - start
    tally.op_times.setdefault(op.name, []).append(elapsed)
    if raised is not None:
        tally.failed += 1
        tally.tell(op.name, "raised\n" + raised)
        return elapsed
    if tracer is not None and op.report is not None and op.report.exists():
        tracer.counts["cli.report_bytes"] += op.report.stat().st_size
    if op.failed is not None and op.failed(out):
        tally.failed += 1
        tally.tell(op.name, f"failed: {out!r}")
        return elapsed
    try:
        problems = op.check(out)
    except Exception:  # an output the check cannot read is a wrong output
        problems = ["check raised\n" + traceback.format_exc()]
    if problems:
        tally.problems += len(problems)
        tally.tell(op.name, "wrong output: " + "; ".join(problems[:3]))
    return elapsed


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(ops, seconds: float, tracer) -> Tally:
    """Whole rounds while the next one, as long as the last, still ends
    within `seconds`; one round at least.  Without a tracer every round is
    plain; with one, plain rounds and rounds with spans alternate, starting
    plain, and each kind runs at least once."""
    kinds = ROUND_KINDS if tracer is not None else ROUND_KINDS[:1]
    tally = Tally()
    start, rss_start = time.perf_counter(), peak_rss_mib()
    while True:
        kind = kinds[tally.rounds % len(kinds)]
        round_start = time.perf_counter()
        if kind == "spans":
            tracer.install()
        try:
            wall = sum(run_op(op, tracer if kind == "spans" else None, tally) for op in ops)
        finally:
            if kind == "spans":
                tracer.uninstall()
        tally.walls[kind].append(wall)
        if tally.rounds == 1:
            tally.rss_growth_mib = peak_rss_mib() - rss_start
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds and tally.rounds >= len(kinds):
            return tally


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in spec()[kind]]


def run_one(args) -> int:
    print(f"# polydisc bench: workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pd, ops, setup_s = set_up(args.workload, args.seed, workdir)
        tracer = Tracer(vars(pd)) if args.trace else None
        tally = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        kind = "end_to_end"
        values = {
            "setup_s": setup_s,
            # one pass that runs every operation once: the sum of each one's median
            "wall_s": sum(statistics.median(t) for t in tally.op_times.values()),
            "op_median_ms": 1e3 * statistics.median(statistics.median(t) for t in tally.op_times.values()),
            "peak_rss_mib": peak_rss_mib(),
        }
    else:
        kind = "per_layer"
        values = tracer.metrics()
        values["alloc.rss_growth_mib"] = tally.rss_growth_mib
        values["trace.overhead_s"] = statistics.median(tally.walls["spans"]) - statistics.median(tally.walls["plain"])
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": environment(),
            "span_fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans,
            "metrics": values}), encoding="utf-8")

    names = declared(kind)
    missing = {n for n, _ in names} ^ set(values)
    if missing:
        print(f"bench: metrics {sorted(missing)} differ from BENCHMARK.json {kind}", file=sys.stderr)
        return 2
    for name, unit in names:
        print(f"{name:34s} {values[name]:.6g} {unit}")
    print(f"# rounds {tally.rounds} attempted {tally.attempted} failed {tally.failed} "
          f"wrong outputs {tally.problems}")
    print(json.dumps({
        "correct": tally.problems == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print("\n# summary")
    for name, res in results.items():
        cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:13s} attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}  {cells}")
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polydisc benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload; every workload in turn when omitted")
    parser.add_argument("--seed", type=int, default=42, help="seed of the workload inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase; run_seconds of BENCHMARK.json when omitted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced run and its per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "polydisc" / "__init__.py").is_file():
        print(f"bench: no polydisc source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
