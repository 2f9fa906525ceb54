"""RStore benchmark: one seeded workload per process, checked against an oracle.

    python3 perfbench/run.py --workload {ingest,query,compress} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The workload's inputs are generated from
``--seed``; set-up runs ``SETUP_REPS`` times and its median is reported;
after a short warm-up, operations run back to back for ``--seconds``
seconds, and every operation's output is checked (see ``checks.py``).
Each timed operation is preceded by a fixed pure-Python reference loop;
operation times are reported in units of that loop's mean time (see
``reference_s``), which cancels most of the drift in a shared host's speed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The line before it carries the run environment, input
sizes and the workload's own named metrics. A traced run alternates traced
and untraced operations to measure the tracing overhead, and writes its
spans to ``.perfbench/spans/``. Stores and Spark scratch files go to
``.perfbench/tmp/`` and are removed at exit. The exit code is 0 only when
every output was correct.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
SPARK_CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
REF_ITERS = 200_000  # about 15 ms on a 4-vCPU x86 host


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ingest", "query", "compress"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_environment(tmp: Path) -> None:
    """Keep every scratch file of Python, the JVM and Spark under ``tmp``."""
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"


def start_spark():
    from pyspark.sql import SparkSession
    spark = (SparkSession.builder.master(f"local[{SPARK_CORES}]")
             .appName("perfbench")
             .config("spark.driver.memory", DRIVER_MEMORY)
             .config("spark.driver.host", "127.0.0.1")
             .config("spark.ui.enabled", "false")
             .config("spark.ui.showConsoleProgress", "false")
             .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", "-1")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM, which exits when its stdin closes."""
    from pyspark import SparkContext
    proc = getattr(SparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now.

    The host's CPU speed drifts by 20-40% over seconds to minutes, and the
    operations of one run slow down and speed up with it. Timed once before
    each operation, the loop samples the host's speed over the same window
    as the operations; their median time divided by its mean time keeps
    the program's cost and drops most of that drift. The mean, not the
    median, because the loop's times are bimodal: a vCPU whose sibling is
    busy runs it about 40% slower, and the median of a few samples jumps
    between the two modes.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i
    return time.perf_counter() - t


class Op(NamedTuple):
    kind: str
    seconds: float
    traced: bool
    ref_s: float  # the reference loop's time just before the operation


class Tally:
    """Operations attempted and failed, the problems found, and every
    correct timed operation as an ``Op``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: list[Op] = []

    def run_op(self, wl, tr, i: int, timed: bool) -> list[str]:
        """Run operation ``i`` (timed), then check its output (untimed)."""
        ref = reference_s() if timed else 0.0
        tr.unit = f"op-{i}"
        self.attempted += 1
        try:
            with tr.span("op"):
                t = time.perf_counter()
                result = wl.run(i)
                dt = time.perf_counter() - t
            problems = wl.check(result)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            problems = [f"operation {i} raised"]
        if problems:
            self.failed += 1
            self.problems += problems
        elif timed:
            self.ops.append(Op(result.kind, dt, tr.enabled, ref))
        return problems

    def latencies(self, traced: bool | None = None) -> list[float]:
        return [op.seconds for op in self.ops
                if traced is None or op.traced == traced]

    def by_kind(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for op in self.ops:
            out[op.kind].append(op.seconds)
        return out


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 20:
        return None
    q = int(100 * (n - 10) / n)
    return {"percentile": q, "value": statistics.quantiles(
        values, n=100, method="inclusive")[q - 1], "samples": n}


def measure(wl, tr, tally: Tally, seconds: float,
            trace: bool) -> tuple[float, list[float]]:
    """Set up, warm up, then run timed operations for ``seconds``.

    Returns ``setup_s`` and the time of each set-up. ``setup_s`` is the
    time from process start to the first timed operation, counting only
    the median of the ``SETUP_REPS`` set-ups.
    """
    setup_times = []
    for rep in range(SETUP_REPS):
        tr.unit, tr.enabled = f"setup-{rep}", trace
        t = time.perf_counter()
        tally.problems += wl.setup()
        setup_times.append(time.perf_counter() - t)
    tr.enabled = False
    for i in range(wl.warmup):
        tally.run_op(wl, tr, i, timed=False)
    wl.start_measuring()
    t_first = time.perf_counter()
    deadline = t_first + seconds
    i, group = wl.warmup, 0
    # A traced run alternates traced and untraced groups; it needs two.
    while time.perf_counter() < deadline or (trace and group < 2):
        tr.enabled = trace and group % 2 == 0
        for _ in range(wl.group):
            tally.run_op(wl, tr, i, timed=True)
            i += 1
        group += 1
    tr.unit, tr.enabled = "end", trace
    wl.finish()
    setup_s = (t_first - T0) - sum(setup_times) + statistics.median(setup_times)
    return setup_s, setup_times


def run_workload(args, tmp: Path) -> tuple[dict, dict, Tally]:
    from spans import Tracer
    from workloads import WORKLOADS

    tr, tally = Tracer(), Tally()
    ctx = SimpleNamespace(seed=args.seed, tmp=tmp, tracer=tr, spark=None)
    wl = WORKLOADS[args.workload](ctx)
    spark_start = 0.0
    try:
        if wl.needs_spark:
            t = time.perf_counter()
            ctx.spark = start_spark()
            spark_start = time.perf_counter() - t
        setup_s, setup_reps = measure(wl, tr, tally, args.seconds,
                                      bool(args.trace))
        timed = tally.latencies()
        if not timed:
            raise RuntimeError(f"no operation succeeded: {tally.problems[:5]}")
        summary = wl.summary(tally.by_kind())
    finally:
        if ctx.spark is not None:
            stop_spark(ctx.spark)

    ref_s = statistics.fmean(op.ref_s for op in tally.ops)
    e2e = {
        "op_p50_ref": statistics.median(timed) / ref_s,
        "ops_per_kref": 1000 * len(timed) * ref_s / sum(timed),
        "setup_s": setup_s,
        "driver_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stored_bytes_per_user_byte": summary["stored_bytes_per_user_byte"],
    }
    wall = {"op_p50_s": statistics.median(timed),
            "ops_per_s": len(timed) / sum(timed),
            "ref_mean_s": ref_s}
    layers = tr.layer_metrics()
    layers["host.ref_s"] = ref_s
    if args.trace:
        traced = statistics.median(tally.latencies(traced=True))
        untraced = statistics.median(tally.latencies(traced=False))
        layers.update({"trace.op_p50_s": traced,
                       "trace.untraced_op_p50_s": untraced,
                       "trace.overhead_s": traced - untraced,
                       "trace.spans": len(tr.spans)})
        tr.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "ops_failed_frac": tally.failed / tally.attempted,
        "end_to_end": e2e, "wall": wall, "samples": len(timed),
        "tail": tail(timed),
        "ops": [(op.kind, op.seconds, op.ref_s) for op in tally.ops],
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in summary["named"].items()},
        "setup": {"spark_start_s": spark_start, "reps_s": setup_reps},
        "sizes": summary["sizes"],
        "env": environment(ctx.spark is not None),
        "problems": tally.problems[:20],
    }
    return info, {"e2e": e2e, "layers": layers}, tally


def environment(spark_used: bool) -> dict:
    import pyspark
    env = {"git_sha": git_sha(), "pyspark": pyspark.__version__,
           "python": sys.version.split()[0], "nproc": os.cpu_count()}
    if spark_used:
        env.update({"spark_master": f"local[{SPARK_CORES}]",
                    "shuffle_partitions": SHUFFLE_PARTITIONS,
                    "driver_memory": DRIVER_MEMORY})
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "tmp"))
    try:
        pin_environment(tmp)
        info, values, tally = run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    section, source = (("per_layer", values["layers"]) if args.trace
                       else ("end_to_end", values["e2e"]))
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps(info))
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 1 if tally.problems else 0


if __name__ == "__main__":
    sys.exit(main())
