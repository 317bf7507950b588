"""nncost benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs nncost from this checkout's ``src`` (it is not installed), one
closed-loop client, jobs one after another.  Inputs come from the seed.
Jobs run in whole seeded cycles until ``--seconds`` have passed and at
least MIN_JOBS jobs are done, so the job mix is the same in every run.
Every output is checked after the timed region (see check.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
of ``--seconds`` untraced and half traced (wrappers from tracing.py) and
reports per-layer metrics.  Human-readable lines come first; the last
line of stdout is the JSON result.  Results and spans are also written
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import check
import workloads
from perfcount import InstructionCounter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

#: Enough jobs that at least 10 lie beyond the 90th percentile.
MIN_JOBS = 110
#: A run stops at the first cycle boundary after this many times --seconds,
#: even short of MIN_JOBS, so a slow commit still finishes.
MAX_STRETCH = 4
#: Fresh processes timed for setup_s (after one untimed warm-up).
SETUP_RUNS = 15
IMPORTTIME_RUNS = 5
CHILD_TIMEOUT_S = 60

#: Bounded end-to-end metrics (BENCHMARK.json).  job_ms_p90 is printed and
#: recorded too, but on a small shared VM slow spells make the wall-time
#: tail too unsteady to bound (bench/RESULTS.md); the instruction-count
#: quantiles stand in for it.
END_TO_END = {
    "job_ms_p50": "ms",
    "nodes_per_s": "nodes/s",
    "job_minstr_p50": "Minstr",
    "job_minstr_p90": "Minstr",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: self time (ms) or calls per job, from the traced loop.
SPAN_METRICS = (
    "cli.main.self_ms",
    "bundled.default_profile_text.self_ms",
    "hwprofile.load_profile.self_ms",
    "graph.parse_model.self_ms",
    "graph.validate.self_ms",
    "graph.validate.calls",
    "graph.infer_shapes.self_ms",
    "graph.default_order.self_ms",
    "graph.default_order.calls",
    "graph.all_topological_orders.self_ms",
    "metrics.layer_metrics.self_ms",
    "metrics.layer_metrics.calls",
    "hwprofile.estimate_time.self_ms",
    "hwprofile.estimate_time.calls",
    "hwprofile.estimate_energy.self_ms",
    "liveness.peak_activation.self_ms",
    "liveness.peak_activation.calls",
    "liveness.memory_footprint.self_ms",
    "liveness.min_peak_order.self_ms",
    "report.analyze.self_ms",
    "report.render.table.self_ms",
    "report.render.json.self_ms",
    "report.render.csv.self_ms",
    "report.render.svg.self_ms",
    "report.compare.self_ms",
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_ms": "ms"}
    units.update({f"{m}.self_ms": "ms" for m in ("cli", "report", "graph", "metrics",
                                                  "hwprofile", "liveness", "bundled")})
    units.update({m: "ms" if m.endswith("_ms") else "count" for m in SPAN_METRICS})
    units["graph.orders_enumerated"] = "count"
    units["liveness.min_peak_order.alloc_peak_kb"] = "KiB"
    units["trace_overhead_ratio"] = "ratio"
    return units


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def pin_checkout():
    """Import nncost from this checkout's src, and the test oracles."""
    if not (SRC / "nncost" / "__init__.py").is_file():
        raise BenchError(f"no nncost package under {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise BenchError("tests/oracles.py is missing")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import nncost
    import nncost.cli  # noqa: F401
    import oracles

    if not Path(nncost.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"nncost imported from {nncost.__file__}, not from {SRC}")
    return nncost, oracles


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def provenance(args) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
        sha = p.stdout.strip() or sha
    digest = hashlib.sha256()
    for f in sorted((SRC / "nncost").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


SETUP_CODE = """\
import time
t0 = time.perf_counter()
import nncost.cli
from nncost.hwprofile import default_profile
default_profile()
print(time.perf_counter() - t0)
print(nncost.cli.__file__)
"""


def measure_setup() -> float:
    """Median seconds to import nncost.cli and build default_profile(),
    timed inside fresh processes (interpreter start-up excluded)."""
    times = []
    for i in range(SETUP_RUNS + 1):
        p = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        seconds, path = p.stdout.splitlines()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"child imported nncost from {path}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


def measure_import_ms() -> float:
    """Median over fresh processes of the summed nncost.* self time that
    ``python -X importtime`` reports for ``import nncost.cli``."""
    totals = []
    for _ in range(IMPORTTIME_RUNS):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nncost.cli"],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, check=True)
        us = 0
        for line in p.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", line.strip())
            if m and m.group(2).split(".")[0] == "nncost":
                us += int(m.group(1))
        totals.append(us / 1e3)
    return statistics.median(totals)


# ---------------------------------------------------------------------------
# workloads


class Job:
    """One unit of closed-loop work: ``run()`` returns (exit code, stdout, stderr)."""

    __slots__ = ("key", "nodes", "run")

    def __init__(self, key: str, nodes: int, run) -> None:
        self.key, self.nodes, self.run = key, nodes, run


class ZooCli:
    """nncost processes over the bundled models and test fixtures."""

    def __init__(self, nn, oracles, seed: int) -> None:
        self.nn = nn
        models = SRC.relative_to(ROOT) / "nncost" / "data" / "models"
        fixtures = Path("tests") / "fixtures"
        self.specs = workloads.zoo_jobs(models.as_posix(), fixtures.as_posix(), seed)
        self.subjects = {}
        for name in workloads.BUNDLED:
            text = (ROOT / models / f"{name}.json").read_text(encoding="utf-8")
            shapes = nn.infer_shapes(nn.parse_model(text))
            sizes = {t: info.byte_size for t, info in shapes.items()}
            self.subjects[name] = check.Subject(json.loads(text), sizes, oracles, nn.OpKind)
        self.max_rss_kb = 0
        self.tracer = None

    @staticmethod
    def _nodes(argv: list[str], key: str) -> int:
        """Nodes of every model the job reads; a rejected cyclic graph has none."""
        if key == "exit:2":
            return 0
        return sum(len(json.loads((ROOT / a).read_text(encoding="utf-8"))["nodes"])
                   for a in argv if a.endswith(".json"))

    def slots(self) -> list:
        return [(argv, key, self._nodes(argv, key)) for argv, key in self.specs]

    def job(self, slot) -> Job:
        argv, key, nodes = slot
        return Job(key, nodes, lambda: self._spawn(argv))

    def _spawn(self, argv: list[str]):
        spans = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "nncost.cli", *argv]
        else:
            spans = OUT / "child-spans.json"
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans), *argv]
        p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        # Diagnostics are one line, so stderr cannot fill its pipe while
        # stdout is drained.
        out = p.stdout.read()
        err = p.stderr.read()
        p.stdout.close()
        p.stderr.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if spans is not None:
            base = len(self.tracer.start)
            for name, s, e, parent in json.loads(spans.read_text(encoding="utf-8")):
                self.tracer.add(name, s, e, parent + base if parent >= 0 else -1,
                                self.tracer.job_id)
        return p.returncode, out.decode(), err.decode()

    def check(self, key: str, rc, out: str, err: str) -> None:
        kind, _, rest = key.partition(":")
        if kind == "bundled":
            name, fmt, in_place = rest.split(":")
            check.check_exit(rc, 0)
            check.check_report(self.subjects[name], "default", fmt, in_place == "1", out)
        elif kind == "golden":
            check.check_exit(rc, 0)
            golden = (ROOT / "tests" / "golden" / rest).read_text(encoding="utf-8")
            if out != golden:
                raise check.CheckError(f"output differs from tests/golden/{rest}")
        elif kind == "validate":
            check.check_exit(rc, 0)
            if out != "OK\n":
                raise check.CheckError(f"validate printed {out!r}")
        elif kind == "exit":
            check.check_exit(rc, int(rest))
            prefix = "fit check failed: " if rest == "3" else "nncost: "
            check.one_line_diagnostic(err, prefix)
        if kind != "exit" and err:
            raise check.CheckError(f"unexpected stderr {err!r}")

    def peak_rss_kb(self) -> int:
        return self.max_rss_kb

    def alloc_peak_kb(self) -> float:
        return 0.0


class InProcess:
    """Base for workloads that call nncost in this process."""

    models: list

    def __init__(self, nn, oracles, seed: int) -> None:
        self.nn = nn
        self.profile = nn.default_profile()
        self.subjects = [check.Subject(json.loads(m.text), m.sizes, oracles, nn.OpKind)
                         for m in self.models]

    def slots(self) -> list:
        return list(range(len(self.models)))

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def alloc_peak_kb(self) -> float:
        return 0.0


class LargeDag(InProcess):
    """parse -> analyze (default order) -> render on big chains and dense blocks."""

    def __init__(self, nn, oracles, seed: int) -> None:
        graphs = workloads.large_dag_models(seed)
        self.index = {name: i for i, name in enumerate(graphs)}
        self.models = list(graphs.values())
        super().__init__(nn, oracles, seed)

    def slots(self) -> list:
        return list(workloads.LARGE_DAG_CYCLE)

    def job(self, slot) -> Job:
        graph, fmt, in_place = slot
        nn, model = self.nn, self.models[self.index[graph]]

        def run():
            g = nn.parse_model(model.text)
            report = nn.analyze(g, self.profile, nn.AnalyzeOptions(in_place=in_place))
            return 0, nn.render(report, fmt), ""

        return Job(f"{graph}:{fmt}:{int(in_place)}", model.nodes, run)

    def check(self, key: str, rc, out: str, err: str) -> None:
        graph, fmt, in_place = key.split(":")
        check.check_report(self.subjects[self.index[graph]], "default", fmt, in_place == "1", out)


class Branchy(InProcess):
    """Shared by the two workloads on the k-branch x d-depth family."""

    def __init__(self, nn, oracles, seed: int) -> None:
        self.models = workloads.branchy_models(seed)
        super().__init__(nn, oracles, seed)

    def alloc_peak_kb(self) -> float:
        """tracemalloc peak of one min_peak_order call on the graph with the
        most orders (measured outside the timed loops)."""
        g = self.nn.parse_model(self.models[-1].text)
        shapes = self.nn.infer_shapes(g)
        tracemalloc.start()
        try:
            self.nn.min_peak_order(g, shapes)
            return tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()


class MinpeakSearch(Branchy):
    """parse -> analyze(order_policy="min-peak") -> JSON render."""

    def job(self, i: int) -> Job:
        nn, text = self.nn, self.models[i].text

        def run():
            g = nn.parse_model(text)
            report = nn.analyze(g, self.profile, nn.AnalyzeOptions(order_policy="min-peak"))
            return 0, nn.render(report, "json"), ""

        return Job(str(i), self.models[i].nodes, run)

    def check(self, key: str, rc, out: str, err: str) -> None:
        check.check_report(self.subjects[int(key)], "min-peak", "json", True, out)


class OrdersList(Branchy):
    """``nncost orders`` in process, stdout into a buffer."""

    def __init__(self, nn, oracles, seed: int) -> None:
        super().__init__(nn, oracles, seed)
        work = WORK / f"orders_list-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, m in enumerate(self.models):
            path = work / f"{i:02d}_{m.name}.json"
            path.write_text(m.text, encoding="utf-8")
            self.paths.append(str(path))

    def job(self, i: int) -> Job:
        cli, argv = self.nn.cli, ["orders", self.paths[i]]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return Job(str(i), self.models[i].nodes, run)

    def check(self, key: str, rc, out: str, err: str) -> None:
        check.check_exit(rc, 0)
        if err:
            raise check.CheckError(f"unexpected stderr {err!r}")
        check.check_orders(self.subjects[int(key)], True, out)


WORKLOADS = {
    "zoo_cli": ZooCli,
    "large_dag": LargeDag,
    "minpeak_search": MinpeakSearch,
    "orders_list": OrdersList,
}


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Result of one timed closed loop."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.instructions: list[int] = []
        self.keys: list[str] = []
        self.slot_times: dict[int, list[float]] = {}
        self.slot_nodes: dict[int, int] = {}
        self.outputs: dict[str, dict[tuple, int]] = {}

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.times) * 1e3

    @property
    def nodes_per_s(self) -> float:
        """Nodes in one cycle over the cycle's time, each job of the cycle
        timed by its median over the run."""
        seconds = sum(statistics.median(t) for t in self.slot_times.values())
        return sum(self.slot_nodes.values()) / seconds


def timed_loop(wl, seed: int, seconds: float, tracer=None, min_jobs: int = MIN_JOBS,
               counter: InstructionCounter | None = None) -> Loop:
    """Run whole seeded cycles of jobs; keep each distinct output once."""
    loop = Loop()
    slots = wl.slots()
    perf = time.perf_counter
    start = perf()
    cycle = 0
    while True:
        for i in workloads.cycle_order(seed, len(slots), cycle):
            job = wl.job(slots[i])
            if tracer is not None:
                tracer.job_id = len(loop.times)
            i0 = counter.read() if counter else 0
            t0 = perf()
            try:
                result = job.run()
            except Exception:  # a crashing job is a failed job, not a crashed run
                result = (None, "", traceback.format_exc())
            t1 = perf()
            loop.instructions.append(counter.read() - i0 if counter else 0)
            loop.times.append(t1 - t0)
            loop.keys.append(job.key)
            loop.slot_times.setdefault(i, []).append(t1 - t0)
            loop.slot_nodes[i] = job.nodes
            seen = loop.outputs.setdefault(job.key, {})
            seen[result] = seen.get(result, 0) + 1
        cycle += 1
        elapsed = perf() - start
        if (elapsed >= seconds and len(loop.times) >= min_jobs) or elapsed >= MAX_STRETCH * seconds:
            break
    return loop


def check_loops(wl, loops) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure messages) over every job run."""
    attempted = failed = 0
    messages = []
    for loop in loops:
        attempted += len(loop.times)
        for key, results in loop.outputs.items():
            for (rc, out, err), count in results.items():
                try:
                    if rc is None:
                        raise check.CheckError(f"job raised:\n{err}")
                    wl.check(key, rc, out, err)
                except Exception as e:  # any malformed output fails its jobs
                    failed += count
                    if len(messages) < 5:
                        messages.append(f"{key}: {type(e).__name__}: {e}")
    return attempted, failed, messages


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(loop: Loop, wl, setup_s: float) -> dict[str, float]:
    return {
        "job_ms_p50": loop.p50_ms,
        "job_ms_p90": p90(loop.times) * 1e3,
        "nodes_per_s": loop.nodes_per_s,
        "job_minstr_p50": statistics.median(loop.instructions) / 1e6,
        "job_minstr_p90": p90(loop.instructions) / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
    }


def per_layer(loop: Loop, untraced: Loop, tracer, wl, import_ms: float) -> dict[str, float]:
    from tracing import MODULES

    jobs = len(loop.times)
    self_s, calls = tracer.summary()
    values = {"cli.import_ms": import_ms}
    for mod in MODULES:
        values[f"{mod}.self_ms"] = sum(
            s for name, s in self_s.items() if name.split(".")[0] == mod
        ) * 1e3 / jobs
    for metric in SPAN_METRICS:
        base, _, stat = metric.rpartition(".")
        if stat == "self_ms":
            values[metric] = self_s.get(base, 0.0) * 1e3 / jobs
        else:
            values[metric] = calls.get(base, 0) / jobs
    values["graph.orders_enumerated"] = tracer.counts["graph.orders_enumerated"] / jobs
    values["liveness.min_peak_order.alloc_peak_kb"] = wl.alloc_peak_kb()
    values["trace_overhead_ratio"] = loop.p50_ms / untraced.p50_ms
    return values


def traced_run(wl, args) -> tuple[list[Loop], dict[str, str], dict[str, float]]:
    """Half of --seconds untraced, then half traced; per-layer metrics come
    from the traced half and the overhead ratio from both."""
    from tracing import Tracer, install

    import_ms = measure_import_ms()  # also fills nncost's bytecode cache
    half = args.seconds / 2
    untraced = timed_loop(wl, args.seed, half, min_jobs=1)
    tracer = Tracer()
    wl.tracer = tracer
    uninstall = install(tracer)
    try:
        traced = timed_loop(wl, args.seed, half, tracer, min_jobs=1)
    finally:
        uninstall()
        wl.tracer = None
    values = per_layer(traced, untraced, tracer, wl, import_ms)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    return [untraced, traced], per_layer_units(), values


def run(args) -> int:
    try:
        nn, oracles = pin_checkout()
        counter = None if args.trace else InstructionCounter()
    except (BenchError, OSError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    prov = provenance(args)
    wl = WORKLOADS[args.workload](nn, oracles, args.seed)
    if args.trace:
        loops, units, values = traced_run(wl, args)
    else:
        # The setup children also fill nncost's bytecode cache before any job.
        setup_s = measure_setup()
        loops = [timed_loop(wl, args.seed, args.seconds, counter=counter)]
        units = END_TO_END
        values = end_to_end(loops[0], wl, setup_s)  # before checking, which allocates

    attempted, failed, messages = check_loops(wl, loops)
    for m in messages:
        print(f"bench: check failed: {m}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "provenance": prov,
        "samples": [len(loop.times) for loop in loops],
        "error_ratio": failed / attempted,
        "unbounded": {k: v for k, v in values.items() if k not in units},
        **result,
    }
    if args.trace:
        record["traced_job_keys"] = loops[1].keys  # span job id -> job
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# jobs={'/'.join(str(len(lp.times)) for lp in loops)} "
          f"error_ratio={failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, value in values.items():
        unit = units.get(name, "ms  (reported, not bounded)")
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
