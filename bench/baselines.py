"""Reproduce the ROADMAP baseline timings with this checkout's nncost.

    python3 bench/baselines.py

Prints one JSON object: best-of-N and median milliseconds for the CLI
end to end, the import, analyze() and JSON render on the bundled models,
the 8,000-node chain split by stage, and min-peak on 3 branches x 4.
"""

from __future__ import annotations

import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from run import ROOT, SRC, child_env, measure_import_ms, pin_checkout

import workloads


def timed(fn, n: int) -> dict[str, float]:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return {"best_ms": min(times), "median_ms": statistics.median(times), "n": n}


def main() -> int:
    nn, _ = pin_checkout()
    from nncost import bundled, graph, liveness

    model = str(SRC / "nncost" / "data" / "models" / "kws_dscnn.json")

    def spawn(*argv, python=sys.executable):
        subprocess.run([python, *argv], cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL)

    cli = ("-m", "nncost.cli", "analyze", model, "--format", "json")
    out = {
        "python": platform.python_version(),
        "cli_analyze_kws_dscnn_json": timed(lambda: spawn(*cli), 21),
        # the python3 first on PATH may be a wrapper script (pyenv shim)
        "cli_analyze_kws_dscnn_json_path_python3": timed(
            lambda: spawn(*cli, python=shutil.which("python3")), 21),
        "bare_interpreter": timed(lambda: spawn("-c", "pass"), 21),
        "import_nncost_cli_self_ms": measure_import_ms(),
    }
    profile = nn.default_profile()
    for name in bundled.model_names():
        g = nn.parse_model(bundled.model_text(name))
        report = nn.analyze(g, profile)
        out[f"analyze_{name}"] = timed(lambda: nn.analyze(g, profile), 51)
        out[f"render_json_{name}"] = timed(lambda: nn.render(report, "json"), 51)

    g = nn.parse_model(workloads.chain(random.Random(0), 8000, skip=False).text)
    shapes = nn.infer_shapes(g)
    order = nn.default_order(g)
    out["chain8000_analyze"] = timed(lambda: nn.analyze(g, profile), 7)
    out["chain8000_validate"] = timed(g.validate, 7)
    out["chain8000_infer_shapes"] = timed(lambda: nn.infer_shapes(g), 7)
    out["chain8000_default_order"] = timed(lambda: graph.default_order(g), 7)
    out["chain8000_peak_activation"] = timed(
        lambda: liveness.peak_activation(g, shapes, order), 7)

    g = nn.parse_model(workloads.branchy(random.Random(0), 3, 4).text)
    shapes = nn.infer_shapes(g)
    out["minpeak_3x4_orders"] = len(nn.all_topological_orders(g))
    out["minpeak_3x4"] = timed(lambda: nn.min_peak_order(g, shapes), 3)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
