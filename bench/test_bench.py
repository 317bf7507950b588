"""Tests of the benchmark itself (not of nncost).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import check  # noqa: E402
import nncost  # noqa: E402
import nncost.cli  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _subject(model: workloads.Model) -> check.Subject:
    return check.Subject(json.loads(model.text), model.sizes, oracles, nncost.OpKind)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_gives_identical_models_and_jobs():
    for make in (lambda s: list(workloads.large_dag_models(s).values()), workloads.branchy_models):
        a, b = make(7), make(7)
        assert [m.text for m in a] == [m.text for m in b]
        assert [m.sizes for m in a] == [m.sizes for m in b]
        assert [m.text for m in make(8)] != [m.text for m in a]
    assert workloads.zoo_jobs("m", "f", 7) == workloads.zoo_jobs("m", "f", 7)
    for cycle in range(3):
        assert workloads.cycle_order(7, 30, cycle) == workloads.cycle_order(7, 30, cycle)
    assert workloads.cycle_order(7, 30, 0) != workloads.cycle_order(8, 30, 0)


def test_generated_models_parse_and_match_generator_sizes():
    models = workloads.branchy_models(3) + list(workloads.large_dag_models(3).values())[:2]
    for m in models:
        g = nncost.parse_model(m.text)
        shapes = nncost.infer_shapes(g)
        assert {t: info.byte_size for t, info in shapes.items()} == m.sizes
        assert len(g.nodes) == m.nodes


def test_branchy_order_counts_are_fixed_by_structure():
    for seed in (1, 2):
        models = workloads.branchy_models(seed)
        first = 0
        for k, d, copies in workloads.BRANCHY_CYCLE:
            g = nncost.parse_model(models[first].text)
            want = math.factorial(k * d) // math.factorial(d) ** k
            assert len(nncost.all_topological_orders(g)) == want
            first += copies


# ---------------------------------------------------------------------------
# the checker


@pytest.fixture(scope="module")
def branchy():
    model = workloads.branchy(random.Random(5), 2, 3)
    g = nncost.parse_model(model.text)
    return model, g


def _render(g, fmt, policy="default", in_place=True):
    opts = nncost.AnalyzeOptions(order_policy=policy, in_place=in_place)
    return nncost.render(nncost.analyze(g, nncost.default_profile(), opts), fmt)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("policy", ["default", "min-peak"])
def test_checker_accepts_correct_reports(branchy, fmt, policy):
    model, g = branchy
    check.check_report(_subject(model), policy, fmt, True, _render(g, fmt, policy) + "\n")


def test_checker_flags_one_changed_peak_byte(branchy):
    model, g = branchy
    out = _render(g, "json", "min-peak")
    _, peak = _subject(model).expected("min-peak", True)
    bad = out.replace(f'"peak_activation_bytes": {peak}', f'"peak_activation_bytes": {peak + 1}')
    assert bad != out
    with pytest.raises(check.CheckError):
        check.check_report(_subject(model), "min-peak", "json", True, bad)
    table = _render(g, "table")
    _, peak = _subject(model).expected("default", True)
    with pytest.raises(check.CheckError):
        check.check_report(_subject(model), "default", "table", True,
                           table.replace(f"peak_activation={peak} B", f"peak_activation={peak - 1} B"))


def test_checker_flags_wrong_in_place_and_non_finite(branchy):
    model, g = branchy
    with pytest.raises(check.CheckError):
        check.check_report(_subject(model), "default", "json", False, _render(g, "json"))
    with pytest.raises(check.CheckError):
        check.finite_json('{"a": NaN}')
    with pytest.raises(check.CheckError):
        check.finite_json('{"a": [1, Infinity]}')


def test_checker_flags_wrong_exit_codes():
    check.check_exit(3, 3)
    with pytest.raises(check.CheckError):
        check.check_exit(1, 0)
    with pytest.raises(check.CheckError):
        check.check_exit(2, 3)
    with pytest.raises(check.CheckError):
        check.one_line_diagnostic("Traceback\nboom\n", "nncost: ")


def test_checker_flags_corrupted_orders_listing(branchy, capsys, tmp_path):
    model, _ = branchy
    path = tmp_path / "m.json"
    path.write_text(model.text)
    assert nncost.cli.main(["orders", str(path)]) == 0
    out = capsys.readouterr().out
    check.check_orders(_subject(model), True, out)
    lines = out.splitlines()
    first_peak = int(lines[0].split()[0])
    lines[0] = lines[0].replace(str(first_peak), str(first_peak + 1), 1)
    with pytest.raises(check.CheckError):
        check.check_orders(_subject(model), True, "\n".join(lines))
    with pytest.raises(check.CheckError):
        check.check_orders(_subject(model), True, "\n".join(out.splitlines()[1:]))


# ---------------------------------------------------------------------------
# tracing


def test_self_time_on_hand_built_tree():
    tracer = tracing.Tracer()
    for span in [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),   # overlaps b: the union 1..6 is covered once
        ("c", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("d", 9.0, 12.0, 0, 0),  # runs past its parent: only 9..10 counts
        ("other", 0.0, 2.0, -1, 1),
        ("a", 20.0, 21.0, -1, 1),
    ]:
        tracer.add(*span)
    assert list(tracing.self_times(tracer.start, tracer.end, tracer.parent)) == [
        4.0, 2.0, 1.0, 3.0, 3.0, 2.0, 1.0]
    self_s, calls = tracer.summary()
    assert self_s["a"] == 3.0 and calls["a"] == 2 and self_s["root"] == 4.0


def test_install_traces_every_binding_site_and_uninstalls():
    tracer = tracing.Tracer()
    original = nncost.report.infer_shapes
    uninstall = tracing.install(tracer)
    try:
        assert nncost.report.infer_shapes is not original
        assert nncost.liveness.all_topological_orders is nncost.graph.all_topological_orders
        g = nncost.parse_model((ROOT / "tests" / "fixtures" / "diamond.json").read_text())
        tracer.job_id = 3
        nncost.render(nncost.analyze(g, nncost.default_profile(),
                                     nncost.AnalyzeOptions(order_policy="min-peak")), "csv")
    finally:
        uninstall()
    assert nncost.report.infer_shapes is original
    spans = list(tracer.spans())
    names = [s[0] for s in spans]
    by_index = dict(enumerate(spans))
    assert "report.render.csv" in names and "graph.validate" in names
    inner = [s for s in spans if s[0] == "graph.infer_shapes"]
    assert inner and all(by_index[s[3]][0] == "report.analyze" for s in inner if s[4] == 3)
    assert tracer.counts["graph.orders_enumerated"] == 2
