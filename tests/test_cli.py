"""CLI behavior: exit codes, stream discipline, golden output."""

from __future__ import annotations

from pathlib import Path

import pytest

from nncost.bundled import model_text
from nncost.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture
def pair_paths(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(model_text("dscnn_pair_a"))
    b.write_text(model_text("dscnn_pair_b"))
    return str(a), str(b)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_table_matches_golden(capsys):
    assert main(["analyze", fixture("chain.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / "chain_analyze.table").read_text()


def test_analyze_json_matches_golden(capsys):
    assert main(["analyze", fixture("chain.json"), "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN / "chain_analyze.json").read_text()


def test_analyze_is_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(3):
        assert main(["analyze", fixture("chain.json"), "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_analyze_missing_profile_file(capsys):
    rc = main(["analyze", fixture("chain.json"), "--profile", "/no/such/file.csv"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "cannot read" in err


def test_analyze_missing_model_file(capsys):
    rc = main(["analyze", "/no/such/model.json"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "cannot read" in err


def test_analyze_invalid_model_exit_2(capsys):
    rc = main(["analyze", fixture("cyclic.json")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "cycle" in err


def test_analyze_strict_fit_failure(capsys):
    rc = main(["analyze", fixture("oversized.json"), "--strict-fit"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "fit check failed" in err
    assert "flash budget" in err
    assert "TOTAL" in out  # the report is still printed


def test_analyze_oversized_without_strict_fit_passes(capsys):
    rc = main(["analyze", fixture("oversized.json")])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "fit: FAIL" in out


def test_analyze_no_inplace_flag_changes_report(capsys):
    assert main(["analyze", fixture("chain.json"), "--format", "json"]) == 0
    with_inplace = capsys.readouterr().out
    assert main(["analyze", fixture("chain.json"), "--format", "json", "--no-inplace"]) == 0
    without = capsys.readouterr().out
    assert '"in_place": true' in with_inplace
    assert '"in_place": false' in without


def test_analyze_min_peak_order(capsys):
    rc = main(["analyze", fixture("diamond.json"), "--order", "min-peak"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "order=min-peak" in out


# ---------------------------------------------------------------------------
# compare


def test_compare_golden(capsys, pair_paths):
    a, b = pair_paths
    assert main(["compare", a, b, "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN / "pair_compare.json").read_text()


def test_compare_first_model_normalizes_to_one(capsys, pair_paths):
    a, b = pair_paths
    assert main(["compare", a, b]) == 0
    out, _ = capsys.readouterr()
    assert "1.000" in out


def test_compare_single_model_usage_error(capsys):
    rc = main(["compare", fixture("chain.json")])
    _, err = capsys.readouterr()
    assert rc == 64
    assert "at least 2" in err


def test_compare_mixed_dtype_models(capsys, tmp_path):
    text = (FIXTURES / "chain.json").read_text()
    other = tmp_path / "chain16.json"
    other.write_text(text.replace('"i8"', '"i16"'))
    rc = main(["compare", fixture("chain.json"), str(other)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "2.000" in out  # footprint doubles with the wider dtype


# ---------------------------------------------------------------------------
# orders


def test_orders_diamond_two_lines(capsys):
    rc = main(["orders", fixture("diamond.json")])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    peaks = [int(line.split()[0]) for line in lines]
    assert peaks == sorted(peaks)


def test_orders_chain_single_line(capsys):
    rc = main(["orders", fixture("chain.json")])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert len(out.splitlines()) == 1
    assert "conv1 pool1 fc1" in out


def test_orders_first_line_is_min_peak(capsys):
    from nncost import infer_shapes, min_peak_order, parse_model

    rc = main(["orders", fixture("diamond.json")])
    out, _ = capsys.readouterr()
    assert rc == 0
    first = out.splitlines()[0]
    g = parse_model((FIXTURES / "diamond.json").read_text())
    order, peak = min_peak_order(g, infer_shapes(g))
    assert first.split() == [str(peak), *order]


def test_orders_limit_exceeded(capsys, tmp_path):
    # ten independent branches: 10! orders blows any reasonable limit
    import json

    doc = {
        "name": "wide",
        "inputs": [{"name": f"i{k}", "shape": [16], "dtype": "i8"} for k in range(10)],
        "nodes": [
            {"name": f"n{k}", "op": "fc", "inputs": [f"i{k}"], "attrs": {"units": 4}}
            for k in range(10)
        ],
        "outputs": [f"n{k}" for k in range(10)],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    rc = main(["orders", str(path)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "topological orders" in err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys):
    rc = main(["validate", fixture("chain.json")])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == "OK\n"


def test_validate_cycle_names_members(capsys):
    rc = main(["validate", fixture("cyclic.json")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "a" in err and "b" in err


def test_validate_kernel_too_large_names_node(capsys):
    rc = main(["validate", fixture("kernel_too_big.json")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "'c'" in err


def test_validate_dangling_reference(capsys):
    rc = main(["validate", fixture("ghost.json")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "ghost" in err


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_is_usage_error(capsys):
    rc = main(["frobnicate"])
    _, err = capsys.readouterr()
    assert rc == 64


def test_missing_argument_is_usage_error(capsys):
    rc = main(["analyze"])
    _, err = capsys.readouterr()
    assert rc == 64


@pytest.mark.parametrize("limit", ["0", "-5"])
@pytest.mark.parametrize("command", ["analyze", "orders"])
def test_limit_must_be_positive(capsys, command, limit):
    rc = main([command, fixture("diamond.json"), f"--limit={limit}"])
    out, err = capsys.readouterr()
    assert rc == 64
    assert out == ""
    assert err.splitlines()[-1] == (
        f"nncost {command}: error: argument --limit: must be at least 1, got {int(limit)}"
    )


def test_bundled_models_all_validate(tmp_path, capsys):
    from nncost.bundled import model_names

    for name in model_names():
        path = tmp_path / f"{name}.json"
        path.write_text(model_text(name))
        assert main(["validate", str(path)]) == 0
    capsys.readouterr()
