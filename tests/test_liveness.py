"""Liveness, peak activation, footprint, min-peak search, fit checks."""

from __future__ import annotations

import random

import pytest

from nncost import (
    DType,
    EnumerationLimitError,
    Graph,
    TensorInfo,
    TensorShape,
    ValidationError,
    check_fit,
    default_order,
    infer_shapes,
    live_set,
    load_profile,
    memory_footprint,
    min_peak_order,
    peak_activation,
)
from nncost.graph import check_order
from nncost.liveness import FootprintReport

from builders import (
    add,
    concat,
    conv,
    fc,
    graph,
    inp,
    make_dense_variant,
    make_plain_chain,
    maxpool,
    relu,
)
from oracles import brute_force_orders, random_dag, simulate_live_bytes, simulate_peak


def chain_graph():
    # in (4 KB) -> a (2 KB) -> b (1 KB)
    return graph(
        "chain",
        [inp("in", 4096)],
        [fc("a", "in", 2048), fc("b", "a", 1024)],
        ["b"],
    )


def diamond_graph():
    # in (4 KB) -> {a (4 KB), b (4 KB)} -> add (4 KB)
    return graph(
        "diamond",
        [inp("in", 4096)],
        [fc("a", "in", 4096), fc("b", "in", 4096), add("sum", "a", "b")],
        ["sum"],
    )


# ---------------------------------------------------------------------------
# live_set


def test_chain_live_set_at_first_step():
    g = chain_graph()
    shapes = infer_shapes(g)
    order = default_order(g)
    assert live_set(g, shapes, order, 0) == {"in", "a"}
    assert live_set(g, shapes, order, 1) == {"a", "b"}


def test_diamond_live_set_at_b():
    g = diamond_graph()
    shapes = infer_shapes(g)
    order = ("a", "b", "sum")
    assert live_set(g, shapes, order, 1) == {"in", "a", "b"}


def test_single_node_live_set_is_input_and_output():
    g = graph("one", [inp("x", 64)], [fc("f", "x", 8)], ["f"])
    shapes = infer_shapes(g)
    assert live_set(g, shapes, ("f",), 0) == {"x", "f"}


def test_live_set_contains_step_inputs_and_output():
    rng = random.Random(77)
    for _ in range(20):
        g = random_dag(rng)
        shapes = infer_shapes(g)
        order = default_order(g)
        for i, name in enumerate(order):
            node = g.node_map[name]
            live = live_set(g, shapes, order, i)
            assert set(node.inputs) <= live
            assert node.output in live


def test_live_set_rejects_bad_order():
    g = chain_graph()
    shapes = infer_shapes(g)
    with pytest.raises(ValidationError, match="violates dependency"):
        live_set(g, shapes, ("b", "a"), 0)
    with pytest.raises(ValidationError, match="permutation"):
        live_set(g, shapes, ("a",), 0)


# ---------------------------------------------------------------------------
# peak_activation


def test_chain_peak():
    g = chain_graph()
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, default_order(g))
    assert trace.peak_bytes == 6144
    assert trace.peak_step == "a"
    assert [s.live_bytes for s in trace.steps] == [6144, 3072]


def test_diamond_peak():
    g = diamond_graph()
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, ("a", "b", "sum"))
    assert trace.peak_bytes == 12288
    assert trace.peak_step == "b"


def test_peak_equals_max_of_steps():
    g = diamond_graph()
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, ("a", "b", "sum"))
    assert trace.peak_bytes == max(s.live_bytes for s in trace.steps)


def test_peak_step_is_earliest_maximum():
    # two steps tie at the same live bytes; the earlier one must win
    g = graph(
        "tie",
        [inp("in", 1024)],
        [fc("a", "in", 1024), fc("b", "a", 1024), fc("c", "b", 8)],
        ["c"],
    )
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, default_order(g))
    assert trace.steps[0].live_bytes == trace.steps[1].live_bytes == 2048
    assert trace.peak_step == "a"


def test_relu_in_place_aliases_its_input():
    g = graph(
        "inplace",
        [inp("in", 4096)],
        [fc("a", "in", 2048), relu("r", "a"), fc("b", "r", 512)],
        ["b"],
    )
    shapes = infer_shapes(g)
    order = default_order(g)
    trace = peak_activation(g, shapes, order, in_place=True)
    # relu adds no extra bytes: its step holds just the shared 2 KB buffer
    relu_step = next(s for s in trace.steps if s.node == "r")
    assert relu_step.live_bytes == 2048
    assert set(relu_step.live) == {"a", "r"}

    off = peak_activation(g, shapes, order, in_place=False)
    relu_step_off = next(s for s in off.steps if s.node == "r")
    assert relu_step_off.live_bytes == 4096


def test_no_alias_when_input_has_two_consumers():
    g = graph(
        "fanout",
        [inp("in", 1024)],
        [fc("a", "in", 1024), relu("r", "a"), add("s", "r", "a")],
        ["s"],
    )
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, default_order(g), in_place=True)
    relu_step = next(s for s in trace.steps if s.node == "r")
    # 'a' has two consumers, so relu may not overwrite it
    assert relu_step.live_bytes == 2048


def test_no_alias_when_input_is_graph_output():
    g = graph(
        "pinned",
        [inp("in", 1024)],
        [fc("a", "in", 1024), relu("r", "a")],
        ["r", "a"],
    )
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, default_order(g), in_place=True)
    relu_step = next(s for s in trace.steps if s.node == "r")
    assert relu_step.live_bytes == 2048


def test_empty_graph_trace():
    g = graph("idle", [inp("in", 64)], [], ["in"])
    shapes = infer_shapes(g)
    trace = peak_activation(g, shapes, ())
    assert trace.peak_bytes == 0
    assert trace.peak_step is None
    assert trace.steps == ()


def test_peak_scales_with_dtype_width():
    for k, dtype in ((2, DType.I16), (4, DType.F32)):
        g8 = graph(
            "w8",
            [inp("in", 32, 32, 3)],
            [conv("c", "in", 16, pad="same"), maxpool("p", "c", k=(2, 2), s=(2, 2))],
            ["p"],
        )
        gk = graph(
            "wk",
            [inp("in", 32, 32, 3, dtype=dtype)],
            [conv("c", "in", 16, pad="same"), maxpool("p", "c", k=(2, 2), s=(2, 2))],
            ["p"],
        )
        t8 = peak_activation(g8, infer_shapes(g8), default_order(g8))
        tk = peak_activation(gk, infer_shapes(gk), default_order(gk))
        assert tk.peak_bytes == k * t8.peak_bytes


# ---------------------------------------------------------------------------
# oracle equivalence (smoke-sized; full 500-graph run in test_acceptance)


def test_peak_matches_simulator_on_random_graphs():
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        g = random_dag(rng)
        shapes = infer_shapes(g)
        order = default_order(g)
        for in_place in (True, False):
            got = peak_activation(g, shapes, order, in_place)
            want = simulate_live_bytes(g, shapes, order, in_place)
            assert [s.live_bytes for s in got.steps] == want
            assert got.peak_bytes == (max(want) if want else 0)
        checked += 1


# ---------------------------------------------------------------------------
# min_peak_order


def test_min_peak_chain_is_unique_order():
    g = chain_graph()
    shapes = infer_shapes(g)
    order, peak = min_peak_order(g, shapes)
    assert order == ("a", "b")
    assert peak == 6144


def test_min_peak_symmetric_diamond_tie():
    # both orders peak identically; the enumeration-first order wins
    g = graph(
        "dia",
        [inp("in", 4096)],
        [fc("a", "in", 8192), fc("b", "in", 1024), concat("cat", "a", "b")],
        ["cat"],
    )
    shapes = infer_shapes(g)
    pa = peak_activation(g, shapes, ("a", "b", "cat")).peak_bytes
    pb = peak_activation(g, shapes, ("b", "a", "cat")).peak_bytes
    assert pa == pb
    order, peak = min_peak_order(g, shapes)
    assert order == ("a", "b", "cat")
    assert peak == pa


def test_min_peak_asymmetric_two_chains():
    # one fat chain and one thin chain off a shared input: running the fat
    # chain first frees its big tensor before the thin chain allocates
    g = graph(
        "two_chains",
        [inp("in", 1024)],
        [
            fc("fat1", "in", 8192),
            fc("fat2", "fat1", 64),
            fc("thin1", "in", 128),
            fc("thin2", "thin1", 64),
            concat("cat", "fat2", "thin2"),
        ],
        ["cat"],
    )
    shapes = infer_shapes(g)
    order, peak = min_peak_order(g, shapes)
    # exhaustive minimum matches a brute-force scan with the oracle
    from nncost import all_topological_orders

    best = min(
        simulate_peak(g, shapes, o, True) for o in all_topological_orders(g)
    )
    assert peak == best
    assert simulate_peak(g, shapes, order, True) == best
    assert peak <= peak_activation(g, shapes, default_order(g)).peak_bytes


def test_min_peak_limit_exceeded():
    inputs = [inp(f"i{k}", 16) for k in range(8)]
    nodes = [fc(f"n{k}", f"i{k}", 8) for k in range(8)]
    g = graph("wide", inputs, nodes, [n.name for n in nodes])
    shapes = infer_shapes(g)
    with pytest.raises(EnumerationLimitError, match="default_order"):
        min_peak_order(g, shapes, limit=100)


def test_min_peak_matches_oracle_on_random_graphs():
    # reference: the first brute-force order with the minimal simulated peak
    rng = random.Random(1910)
    for _ in range(150):
        g = random_dag(rng)
        shapes = infer_shapes(g)
        orders = brute_force_orders(g)
        for in_place in (True, False):
            peaks = [simulate_peak(g, shapes, o, in_place) for o in orders]
            want = min(peaks)
            got = min_peak_order(g, shapes, in_place=in_place)
            assert got == (orders[peaks.index(want)], want)


def four_by_three_graph():
    # stem, 4 parallel fc branches of depth 3, concat: 12!/(3!)^4 = 369,600
    # topological orders, far over the default limit
    sizes = [256, 2048, 64, 1024, 128, 4096]
    nodes = [fc("stem", "in", 512)]
    tails = []
    for b in range(4):
        prev = "stem"
        for j in range(3):
            name = f"b{b}_{j}"
            nodes.append(fc(name, prev, sizes[(b + 2 * j) % len(sizes)]))
            prev = name
        tails.append(prev)
    nodes.append(concat("cat", *tails))
    return graph("four_by_three", [inp("in", 1024)], nodes, ["cat"])


def test_min_peak_four_branches_by_three_deep():
    g = four_by_three_graph()
    shapes = infer_shapes(g)
    order, peak = min_peak_order(g, shapes)
    check_order(g, order)
    assert simulate_peak(g, shapes, order, True) == peak
    assert peak <= simulate_peak(g, shapes, default_order(g), True)


def test_min_peak_limit_counts_search_states():
    # 8 independent nodes: every subset is an executed set, 2**8 states
    inputs = [inp(f"i{k}", 16) for k in range(8)]
    nodes = [fc(f"n{k}", f"i{k}", 8) for k in range(8)]
    g = graph("wide", inputs, nodes, [n.name for n in nodes])
    shapes = infer_shapes(g)
    order, _ = min_peak_order(g, shapes, limit=256)
    assert order == tuple(f"n{k}" for k in range(8))
    with pytest.raises(EnumerationLimitError, match="default_order"):
        min_peak_order(g, shapes, limit=255)


def test_min_peak_rejects_cycle():
    g = Graph(
        name="loop",
        inputs=(inp("x", 16),),
        nodes=(fc("a", "x", 16), add("b", "a", "c"), relu("c", "b")),
        outputs=("c",),
    )
    shapes = {t: TensorInfo(TensorShape((16,)), DType.I8) for t in g.tensor_names}
    with pytest.raises(ValidationError, match="cycle detected involving node"):
        min_peak_order(g, shapes)


# ---------------------------------------------------------------------------
# footprint / fit


def test_footprint_arithmetic():
    f = FootprintReport(
        weights_bytes=81920,
        peak_activation_bytes=20480,
        total_bytes=102400,
        activation_share=0.2,
    )
    assert f.total_bytes == f.weights_bytes + f.peak_activation_bytes
    g = chain_graph()
    shapes = infer_shapes(g)
    fp = memory_footprint(g, shapes, default_order(g))
    assert fp.total_bytes == fp.weights_bytes + fp.peak_activation_bytes
    assert fp.activation_share == pytest.approx(
        fp.peak_activation_bytes / fp.total_bytes
    )


def test_zero_parameter_graph_share_is_one():
    g = graph("poolonly", [inp("in", 8, 8, 4)], [maxpool("p", "in", k=(2, 2))], ["p"])
    shapes = infer_shapes(g)
    fp = memory_footprint(g, shapes, default_order(g))
    assert fp.weights_bytes == 0
    assert fp.activation_share == 1.0


def _profile(flash, sram):
    return load_profile(
        "\n".join(
            [
                f"#flash_bytes {flash}",
                f"#sram_bytes {sram}",
                "op_class,work_per_output,throughput_ops_per_s,power_mw",
                "default,1,100000000,100",
            ]
        )
    )


def test_check_fit_pass_and_margins():
    f = FootprintReport(81920, 20480, 102400, 0.2)
    v = check_fit(f, _profile(1_048_576, 327_680))
    assert v.fits and v.flash_ok and v.sram_ok
    assert v.flash_margin_bytes == 1_048_576 - 81920
    assert v.sram_margin_bytes == 327_680 - 20480


def test_check_fit_flash_fail():
    f = FootprintReport(2 * 1024 * 1024, 1024, 2 * 1024 * 1024 + 1024, 0.0)
    v = check_fit(f, _profile(1_048_576, 327_680))
    assert not v.fits and not v.flash_ok and v.sram_ok
    assert v.flash_margin_bytes < 0


def test_check_fit_boundary_is_inclusive():
    f = FootprintReport(1_048_576, 327_680, 1_048_576 + 327_680, 0.24)
    v = check_fit(f, _profile(1_048_576, 327_680))
    assert v.fits
    assert v.flash_margin_bytes == 0
    assert v.sram_margin_bytes == 0


# ---------------------------------------------------------------------------
# dense-skip amplification


def test_dense_skip_amplification():
    plain = make_plain_chain()
    dense = make_dense_variant()
    sp = infer_shapes(plain)
    sd = infer_shapes(dense)
    peak_plain = peak_activation(plain, sp, default_order(plain)).peak_bytes
    peak_dense = peak_activation(dense, sd, default_order(dense)).peak_bytes
    # exact values from the liveness rule, cross-checked by the simulator
    assert peak_plain == simulate_peak(plain, sp, default_order(plain), True)
    assert peak_dense == simulate_peak(dense, sd, default_order(dense), True)
    s = 8 * 8 * 16
    assert peak_plain == 2 * s
    assert peak_dense == 12 * s
    assert peak_dense >= 5 * peak_plain
