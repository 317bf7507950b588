"""Seeded model generators and job lists for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical model JSON and an identical job list.  Generators also
record every tensor's byte size, computed from the construction rules
rather than by nncost, so the checker can feed the liveness oracle
sizes that do not come from the program under test.

Graph structure (node counts, branch widths, depths) is fixed per
workload; the seed varies names, op kinds, tensor sizes and job order.
Keeping the structure fixed keeps the amount of work per job the same
across seeds, which is what lets runs on different seeds agree.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

FORMATS = ("table", "json", "csv", "svg")

#: Bundled models exercised by zoo_cli (file names under src/nncost/data/models).
BUNDLED = ("dscnn_pair_a", "dscnn_pair_b", "kws_cnn", "kws_convnet", "kws_dnn", "kws_dscnn")

#: large_dag graphs: name -> (kind, size, skip connection).
LARGE_DAG_GRAPHS = {
    "c500": ("chain", 500, False),
    "c500s": ("chain", 500, True),
    "c2000": ("chain", 2000, False),
    "c2000s": ("chain", 2000, True),
    "c8000s": ("chain", 8000, True),
    "d100": ("dense", 100, False),
    "d200": ("dense", 200, False),
    "d300": ("dense", 300, False),
}

#: large_dag cycle: one job per slot, (graph, format, in_place).
#:
#: Small shared VMs have slow spells that make a job up to 1.7x slower.  To
#: keep the quantiles steady, each sits near the lower middle of a
#: cluster of like jobs, with a gap of more than 1.7x above that cluster:
#: the median inside the 300-layer dense blocks (whose time hardly
#: depends on the format) and the 90th percentile inside the 8,000-node
#: chains (all json, in place, so their quadratic oracle runs once).
LARGE_DAG_CYCLE = (
    ("c500", "table", True), ("c500s", "csv", False),
    ("d100", "svg", True), ("d200", "json", False),
    ("c2000", "table", True), ("c2000", "csv", False),
    ("c2000s", "svg", True), ("c2000s", "table", False),
    ("d300", "table", True), ("d300", "json", False),
    ("d300", "csv", True), ("d300", "svg", False),
    ("d300", "json", True), ("d300", "table", False),
    ("d300", "csv", False), ("d300", "svg", True),
    ("d300", "table", True),
    ("c8000s", "json", True), ("c8000s", "json", True), ("c8000s", "json", True),
)

#: minpeak_search / orders_list cycle: (branches, depth, copies per cycle),
#: one distinct graph per copy.  Topological orders: 2x6 924, 3x3 1,680,
#: 4x2 2,520, 2x7 3,432, 3x4 34,650.  The median falls half-way into the
#: 3x3 jobs and the 90th percentile half-way into the 2x7 jobs.
BRANCHY_CYCLE = (
    (2, 6, 11),
    (3, 3, 8),
    (4, 2, 6),
    (2, 7, 4),
    (3, 4, 1),
)


@dataclass(frozen=True)
class Model:
    """One generated model: its JSON text plus construction facts."""

    name: str
    text: str
    sizes: dict[str, int]  # tensor name -> byte size, from the generator
    nodes: int


def _doc(name, inputs, nodes, outputs) -> dict:
    return {"name": name, "inputs": inputs, "nodes": nodes, "outputs": outputs}


def _model(doc: dict, sizes: dict[str, int]) -> Model:
    return Model(doc["name"], json.dumps(doc, indent=1) + "\n", sizes, len(doc["nodes"]))


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))


def chain(rng: random.Random, n: int, skip: bool) -> Model:
    """A chain of ``n`` nodes mixing conv, dwconv, conv1x1, relu, add and
    pool.  Every op keeps the H, W, C shape, so any two tensors can be
    added.  With ``skip``, the last node adds the first node's output
    back in: one tensor stays live across the whole chain."""
    h = rng.choice((4, 6, 8))
    c = rng.choice((8, 16, 24))
    size = h * h * c  # i8 elements
    pre = _prefix(rng)
    nodes = []
    names = []
    prev = "x"
    for i in range(n - (1 if skip else 0)):
        name = f"{pre}{i:05d}"
        roll = rng.random()
        if roll < 0.2:
            node = {"op": "conv2d", "inputs": [prev],
                    "attrs": {"kernel": [3, 3], "pad": "same", "out_channels": c}}
        elif roll < 0.4:
            node = {"op": "dwconv2d", "inputs": [prev], "attrs": {"kernel": [3, 3], "pad": "same"}}
        elif roll < 0.6:
            node = {"op": "conv1x1", "inputs": [prev], "attrs": {"out_channels": c}}
        elif roll < 0.8:
            node = {"op": "relu", "inputs": [prev]}
        elif roll < 0.9 and len(names) >= 2:
            node = {"op": "add", "inputs": [prev, names[-2]]}
        else:
            node = {"op": "maxpool", "inputs": [prev],
                    "attrs": {"kernel": [3, 3], "pad": "same"}}
        nodes.append({"name": name, **node})
        names.append(name)
        prev = name
    if skip:
        name = f"{pre}{n - 1:05d}"
        nodes.append({"name": name, "op": "add", "inputs": [prev, names[0]]})
        names.append(name)
    sizes = dict.fromkeys(["x", *names], size)
    kind = "skip" if skip else "plain"
    doc = _doc(f"chain{n}_{kind}", [{"name": "x", "shape": [h, h, c], "dtype": "i8"}],
               nodes, [names[-1]])
    return _model(doc, sizes)


def dense(rng: random.Random, layers: int) -> Model:
    """A DenseNet-style block: every conv reads the concatenation of the
    block input and all earlier conv outputs (acceptance criterion 6)."""
    h = rng.choice((2, 3, 4))
    c_in = rng.choice((4, 8))
    growth = rng.choice((2, 4))
    pre = _prefix(rng)
    conv = {"op": "conv2d", "attrs": {"kernel": [3, 3], "pad": "same", "out_channels": growth}}
    nodes = [{"name": f"{pre}c0001", "inputs": ["x"], **conv}]
    sizes = {"x": h * h * c_in, f"{pre}c0001": h * h * growth}
    feeds = ["x", f"{pre}c0001"]
    for i in range(2, layers + 1):
        cat, cv = f"{pre}k{i:04d}", f"{pre}c{i:04d}"
        nodes.append({"name": cat, "op": "concat", "inputs": list(feeds)})
        nodes.append({"name": cv, "inputs": [cat], **conv})
        sizes[cat] = sum(sizes[t] for t in feeds)
        sizes[cv] = h * h * growth
        feeds.append(cv)
    doc = _doc(f"dense{layers}", [{"name": "x", "shape": [h, h, c_in], "dtype": "i8"}],
               nodes, [feeds[-1]])
    return _model(doc, sizes)


def branchy(rng: random.Random, k: int, d: int) -> Model:
    """A stem, ``k`` parallel branches of ``d`` nodes, and a concat.

    Branch nodes are conv1x1 with a seeded channel count, relu (in
    place) or add of the two previous branch tensors when their shapes
    match, so the peak depends on the interleaving and on aliasing.
    Intra-branch edges do not change the number of topological orders,
    which is (k*d)! / (d!)^k for every seed.
    """
    h = rng.choice((4, 6, 8))
    letters = rng.sample("abcdefghjkmnpqrstuvwxyz", k + 2)
    stem, merge = f"{letters[0]}0", f"{letters[1]}9"
    c_stem = rng.choice((8, 16))
    nodes = [{"name": stem, "op": "conv1x1", "inputs": ["x"], "attrs": {"out_channels": c_stem}}]
    sizes = {"x": h * h * 4, stem: h * h * c_stem}
    tails = []
    for b in range(k):
        chans = {stem: c_stem}
        hist = [stem]
        for j in range(d):
            name = f"{letters[b + 2]}{j + 1}"
            prev = hist[-1]
            roll = rng.random()
            if j > 0 and roll < 0.25:
                node = {"op": "relu", "inputs": [prev]}
                chans[name] = chans[prev]
            elif j > 1 and roll < 0.45 and chans[hist[-2]] == chans[prev]:
                node = {"op": "add", "inputs": [prev, hist[-2]]}
                chans[name] = chans[prev]
            else:
                oc = rng.choice((4, 8, 16, 32, 48, 64))
                node = {"op": "conv1x1", "inputs": [prev], "attrs": {"out_channels": oc}}
                chans[name] = oc
            nodes.append({"name": name, **node})
            sizes[name] = h * h * chans[name]
            hist.append(name)
        tails.append(hist[-1])
    nodes.append({"name": merge, "op": "concat", "inputs": tails})
    sizes[merge] = sum(sizes[t] for t in tails)
    doc = _doc(f"branchy{k}x{d}", [{"name": "x", "shape": [h, h, 4], "dtype": "i8"}],
               nodes, [merge])
    return _model(doc, sizes)


def large_dag_models(seed: int) -> dict[str, Model]:
    """The large_dag graphs by name (see LARGE_DAG_GRAPHS)."""
    rng = random.Random(f"large_dag/{seed}")
    return {
        name: chain(rng, size, skip) if kind == "chain" else dense(rng, size)
        for name, (kind, size, skip) in LARGE_DAG_GRAPHS.items()
    }


def branchy_models(seed: int) -> list[Model]:
    """One model per cycle slot of BRANCHY_CYCLE, in cycle-table order."""
    rng = random.Random(f"branchy/{seed}")
    return [branchy(rng, k, d) for k, d, copies in BRANCHY_CYCLE for _ in range(copies)]


def cycle_order(seed: int, n: int, cycle: int) -> list[int]:
    """Seeded permutation of job slots for one cycle."""
    slots = list(range(n))
    random.Random(f"order/{seed}/{cycle}").shuffle(slots)
    return slots


def zoo_jobs(models_dir: str, fixtures_dir: str, seed: int) -> list[tuple[list[str], str]]:
    """The zoo_cli job mix as (nncost argv, expectation key) pairs.

    The key names what the checker compares the job against.
    """
    rng = random.Random(f"zoo/{seed}")
    jobs = []
    for name in BUNDLED:
        path = f"{models_dir}/{name}.json"
        for fmt in FORMATS:
            jobs.append((["analyze", path, "--format", fmt], f"bundled:{name}:{fmt}:1"))
            jobs.append((["analyze", path, "--format", fmt, "--no-inplace"],
                         f"bundled:{name}:{fmt}:0"))
    chain_path = f"{fixtures_dir}/chain.json"
    jobs.append((["analyze", chain_path], "golden:chain_analyze.table"))
    jobs.append((["analyze", chain_path, "--format", "json"], "golden:chain_analyze.json"))
    jobs.append((["compare", f"{models_dir}/dscnn_pair_a.json", f"{models_dir}/dscnn_pair_b.json",
                  "--format", "json"], "golden:pair_compare.json"))
    jobs.append((["validate", f"{models_dir}/{rng.choice(BUNDLED)}.json"], "validate"))
    jobs.append((["analyze", f"{fixtures_dir}/oversized.json", "--strict-fit"], "exit:3"))
    jobs.append((["analyze", f"{fixtures_dir}/cyclic.json"], "exit:2"))
    return jobs
