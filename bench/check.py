"""Correctness checks for benchmark job outputs.

Runs outside the timed region.  Every expectation comes from a
committed golden file, from the independent oracles in
``tests/oracles.py`` (buffer simulation and subset-based order
enumeration), or from a reference default order computed here from the
raw model JSON; never from an earlier nncost output.  The oracles are
quadratic, so each is run once per distinct (graph, in_place) pair.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import re
import xml.etree.ElementTree as ET
from types import SimpleNamespace

EXIT_CODES = frozenset({0, 2, 3, 64})


class CheckError(Exception):
    """An output that disagrees with its expectation."""


class Subject:
    """A model under test: its raw JSON document and tensor byte sizes.

    ``graph`` is a duck-typed view of the document for the oracles, built
    without nncost's parser.
    """

    def __init__(self, doc: dict, sizes: dict[str, int], oracles, op_kind) -> None:
        self.doc = doc
        self.oracles = oracles
        self.name = doc["name"]
        self.node_names = [n["name"] for n in doc["nodes"]]
        self.shapes = {t: SimpleNamespace(byte_size=b) for t, b in sizes.items()}
        self.graph = SimpleNamespace(
            inputs=[SimpleNamespace(name=i["name"]) for i in doc["inputs"]],
            nodes=[
                SimpleNamespace(name=n["name"], inputs=tuple(n["inputs"]), kind=op_kind(n["op"]))
                for n in doc["nodes"]
            ],
            outputs=tuple(doc["outputs"]),
        )
        self._peaks: dict[tuple, int] = {}
        self._orders: dict[bool, tuple[list, list]] = {}

    def default_order(self) -> list[str]:
        """Kahn's algorithm, smallest ready name first (the documented
        canonical order)."""
        names = set(self.node_names)
        indeg = {n: 0 for n in self.node_names}
        dependents: dict[str, set[str]] = {n: set() for n in self.node_names}
        for node in self.doc["nodes"]:
            producers = {t for t in node["inputs"] if t in names}
            indeg[node["name"]] = len(producers)
            for p in producers:
                dependents[p].add(node["name"])
        ready = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            cur = heapq.heappop(ready)
            order.append(cur)
            for d in dependents[cur]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    heapq.heappush(ready, d)
        return order

    def peak(self, order, in_place: bool) -> int:
        key = (tuple(order), in_place)
        if key not in self._peaks:
            self._peaks[key] = self.oracles.simulate_peak(self.graph, self.shapes, order, in_place)
        return self._peaks[key]

    def all_orders(self, in_place: bool) -> tuple[list, list]:
        """(every order in lexicographic enumeration, its peak)."""
        if in_place not in self._orders:
            orders = self.oracles.brute_force_orders(self.graph)
            peaks = [
                self.oracles.simulate_peak(self.graph, self.shapes, o, in_place) for o in orders
            ]
            self._orders[in_place] = (orders, peaks)
        return self._orders[in_place]

    def expected(self, policy: str, in_place: bool) -> tuple[list[str], int]:
        if policy == "default":
            order = self.default_order()
            return order, self.peak(order, in_place)
        orders, peaks = self.all_orders(in_place)
        best = min(peaks)
        return list(orders[peaks.index(best)]), best


def _reject_constant(name: str):
    raise CheckError(f"non-finite number {name} in JSON output")


def finite_json(text: str):
    """Parse JSON, failing on NaN/Infinity and on any non-finite float."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}") from None

    def walk(v):
        if isinstance(v, float) and not math.isfinite(v):
            raise CheckError("non-finite number in JSON output")
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        elif isinstance(v, list):
            for x in v:
                walk(x)

    walk(doc)
    return doc


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def check_report(subject: Subject, policy: str, fmt: str, in_place: bool, out: str) -> None:
    """An ``analyze`` report in any format against the oracle order and peak."""
    order, peak = subject.expected(policy, in_place)
    if fmt == "json":
        doc = finite_json(out)
        _expect(doc["model"] == subject.name, "wrong model name")
        _expect(doc["config"]["in_place"] is in_place, "wrong in_place flag")
        _expect(doc["order"] == order, "order differs from the reference order")
        _expect(len(doc["rows"]) == len(order), "row count differs from node count")
        got = doc["footprint"]["peak_activation_bytes"]
        _expect(got == peak, f"peak_activation_bytes {got} != oracle {peak}")
    elif fmt == "table":
        lines = out.splitlines()
        _expect(f"in_place={'on' if in_place else 'off'}" in lines[1], "wrong in_place flag")
        start = next(i for i, ln in enumerate(lines) if ln.startswith("-----")) + 1
        names = [ln.split()[0] for ln in lines[start:start + len(order)]]
        _expect(names == order, "row order differs from the reference order")
        _expect(lines[start + len(order)].startswith("TOTAL"), "row count differs")
        m = re.search(r"peak_activation=(\d+) B", out)
        _expect(m is not None and int(m.group(1)) == peak,
                f"table peak {m and m.group(1)} != oracle {peak}")
    elif fmt == "csv":
        rows = list(csv.reader(out.splitlines()))
        _expect(rows[0][0] == "name", "missing CSV header")
        _expect([r[0] for r in rows[1:]] == order, "row order differs from the reference order")
        for r in rows[1:]:
            _expect(all(math.isfinite(float(x)) for x in r[2:]), "non-finite CSV field")
    elif fmt == "svg":
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        mem = next(g for g in root.iter(f"{ns}g") if g.get("id") == "memory")
        values = [t.text for t in mem.iter(f"{ns}text") if t.get("font-size") == "10"]
        _expect(values[1] == str(peak), f"svg peak {values[1]} != oracle {peak}")
    else:
        raise CheckError(f"unknown format {fmt}")


def check_orders(subject: Subject, in_place: bool, out: str) -> None:
    """``nncost orders`` output: every order once, each with its oracle
    peak, sorted by peak."""
    orders, peaks = subject.all_orders(in_place)
    want = dict(zip(orders, peaks))
    lines = out.splitlines()
    _expect(len(lines) == len(orders), f"{len(lines)} lines for {len(orders)} orders")
    seen = set()
    last = -1
    for ln in lines:
        peak_text, _, order_text = ln.strip().partition("  ")
        order = tuple(order_text.split())
        peak = int(peak_text)
        _expect(want.get(order) == peak, f"order {order_text!r}: peak {peak} != oracle")
        _expect(peak >= last, "orders are not sorted by peak")
        seen.add(order)
        last = peak
    _expect(len(seen) == len(orders), "duplicate orders")


def check_exit(rc, expected: int) -> None:
    _expect(rc in EXIT_CODES, f"exit code {rc} outside the {{0, 2, 3, 64}} contract")
    _expect(rc == expected, f"exit code {rc}, expected {expected}")


def one_line_diagnostic(err: str, prefix: str) -> None:
    _expect(err.count("\n") == 1 and err.startswith(prefix),
            f"expected one diagnostic line starting {prefix!r}, got {err!r}")
