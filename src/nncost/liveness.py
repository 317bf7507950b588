"""Concurrent-activation analysis along an execution order.

The normative liveness rule: a tensor occupies memory from the start of
its producer step through its last consumer step, so a node's inputs and
its output coexist (a kernel reads inputs while writing its output).
Graph inputs are live from step 0 until their last consumption; declared
graph outputs stay live through the final step.  Peak memory is the
maximum over steps of the summed live bytes, i.e. an ideal
non-fragmenting allocator that reuses dead buffers immediately.

ReLU and Add may run in place: their output aliases the first input's
buffer when that input has exactly one consuming reference and is not a
graph output.  Aliased tensors share one buffer and are counted once.
The flag ``in_place`` turns this off everywhere it appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import EnumerationLimitError
from .graph import (
    DEFAULT_ENUMERATION_LIMIT,
    Graph,
    OpKind,
    ShapeMap,
    check_order,
    default_order,
)
from .hwprofile import HwProfile
from .metrics import total_params

#: Kinds whose output may reuse the first input's buffer.
INPLACE_KINDS = frozenset({OpKind.RELU, OpKind.ADD})


@dataclass(frozen=True)
class LivenessStep:
    node: str
    live: tuple[str, ...]
    live_bytes: int


@dataclass(frozen=True)
class LivenessTrace:
    order: tuple[str, ...]
    steps: tuple[LivenessStep, ...]
    peak_bytes: int
    peak_step: str | None


@dataclass(frozen=True)
class FootprintReport:
    weights_bytes: int
    peak_activation_bytes: int
    total_bytes: int
    activation_share: float


@dataclass(frozen=True)
class FitVerdict:
    fits: bool
    flash_ok: bool
    sram_ok: bool
    flash_budget_bytes: int
    sram_budget_bytes: int
    flash_margin_bytes: int
    sram_margin_bytes: int


def inplace_aliases(g: Graph) -> dict[str, str]:
    """Output tensor -> first-input tensor it overwrites in place."""
    out_set = set(g.outputs)
    aliases: dict[str, str] = {}
    for node in g.nodes:
        if node.kind in INPLACE_KINDS:
            src = node.inputs[0]
            if len(g.consumers(src)) == 1 and src not in out_set:
                aliases[node.output] = src
    return aliases


def _buffer_roots(g: Graph, in_place: bool) -> dict[str, str]:
    """Representative buffer name for every tensor (itself, unless aliased)."""
    roots = {name: name for name in g.tensor_names}
    if not in_place:
        return roots
    aliases = inplace_aliases(g)
    for name in g.tensor_names:
        t = name
        while t in aliases:
            t = aliases[t]
        roots[name] = t
    return roots


def _live_windows(
    g: Graph, order: tuple[str, ...] | list[str]
) -> dict[str, tuple[int, int]]:
    """Per tensor, the inclusive step interval [start, end] it is live.

    start is the producer step (0 for graph inputs); end is the last
    consuming step, extended to the final step for graph outputs.
    """
    pos = {name: i for i, name in enumerate(order)}
    last = len(order) - 1
    out_set = set(g.outputs)
    windows: dict[str, tuple[int, int]] = {}
    for name in g.tensor_names:
        start = pos.get(name, 0)
        end = max((pos[c] for c in g.consumers(name)), default=-1)
        if name in out_set:
            end = last
        end = max(end, pos.get(name, -1))
        if end >= start:
            windows[name] = (start, end)
    return windows


def live_set(
    g: Graph,
    shapes: ShapeMap,
    order: tuple[str, ...] | list[str],
    step_index: int,
) -> frozenset[str]:
    """Tensors live while executing order[step_index]."""
    check_order(g, order)
    if not 0 <= step_index < len(order):
        raise ValueError(f"step_index {step_index} out of range")
    windows = _live_windows(g, order)
    return frozenset(
        name for name, (start, end) in windows.items() if start <= step_index <= end
    )


def peak_activation(
    g: Graph,
    shapes: ShapeMap,
    order: tuple[str, ...] | list[str],
    in_place: bool = True,
) -> LivenessTrace:
    """Full liveness trace with peak bytes at the earliest maximal step."""
    check_order(g, order)
    windows = _live_windows(g, order)
    roots = _buffer_roots(g, in_place)

    n = len(order)
    steps: list[LivenessStep] = []
    peak = 0
    peak_step: str | None = None
    if n:
        # per-step live names
        per_step: list[list[str]] = [[] for _ in range(n)]
        for name, (start, end) in windows.items():
            for i in range(start, min(end, n - 1) + 1):
                per_step[i].append(name)
        for i, node_name in enumerate(order):
            live = sorted(per_step[i])
            seen: set[str] = set()
            total = 0
            for t in live:
                root = roots[t]
                if root not in seen:
                    seen.add(root)
                    total += shapes[t].byte_size
            steps.append(LivenessStep(node=node_name, live=tuple(live), live_bytes=total))
            if total > peak:
                peak = total
                peak_step = node_name
    return LivenessTrace(
        order=tuple(order), steps=tuple(steps), peak_bytes=peak, peak_step=peak_step
    )


def min_peak_order(
    g: Graph,
    shapes: ShapeMap,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    in_place: bool = True,
) -> tuple[tuple[str, ...], int]:
    """Exact minimal-peak execution order, by dynamic programming over
    executed-node sets (Liberis & Lane, arXiv:1910.05110).

    While node v runs after the set S has run, the live tensors are v's
    output plus every tensor produced so far that a node outside S, or
    the graph's outputs, still needs.  The step's bytes thus depend only
    on (S, v), and the smallest peak of the remaining steps is
    f(S) = min over ready v of max(step(S, v), f(S + v)), with f(all) = 0.

    Returns the lexicographically smallest order reaching f(empty), which
    is the first minimal order in enumeration sequence.  Exact only:
    raises EnumerationLimitError once more than ``limit`` distinct
    executed sets (counting the empty and the full set) are reached,
    rather than returning an approximate answer labeled as a minimum.
    """
    names = sorted(n.name for n in g.nodes)
    n = len(names)
    if not n:
        return ((), 0)
    # Nodes are numbered in name order, so sorted ids are sorted names;
    # graph inputs follow them in the tensor numbering.
    tid = {name: i for i, name in enumerate(names)}
    for gi in g.inputs:
        tid[gi.name] = len(tid)
    tensors = list(tid)
    out_set = set(g.outputs)
    aliased = inplace_aliases(g) if in_place else {}
    size = [shapes[t].byte_size for t in tensors]
    # Distinct consumers of each tensor and distinct producers of each
    # node that have not run yet; updated along the search path.
    left = [len(set(g.consumers(t))) for t in tensors]
    indeg = [0] * n
    ins: list[tuple[int, ...]] = [()] * n
    deps: list[list[int]] = [[] for _ in range(n)]
    for node in g.nodes:
        v = tid[node.name]
        ins[v] = tuple({tid[t] for t in node.inputs})
        for t in ins[v]:
            if t < n:
                deps[t].append(v)
                indeg[v] += 1
    # Bytes a step adds on top of the live set (an in-place output shares
    # its input's buffer, and has its shape and dtype), bytes its output
    # keeps live afterwards, and bytes a tensor releases when its last
    # consumer has run.
    extra = [0 if t in aliased else size[v] for v, t in enumerate(names)]
    kept = [size[v] if (left[v] or t in out_set) else 0 for v, t in enumerate(names)]
    freed = [0 if t in out_set else size[k] for k, t in enumerate(tensors)]
    live0 = sum(size[k] for k in range(n, len(tensors)) if left[k] or tensors[k] in out_set)

    # A state is keyed by its sorted ready set: the nodes that have not
    # run are exactly the ready ones and everything downstream of them.
    # Frames: [ready, live bytes, next move index, best peak, moves].
    root = tuple(v for v in range(n) if not indeg[v])
    best: dict[tuple[int, ...], int] = {}
    moves: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = {}
    stack: list[list] = [[root, live0, 0, inf, []]]
    states = 1
    while True:
        top = stack[-1]
        ready, live, i, peak, mv = top
        if i == len(ready):
            # every move from this state is explored
            if not ready and len(stack) <= n:
                default_order(g)  # raises ValidationError naming the cycle
            best[ready] = peak
            moves[ready] = mv
            stack.pop()
            if not stack:
                break
            nxt, fn = ready, peak
            top = stack[-1]
            ready, live, i, peak, mv = top
            v = ready[i - 1]
        else:
            v = ready[i]
            top[2] = i + 1
            nxt_live = live + kept[v]
            for t in ins[v]:
                left[t] -= 1
                if not left[t]:
                    nxt_live -= freed[t]
            new = []
            for d in deps[v]:
                indeg[d] -= 1
                if not indeg[d]:
                    new.append(d)
            nxt = ready[:i] + ready[i + 1 :]
            if new:
                new.extend(nxt)
                new.sort()
                nxt = tuple(new)
            fn = best.get(nxt)
            if fn is None:
                states += 1
                if states > limit:
                    raise EnumerationLimitError(
                        f"graph '{g.name}' needs more than {limit} min-peak search "
                        "states; min-peak search is exact-only, use default_order"
                    )
                stack.append([nxt, nxt_live, 0, inf if nxt else 0, []])
                continue
        # record the move v (ready -> nxt), then undo it
        step = live + extra[v]
        mv.append((v, step, nxt))
        cost = step if step > fn else fn
        if cost < peak:
            top[3] = cost
        for t in ins[v]:
            left[t] += 1
        for d in deps[v]:
            indeg[d] += 1

    # The smallest-named move that keeps the optimum at every step gives
    # the lexicographically smallest optimal order.
    opt = best[root]
    order: list[str] = []
    cur = root
    while cur:
        for v, step, nxt in moves[cur]:
            if step <= opt and best[nxt] <= opt:
                order.append(names[v])
                cur = nxt
                break
    return (tuple(order), opt)


def memory_footprint(
    g: Graph,
    shapes: ShapeMap,
    order: tuple[str, ...] | list[str],
    in_place: bool = True,
) -> FootprintReport:
    """Total memory footprint: weight bytes plus peak concurrent
    activation bytes along the given order."""
    _, weights_bytes = total_params(g, shapes)
    peak = peak_activation(g, shapes, order, in_place).peak_bytes
    total = weights_bytes + peak
    share = peak / total if total > 0 else 0.0
    return FootprintReport(
        weights_bytes=weights_bytes,
        peak_activation_bytes=peak,
        total_bytes=total,
        activation_share=share,
    )


def check_fit(footprint: FootprintReport, profile: HwProfile) -> FitVerdict:
    """Compare a footprint against the target's flash/SRAM budgets.

    Weights live in flash, activations in SRAM; usage exactly at a
    budget passes.
    """
    flash_margin = profile.flash_budget_bytes - footprint.weights_bytes
    sram_margin = profile.sram_budget_bytes - footprint.peak_activation_bytes
    flash_ok = flash_margin >= 0
    sram_ok = sram_margin >= 0
    return FitVerdict(
        fits=flash_ok and sram_ok,
        flash_ok=flash_ok,
        sram_ok=sram_ok,
        flash_budget_bytes=profile.flash_budget_bytes,
        sram_budget_bytes=profile.sram_budget_bytes,
        flash_margin_bytes=flash_margin,
        sram_margin_bytes=sram_margin,
    )
