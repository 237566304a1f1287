"""Shared brute-force oracles and the finite-difference gradient checker.

Used by both the unit suites and the acceptance suite so the two always
agree on what "correct" means.
"""

from __future__ import annotations

import numpy as np

from ganfuzz import nn, targets
from ganfuzz.coverage import MAP_SIZE

FD_H = 1e-5
FD_REL_TOL = 1e-4


def net_grad_check(layers, x, target, loss_kind, h=FD_H, scale_floor=1e-8):
    """Max relative error between analytic and central finite-difference
    gradients over every parameter coordinate of a dense stack.

    Coordinates where both gradients are below scale_floor are compared
    absolutely (central differences bottom out at the f64 cancellation
    floor, ~|loss|*1e-16/h, long before the relative tolerance does).
    """
    probs = nn.forward(layers, x)
    _, grad = nn.loss_and_grad(loss_kind, probs, target)
    nn.backward(layers, grad)
    analytic = [g.copy() for g in nn.gradients(layers)]
    worst = 0.0
    for p, a in zip(layers_params(layers), analytic):
        flat, aflat = p.reshape(-1), a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = nn.loss_and_grad(loss_kind, nn.forward(layers, x, cache=False), target)
            flat[i] = orig - h
            lm, _ = nn.loss_and_grad(loss_kind, nn.forward(layers, x, cache=False), target)
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            scale = max(abs(num), abs(aflat[i]))
            if scale < scale_floor:
                assert abs(num - aflat[i]) < scale_floor
                continue
            worst = max(worst, abs(num - aflat[i]) / scale)
    return worst


def layers_params(layers):
    return nn.parameters(layers)


def run_grad_suite(n_nets: int = 100, rng_seed: int = 42) -> float:
    """Randomized small nets covering every activation and both losses;
    returns the worst relative error observed."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    hidden_acts = ("identity", "relu", "tanh", "sigmoid", "softmax")
    worst = 0.0
    for trial in range(n_nets):
        loss = "binary_cross_entropy" if trial % 2 == 0 else "categorical_cross_entropy"
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        layers = []
        for k in range(depth - 1):
            act = hidden_acts[int(rng.integers(0, len(hidden_acts)))]
            layers.append(nn.DenseLayer.create(widths[k], widths[k + 1], act, rng))
        if loss == "binary_cross_entropy":
            layers.append(nn.DenseLayer.create(widths[depth - 1], 1, "sigmoid", rng))
            target = rng.integers(0, 2, size=(3, 1)).astype(float)
        else:
            out_w = widths[depth]
            layers.append(nn.DenseLayer.create(widths[depth - 1], out_w, "softmax", rng))
            target = np.eye(out_w)[rng.integers(0, out_w, size=3)]
        x = rng.normal(0.0, 0.8, size=(3, widths[0]))
        worst = max(worst, net_grad_check(layers, x, target, loss))
    return worst


# ---------------------------------------------------------------------------
# Coverage bucketing


def brute_bucket_index(count: int) -> int:
    """Bucket table written out longhand: {1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+}."""
    if count <= 0:
        return -1
    if count == 1:
        return 0
    if count == 2:
        return 1
    if count == 3:
        return 2
    if 4 <= count <= 7:
        return 3
    if 8 <= count <= 15:
        return 4
    if 16 <= count <= 31:
        return 5
    if 32 <= count <= 127:
        return 6
    return 7


# ---------------------------------------------------------------------------
# Edge sequences


def record_edges(data: bytes, edge_budget: int = targets.DEFAULT_EDGE_BUDGET):
    """Run minikey's parser with a sink that keeps every edge in order, cut at
    the budget. Returns (edges, outcome)."""
    edges: list[int] = []

    def emit_run(run):
        take = min(len(run), edge_budget - len(edges))
        edges.extend(run[:take])
        if take < len(run):
            raise targets._Budget

    def emit(edge, times=1):
        emit_run([edge] * times)

    def emit_pairs(a, b, times):
        emit_run([a, b] * times)

    try:
        targets._parse(data, emit, emit_pairs)
    except targets._Budget:
        return edges, targets.OUTCOME_HANG
    except targets._Crash:
        return edges, targets.OUTCOME_CRASH
    return edges, targets.OUTCOME_OK


def brute_hits(edges) -> dict[int, int]:
    """Per-cell hit counts of an edge sequence: XOR of consecutive edge ids
    (the first paired with 0), then bincount."""
    cur = np.asarray(edges, dtype=np.int64)
    if not len(cur):
        return {}
    prev = np.concatenate(([0], cur[:-1]))
    counts = np.bincount((prev ^ cur) & (MAP_SIZE - 1))
    hit = np.flatnonzero(counts)
    return dict(zip(hit.tolist(), counts[hit].tolist()))


def trace_of(edges, outcome: str = targets.OUTCOME_OK) -> targets.Trace:
    """The Trace a target would report for this edge sequence."""
    return targets.Trace(brute_hits(edges), outcome)


# ---------------------------------------------------------------------------
# Deduplication


def brute_dedup_content(seeds):
    """O(n^2) oracle: keep first occurrence by (worker, id) order."""
    ordered = sorted(seeds, key=lambda s: (s.worker, s.id))
    kept = []
    duplicates = 0
    for s in ordered:
        if any(t.data == s.data for t in kept):
            duplicates += 1
        else:
            kept.append(s)
    return kept, duplicates


def brute_dedup_by_length(seeds):
    """O(n^2) oracle over seeds that already carry trace_length."""
    ordered = sorted(seeds, key=lambda s: (s.worker, s.id))
    kept = []
    collisions = 0
    for s in ordered:
        if any(t.trace_length == s.trace_length for t in kept):
            collisions += 1
        else:
            kept.append(s)
    return kept, collisions
