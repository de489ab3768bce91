"""Input-oriented, constant-returns DEA with cost-efficiency decomposition.

Each DMU is scored against the frontier spanned by nonnegative combinations
of all DMUs in its SDS. With one output and constant returns only the input
per unit of output, ``z_j = x_j / y_j`` for ``y_j > 0``, matters, so the
scores are geometry over these points and no LP is solved. Technical
efficiency is the multiplier form of Charnes, Cooper & Rhodes (1978),
``max_F c_F / (v_F . z_i)`` over the facets ``v_F . z >= c_F > 0`` of
``conv{z_j} + R^3_+``, with the facets found once per SDS before any unit
is scored (frontier first, as in Dula's BuildHull, 2011). Cost efficiency
scales the peer with the lowest cost per unit of output; allocative
efficiency is their quotient.
"""

import numpy as np

from .model import (
    CLAMP_TOL,
    DEFAULT_COSTS,
    CostVector,
    DataError,
    EfficiencyScores,
    SdsDataset,
    SolverError,
    validate_dataset,
)

# Intensity weights below this are reported as zero.
_WEIGHT_TOL = 1e-9
# Relative slack of a supporting plane below its offset, of an optimal facet
# below a unit's best ratio, and of a peer coefficient below zero; rounding
# in a well-conditioned plane stays far below it.
_TOL = 1e-10
# Triples and facets are processed this many at a time, so that the working
# arrays stay small however many facets an SDS has.
_BLOCK = 512


def _facets(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Supporting planes ``v . z = c > 0`` of ``conv(p) + R^3_+``, with ``v >= 0``.

    Each facet contains three affinely independent generators, the points
    and unit rays, at least one of them a point; all such triples are tried.
    Returns the generators, then per plane kept its unit ``v``, ``c`` and triple.
    """
    m = len(p)
    gens = np.vstack([p, np.eye(3)])
    first, second = np.triu_indices(m + 3, 1)
    found = []
    for a in range(m):
        # direction from the anchor point a to each point, and each ray
        d = gens.copy()
        d[:m] -= p[a]
        for s in range(np.searchsorted(first, a, "right"), len(first), _BLOCK):
            j, k = first[s : s + _BLOCK], second[s : s + _BLOCK]
            v = np.cross(d[j], d[k])
            v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), np.finfo(float).tiny)
            v *= np.sign(v.sum(axis=1, keepdims=True))
            c = v @ p[a]
            # Height of every generator above each plane; for a ray, its slope.
            height = gens @ v.T
            height[:m] -= c
            keep = (c > 0) & (height.min(axis=0) >= -_TOL * c)
            triples = np.column_stack([np.full_like(j, a), j, k])
            found.append((v[keep].clip(0.0), c[keep], triples[keep]))
    v, c, triples = (np.concatenate(parts) for parts in zip(*found))
    return gens, v, c, triples


def _technical(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """te of every unit, and its peers: up to three unit indices per row with
    their intensity weights (zero where a slot is unused).

    Units with zero output, or too little for ``x / y`` to be finite, score
    0 with no peers; as peers they would add input for next to no output.
    """
    te, peer, weight = np.zeros(len(y)), np.zeros((len(y), 3), dtype=int), np.zeros((len(y), 3))
    pos = np.flatnonzero(y > x.max(axis=1) / np.finfo(float).max)
    if not pos.size:
        return te, peer, weight
    z = x[pos] / y[pos, None]
    # Dominated points never span a facet; the rest are the Pareto-minimal ones.
    below, above = z[:, None] <= z[None], z[:, None] < z[None]
    front = np.flatnonzero(~(below.all(axis=2) & above.any(axis=2)).any(axis=0))
    # Scores are unit-free; scaling into [0, 1] keeps cross products finite.
    # A dominated point can lie past the float range once scaled. Clipped to
    # a third of the largest float, its product with any unit v >= 0 stays
    # finite, and it scores as the LP does.
    scale = z[front].max(axis=0)
    with np.errstate(over="ignore"):
        z = np.minimum(z / np.where(scale > 0, scale, 1.0), np.finfo(float).max / 3)
    gens, v, c, triples = _facets(z[front])
    ratio = np.zeros(len(pos))
    for s in range(0, len(c), _BLOCK):
        ratio = np.maximum(ratio, (c[s : s + _BLOCK] / (z @ v[s : s + _BLOCK].T)).max(axis=1))
    # A unit that spans a supporting facet is on the frontier: exactly 1.
    spanning = np.isin(np.arange(len(pos)), front[triples[triples < len(front)]])
    te[pos] = np.where(spanning, 1.0, np.minimum(ratio, 1.0))

    # Peers: a triple of an optimal facet whose coefficients for the
    # contracted point are nonnegative, best first, until every unit has one.
    best_low = np.full(len(pos), -np.inf)
    coef, triple = np.zeros((len(pos), 3)), np.zeros((len(pos), 3), dtype=int)
    for s in range(0, len(c), _BLOCK):
        r = c[s : s + _BLOCK] / (z @ v[s : s + _BLOCK].T)
        u, f = np.nonzero((r >= ratio[:, None] * (1 - _TOL)) & (best_low[:, None] < -_TOL))
        t = triples[s + f]
        # A triple with two points a few ulps apart, such as a unit and a
        # scaled copy of it, is (near) singular. Skip it: the facets through
        # those points have well-conditioned triples too.
        g = gens[t]
        solvable = np.abs(np.linalg.det(g)) > _TOL * np.linalg.norm(g, axis=2).prod(axis=1)
        u, f, t = u[solvable], f[solvable], t[solvable]
        w = np.linalg.solve(gens[t].transpose(0, 2, 1), (r[u, f, None] * z[u])[..., None])[..., 0]
        low = w.min(axis=1)
        order = np.lexsort((-low, u))
        head = order[np.diff(u[order], prepend=-1) != 0]
        head = head[low[head] > best_low[u[head]]]
        best_low[u[head]], coef[u[head]], triple[u[head]] = low[head], w[head], t[head]
    # Rays are not units: their slots keep weight 0 and point at any unit.
    peer[pos] = np.append(pos[front], [pos[0]] * 3)[triple]
    coef[triple >= len(front)] = 0.0
    weight[pos] = coef.clip(0.0) * y[pos, None] / y[peer[pos]]
    return te, peer, weight


def _cost(x: np.ndarray, y: np.ndarray, costs: CostVector) -> np.ndarray:
    """ce of every unit: its output at the lowest cost per unit of output."""
    cost = x @ np.array([costs.fp_cost, costs.ap_cost, costs.rf_cost])
    pos = y > cost / np.finfo(float).max
    if not pos.any():
        return np.zeros(len(y))
    return np.minimum(y * (cost[pos] / y[pos]).min() / cost, 1.0)


def technical_efficiency(dmu0: int, ds: SdsDataset) -> tuple[float, dict[str, float]]:
    """Radial input-contraction score of ``ds.members[dmu0]`` and its peers.

    The peers are the intensity weights of units whose combination
    produces at least the DMU's output from at most ``te`` times its inputs.
    Each call validates and scores the whole SDS through :func:`evaluate_sds`,
    so to score every unit call that once instead.
    """
    scores = evaluate_sds(ds)[ds.members[dmu0][0].dmu_id]
    return scores.te, scores.reference_weights


def cost_efficiency(dmu0: int, ds: SdsDataset, costs: CostVector = DEFAULT_COSTS) -> float:
    """Minimum-cost-to-actual-cost ratio of ``ds.members[dmu0]``.

    Each call validates and scores the whole SDS through :func:`evaluate_sds`,
    so to score every unit call that once instead.
    """
    return evaluate_sds(ds, costs)[ds.members[dmu0][0].dmu_id].ce


def allocative_efficiency(te: float, ce: float) -> float:
    """CE / TE, with the nil-output convention that te = 0 maps to 0."""
    if ce > te + CLAMP_TOL:
        raise SolverError(f"cost efficiency {ce} exceeds technical efficiency {te}")
    if te == 0:
        return 0.0
    return min(1.0, ce / te)


def evaluate_sds(
    ds: SdsDataset, costs: CostVector = DEFAULT_COSTS
) -> dict[str, EfficiencyScores]:
    """Score every DMU of one SDS.

    DMUs with zero output score (0, 0, 0) by convention.
    """
    validate_dataset(ds)
    x = [(d.fp_years, d.ap_years, d.rf_years) for d, _ in ds.members]
    x, y = np.array(x, dtype=float).reshape(-1, 3), np.array(ds.ss_values(), dtype=float)
    ids = ds.dmu_ids()
    # A unit whose input per unit of output rounds to the zero vector would
    # make every other unit score 0 against it.
    with np.errstate(over="ignore"):
        flat = np.flatnonzero(x.max(axis=1) / np.where(y > 0, y, 1.0) == 0)
    if flat.size:
        raise DataError(
            f"{ds.sds_id}/{ids[flat[0]]}: staff-years per unit of output underflow to zero"
        )
    te, peer, weight = _technical(x, y)
    ce = _cost(x, y, costs).tolist()
    scores: dict[str, EfficiencyScores] = {}
    for i, (dmu_id, te_i) in enumerate(zip(ids, te.tolist())):
        try:
            ae = allocative_efficiency(te_i, ce[i])
        except SolverError as exc:
            raise SolverError(f"{ds.sds_id}/{dmu_id}: {exc}") from exc
        # Store ce re-derived from the pair so the decomposition identity is
        # exact rather than within rounding.
        scores[dmu_id] = EfficiencyScores(
            te=te_i,
            ae=ae,
            ce=te_i * ae,
            reference_weights={
                ids[j]: w for j, w in zip(peer[i], weight[i].tolist()) if w > _WEIGHT_TOL
            },
        )
    return scores
