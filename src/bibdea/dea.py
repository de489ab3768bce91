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

The candidate facets of an SDS are enumerated in one batch: every triple
of generators (points and unit rays) anchored at a point, in the order of
anchor, then pair, a bounded chunk of triples at a time.

Nothing goes through BLAS or LAPACK: every dot product has three terms and
is added left to right (:func:`_dot`), and the peer weights solve their
3 x 3 systems by Cramer's rule, so the scores and the weights are the same
floats whichever BLAS kernel numpy loads.

:func:`evaluate_sds` scores an SDS and then searches each unit's peers
(its reference set) on the facets already found: a triple of an optimal
facet that combines into the contracted unit with nonnegative weights. It
scores through :func:`_scores`, which takes the SDS as columns; the
pipeline calls that directly and searches no peers. An ``SdsDataset`` and
the columns of an ``AssessmentDataset`` are checked when they are built.
"""

from numbers import Integral

import numpy as np

from .model import (
    CLAMP_TOL,
    DEFAULT_COSTS,
    CostVector,
    DataError,
    EfficiencyScores,
    SdsDataset,
    SolverError,
    _floats,
    _staff_costs,
)

# A peer's share of a unit's output up to this is rounding noise: weight 0.
_WEIGHT_TOL = 1e-9
# Relative slack of a supporting plane below its offset, of an optimal facet
# below a unit's best ratio, and of a peer coefficient below zero; rounding
# in a well-conditioned plane stays far below it.
_TOL = 1e-10
# Triples and facets are processed this many at a time, so that the working
# arrays stay small however many facets an SDS has.
_BLOCK = 512
# Candidate planes are enumerated so that about this many point heights are
# held at once.
_CHUNK = 1 << 18


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of rows of three, each added left to right."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _dots(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``z @ v.T`` for rows of three, each entry added left to right."""
    return _dot(z[:, None], v)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross products of rows of three, as ``np.cross`` computes them."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def _facets(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Supporting planes ``v . z = c > 0`` of ``conv(p) + R^3_+``, with ``v >= 0``.

    Each facet contains three affinely independent generators, the points
    and unit rays, at least one of them a point; all such triples are tried.
    Returns the generators, then per plane kept its unit ``v``, ``c`` and triple.
    """
    m = len(p)
    gens = np.vstack([p, np.eye(3)])
    # Every triple a < j < k of generators whose first, the anchor, is a
    # point, in lexicographic order.
    g = np.arange(m + 3)
    anchor, first, second = np.nonzero((g[:m, None, None] < g[:, None]) & (g[:, None] < g))
    # d[a, j]: direction from the anchor point a to each point, and each ray
    d = np.broadcast_to(gens, (m, m + 3, 3)).copy()
    d[:, :m] -= p[:, None]
    # Triples are taken a chunk at a time, so that the heights below stay
    # small however many triples an SDS has.
    step = max(_BLOCK, _CHUNK // m)
    found = []
    for lo in range(0, len(anchor), step):
        a, j, k = anchor[lo : lo + step], first[lo : lo + step], second[lo : lo + step]
        v = _cross(d[a, j], d[a, k])
        v /= np.maximum(np.sqrt(_dot(v, v)), np.finfo(float).tiny)[:, None]
        v *= np.sign(v.sum(axis=1, keepdims=True))
        c = _dot(v, p[a])
        # A ray's height above a plane is its slope, a component of v; the
        # points' heights are taken only for the planes the rays pass.
        keep = (c > 0) & (v.min(axis=1) >= -_TOL * c)
        height = _dots(p, v[keep]).min(axis=0) - c[keep]
        keep[keep] = height >= -_TOL * c[keep]
        found.append((v[keep].clip(0.0), c[keep], np.column_stack([a, j, k])[keep]))
    v, c, triples = (np.concatenate(parts) for parts in zip(*found))
    return gens, v, c, triples


def _points(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``z`` scaled by the column maxima of its Pareto-minimal points, and
    the indices of those points."""
    # Dominated points never span a facet; the rest are the Pareto-minimal
    # ones. below[i, j]: z_i <= z_j in every column, so z_i dominates z_j
    # unless z_j <= z_i too.
    below = np.ones((len(z), len(z)), dtype=bool)
    for col in z.T:
        below &= col[:, None] <= col
    front = np.flatnonzero(~(below & ~below.T).any(axis=0))
    # Scores are unit-free; scaling into [0, 1] keeps cross products finite.
    # A dominated point can lie past the float range once scaled. Clipped to
    # a third of the largest float, its product with any unit v >= 0 stays
    # finite, and it scores as the LP does.
    scale = z[front].max(axis=0)
    with np.errstate(over="ignore"):
        z = np.minimum(z / np.where(scale > 0, scale, 1.0), np.finfo(float).max / 3)
    return z, front


def _technical(z: np.ndarray, front: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """te of every scaled point, its best facet ratio and the facets, which
    :func:`_peers` reuses."""
    facets = gens, v, c, triples = _facets(z[front])
    ratio = np.zeros(len(z))
    for s in range(0, len(c), _BLOCK):
        ratio = np.maximum(ratio, (c[s : s + _BLOCK] / _dots(z, v[s : s + _BLOCK])).max(axis=1))
    # A unit that spans a supporting facet is on the frontier: exactly 1.
    spanning = np.zeros(len(z), dtype=bool)
    spanning[front[triples[triples < len(front)]]] = True
    return np.where(spanning, 1.0, np.minimum(ratio, 1.0)), ratio, facets


def _peers(
    y: np.ndarray,
    z: np.ndarray,
    front: np.ndarray,
    te: np.ndarray,
    ratio: np.ndarray,
    facets: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Peers of every scaled point: up to three indices into ``z`` per row
    with their intensity weights (zero where a slot is unused).

    ``y`` and ``te`` hold the points' outputs and scores. A peer making at
    most ``_WEIGHT_TOL`` of the unit's output gets weight 0, and one whose
    weight passes the float range (far less output than the unit) ``inf``.
    """
    gens, v, c, triples = facets
    # A triple of an optimal facet whose coefficients for the contracted
    # point are nonnegative, best first, until every unit has one.
    best_low = np.full(len(z), -np.inf)
    coef, triple = np.zeros((len(z), 3)), np.zeros((len(z), 3), dtype=int)
    for s in range(0, len(c), _BLOCK):
        r = c[s : s + _BLOCK] / _dots(z, v[s : s + _BLOCK])
        u, f = np.nonzero((r >= ratio[:, None] * (1 - _TOL)) & (best_low[:, None] < -_TOL))
        t = triples[s + f]
        # A triple with two points a few ulps apart, such as a unit and a
        # scaled copy of it, is (near) singular. Skip it: the facets through
        # those points have well-conditioned triples too.
        g = gens[t]
        g0, g1, g2 = g[:, 0], g[:, 1], g[:, 2]
        cross = np.stack([_cross(g1, g2), _cross(g2, g0), _cross(g0, g1)], axis=1)
        det = _dot(g0, cross[:, 0])
        solvable = np.abs(det) > _TOL * np.sqrt(_dot(g, g)).prod(axis=1)
        u, f, t, det, cross = u[solvable], f[solvable], t[solvable], det[solvable], cross[solvable]
        # Cramer's rule: the weights w of the generators that sum to the
        # contracted point b, w_i = b . (g_j x g_k) / det.
        b = r[u, f, None] * z[u]
        w = _dot(b[:, None], cross) / det[:, None]
        low = w.min(axis=1)
        order = np.lexsort((-low, u))
        head = order[np.diff(u[order], prepend=-1) != 0]
        head = head[low[head] > best_low[u[head]]]
        best_low[u[head]], coef[u[head]], triple[u[head]] = low[head], w[head], t[head]
    # coef holds each peer's share of the unit's output. Rays are not units:
    # their slots keep weight 0 and point at any unit.
    peer = np.append(front, [0] * 3)[triple]
    coef[(triple >= len(front)) | (coef <= _WEIGHT_TOL)] = 0.0
    # A frontier unit whose optimal facets have no solvable triple, all of
    # them near singular, is its own peer.
    alone = np.flatnonzero((best_low == -np.inf) & (te == 1.0))
    peer[alone], coef[alone] = alone[:, None], (1.0, 0.0, 0.0)
    with np.errstate(over="ignore"):
        return peer, coef * y[:, None] / y[peer]


def _scores(
    sds_id: str, ids, x: np.ndarray, y: np.ndarray, cost: np.ndarray
) -> tuple[tuple, tuple | None]:
    """te, ae and ce of the units of one SDS, given as columns: their ids,
    staff-years ``x`` (one row per unit), output ``y`` and staff cost; and
    the frontier that :func:`_peers` searches: the indices and outputs of
    the units with output, their scaled points, the Pareto-minimal ones,
    their best facet ratios and the facets (None if no unit has output).

    The columns are trusted to be valid, but a staff cost past the float
    range, which would score ce 0, is a data error; ``sds_id`` and ``ids``
    only name a unit in an error.
    """
    if (over := np.flatnonzero(~(cost < np.inf))).size:
        raise DataError(f"{sds_id}/{ids[over[0]]}: staff cost overflows a float")
    # Units with zero output, or so little that x / y or cost / y is not
    # finite, score (0, 0, 0) in te and ce alike and are no peers: they
    # would add input for next to no output.
    pos = np.flatnonzero(y > np.maximum(x.max(axis=1), cost) / np.finfo(float).max)
    te, ce = np.zeros(len(y)), np.zeros(len(y))
    frontier = None
    if pos.size:
        z, front = _points(x[pos] / y[pos, None])
        # A unit whose input per unit of output rounds to the zero vector,
        # before or after scaling, would make every other unit score 0
        # against it.
        flat = np.flatnonzero(~z.any(axis=1))
        if flat.size:
            raise DataError(
                f"{sds_id}/{ids[pos[flat[0]]]}: "
                "staff-years per unit of output underflow to zero"
            )
        te[pos], ratio, facets = _technical(z, front)
        # ce: the unit's output at the lowest cost per unit of output.
        ce[pos] = np.minimum(y[pos] * (cost[pos] / y[pos]).min() / cost[pos], 1.0)
        frontier = pos, y[pos], z, front, ratio, facets
    try:
        ae = allocative_efficiency(te, ce)
    except SolverError as exc:
        i = np.flatnonzero(ce > te + CLAMP_TOL)[0]
        raise SolverError(f"{sds_id}/{ids[i]}: {exc}") from exc
    # The scores lie in [0, 1] as built: te is 1.0 or min(ratio, 1), ratio > 0
    # as every kept facet has c > 0 and v . z >= c (1 - tol) at each unit with
    # output; ce = min(y * min(cost / y) / cost, 1) >= 0; ae = min(1, ce / te),
    # 0 where te is 0. ce = te * ae makes the decomposition exact, with no -0.0.
    return (te, ae, te * ae), frontier


def technical_efficiency(dmu0: int, ds: SdsDataset) -> tuple[float, dict[str, float]]:
    """Radial input-contraction score of ``ds.members[dmu0]`` and its peers.

    The peers are the intensity weights of units whose combination
    produces at least the DMU's output from at most ``te`` times its inputs.
    Each call scores the whole SDS through :func:`evaluate_sds`,
    so to score every unit call that once instead.
    """
    scores = evaluate_sds(ds)[ds.members[_member(dmu0, ds)][0].dmu_id]
    return scores.te, scores.reference_weights


def cost_efficiency(dmu0: int, ds: SdsDataset, costs: CostVector = DEFAULT_COSTS) -> float:
    """Minimum-cost-to-actual-cost ratio of ``ds.members[dmu0]``.

    Each call scores the whole SDS through :func:`evaluate_sds`,
    so to score every unit call that once instead.
    """
    dmu_id = ds.members[_member(dmu0, ds)][0].dmu_id
    return evaluate_sds(ds, costs)[dmu_id].ce


def _member(dmu0: int, ds: SdsDataset) -> int:
    """``dmu0``, checked to be an int, not a bool, in ``0..len(ds) - 1``: an
    index of ``ds.members``, counted from the front."""
    if not isinstance(dmu0, Integral) or isinstance(dmu0, bool) or not 0 <= dmu0 < len(ds):
        raise DataError(f"dmu0 must be an integer in 0..{len(ds) - 1}, not {dmu0!r}")
    return int(dmu0)


def allocative_efficiency(te, ce):
    """CE / TE, with the nil-output convention that te = 0 maps to 0.

    ``te`` and ``ce`` are two scores, or two arrays of them taken pairwise,
    read by the datasets' float rule; each must lie in [0, 1].
    """
    te, ce = _floats(te), _floats(ce)
    if te.shape != ce.shape:
        raise DataError(f"te and ce must have one shape, not {te.shape} and {ce.shape}")
    for name, score in (("te", te), ("ce", ce)):
        bad = ~((score >= 0) & (score <= 1))
        if bad.any():
            raise DataError(f"{name}={float(score[bad].flat[0])} outside [0, 1]")
    over = ce > te + CLAMP_TOL
    if over.any():
        raise SolverError(
            f"cost efficiency {ce[over].flat[0]} exceeds technical efficiency {te[over].flat[0]}"
        )
    ae = np.minimum(1.0, np.divide(ce, te, out=np.zeros_like(ce), where=te != 0))
    return ae if ae.ndim else float(ae)


def evaluate_sds(
    ds: SdsDataset, costs: CostVector = DEFAULT_COSTS
) -> dict[str, EfficiencyScores]:
    """Score every DMU of one SDS, with its peers.

    DMUs with zero output score (0, 0, 0) by convention and have no peers.
    """
    ids = ds.dmu_ids()
    x = [(d.fp_years, d.ap_years, d.rf_years) for d, _ in ds.members]
    x, y = np.array(x, dtype=float).reshape(-1, 3), np.array(ds.ss_values(), dtype=float)
    (te, ae, ce), frontier = _scores(ds.sds_id, ids, x, y, _staff_costs(x, costs))
    weights: list[dict[str, float]] = [{} for _ in ids]
    if frontier is not None:
        pos, y, z, front, ratio, facets = frontier
        peer, weight = _peers(y, z, front, te[pos], ratio, facets)
        for i, peers, row in zip(pos.tolist(), pos[peer].tolist(), weight.tolist()):
            weights[i] = {ids[j]: w for j, w in zip(peers, row) if w > 0}
    return {
        dmu_id: EfficiencyScores(te=t, ae=a, ce=c, reference_weights=w)
        for dmu_id, t, a, c, w in zip(ids, te.tolist(), ae.tolist(), ce.tolist(), weights)
    }
