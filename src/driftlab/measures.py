"""Occupation measures on state x velocity space and their diagnostics.

The step-weighted time average of the Dirac path at (x(n), z(n)) is an
empirical measure; its stationarity residuals against a family of smooth
test functions, its support relative to the Filippov/Krasovskii graphs, and
the noise-martingale partial sums are the quantities the limit theory
constrains.  A test-function family is one (sigma, center) group of
gaussian-bump monomials, built from its group.  Every trace index taken
here (up_to_n, a checkpoint, n0) is an integer, not a float or a bool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrace, IndexOutOfRange
from .fields import (
    DEFAULT_RADIUS_TOL, _row_norms, _row_sums, filippov_map, krasovskii_map, maps_follow_pattern,
)
from .sa import _is_integer

_MERGE_ATOL = 1e-15
_BOX_PAD = 0.1
_SPLIT_TARGETS = (-1.0, 1.0)  # velocity_mass_split's two target velocities
_SPLIT_TOL = 0.5


# ---------------------------------------------------------------------------
# empirical measures

@dataclass
class EmpiricalMeasure:
    """Weighted atoms on B x D; weights positive and summing to one."""

    xs: np.ndarray  # (m, d)
    zs: np.ndarray  # (m, d)
    weights: np.ndarray  # (m,)
    box_states: np.ndarray  # (2, d) rows lo, hi
    box_velocities: np.ndarray  # (2, d)

    @property
    def n_atoms(self):
        return self.weights.size

    @property
    def dimension(self):
        return self.xs.shape[1]


def _merge_duplicate_atoms(xs, zs, ws):
    joint = np.hstack([xs, zs])
    order = np.lexsort(joint.T[::-1])
    joint, ws = joint[order], ws[order]
    new_group = np.ones(joint.shape[0], dtype=bool)
    if joint.shape[0] > 1:
        same = np.all(np.abs(np.diff(joint, axis=0)) <= _MERGE_ATOL, axis=1)
        new_group[1:] = ~same
    group_ids = np.cumsum(new_group) - 1
    n_groups = group_ids[-1] + 1
    merged_w = np.zeros(n_groups)
    np.add.at(merged_w, group_ids, ws)
    first = np.nonzero(new_group)[0]
    d = xs.shape[1]
    return joint[first, :d], joint[first, d:], merged_w


def _padded_box(rows):
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    pad = _BOX_PAD * (hi - lo)
    return np.array([lo - pad, hi + pad])


def averaged_measure(trace, up_to_n):
    """Exact time average of the occupation path up to index up_to_n:
    atoms (x(k), z(k)) with weights a(k)/t(up_to_n)."""
    if trace.n_steps < 1:
        raise EmptyTrace("trace has no recorded steps")
    if not _is_integer(up_to_n) or not 1 <= up_to_n <= trace.n_steps:
        raise ValueError(f"up_to_n must be an integer in [1, {trace.n_steps}], got {up_to_n!r}")
    t_n = float(trace.times[up_to_n])
    if t_n <= 0:
        raise EmptyTrace(f"t({up_to_n}) = 0: no positive stepsize before step {up_to_n}")
    xs = trace.states[:up_to_n]
    zs = trace.drifts[:up_to_n]
    ws = trace.steps[:up_to_n] / t_n
    keep = ws > 0
    if not keep.all():
        xs, zs, ws = xs[keep], zs[keep], ws[keep]
    # one sort by x_0 proves the atoms distinct when neighbours differ in x_0
    # by more than _MERGE_ATOL: it is then the lexsort order, nothing merges,
    # and a lone atom's merged weight 0.0 + w is w.  A tie, a near-tie, -0.0
    # beside 0.0 or a NaN fails the test and goes through the merge.
    order = np.argsort(xs[:, 0])
    sorted_xs = xs.take(order, axis=0)
    if np.all(np.diff(sorted_xs[:, 0]) > _MERGE_ATOL):
        xs, zs, ws = sorted_xs, zs.take(order, axis=0), ws.take(order)
    else:
        xs, zs, ws = _merge_duplicate_atoms(xs, zs, ws)
    return EmpiricalMeasure(
        xs=xs,
        zs=zs,
        weights=ws,
        box_states=_padded_box(xs),
        box_velocities=_padded_box(zs),
    )


# ---------------------------------------------------------------------------
# test functions: gaussian-bump-weighted monomials up to degree 2

class GaussianMonomial:
    """f(x) = prod (x-c)_i^beta_i * exp(-|x-c|^2 / (2 sigma^2))."""

    def __init__(self, beta, sigma, center=None):
        self.beta = tuple(int(b) for b in beta)
        self.sigma = float(sigma)
        d = len(self.beta)
        self.center = np.zeros(d) if center is None else np.asarray(center, dtype=float)

    def value(self, x):
        y = np.asarray(x, dtype=float) - self.center
        mono = np.prod(y ** np.array(self.beta))
        return float(mono * np.exp(-(y @ y) / (2.0 * self.sigma**2)))

    def value_bound(self):
        k = sum(self.beta)
        return _radial_max(k, self.sigma)

    def gradient_bound(self):
        k = sum(self.beta)
        return k * _radial_max(max(k - 1, 0), self.sigma) + _radial_max(k + 1, self.sigma) / self.sigma**2


def _radial_max(k, sigma):
    """max over r >= 0 of r^k exp(-r^2 / (2 sigma^2))."""
    if k == 0:
        return 1.0
    return (sigma * np.sqrt(k)) ** k * np.exp(-k / 2.0)


class TestFunctionFamily:
    """The degree <= 2 gaussian-bump monomials of one sigma and one center:
    one group, so gradients computes the bump and every monomial once for
    the family.  The center is the family's own copy (zeros if None)."""

    def __init__(self, dimension, sigma, center=None):
        if not _is_integer(dimension) or dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        if not 0 < sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
        center = np.zeros(dimension) if center is None else np.array(center, dtype=float)
        if center.shape != (dimension,) or not np.isfinite(center).all():
            raise ValueError(f"center must be {dimension} finite numbers, got {center!r}")
        self.dimension, self.sigma, self.center = dimension, float(sigma), center
        self.members = [GaussianMonomial(beta, sigma, center) for beta in _multi_indices(dimension)]

    @classmethod
    def from_box(cls, box_states):
        """The family adapted to a state box: sigma from the box radius,
        bump centered at the box center."""
        box = np.asarray(box_states, dtype=float)
        center = 0.5 * (box[0] + box[1])
        radius = 0.5 * float(np.linalg.norm(box[1] - box[0]))
        sigma = radius if radius > 1e-9 else 1.0
        return cls(box.shape[1], sigma, center)

    def __len__(self):
        return len(self.members)

    def gradients(self, xs):
        """Every member's gradient at every point, shape (members, n, d), in
        one pass over the family.

        d/dx_j f = (beta_j y^(beta - e_j) - y^beta y_j / sigma^2) * bump with
        y = x - center: the bump is computed once, and each monomial y^beta
        once per distinct beta, as the product of its factors in coordinate
        order."""
        xs = np.atleast_2d(xs)
        d = self.dimension
        if xs.shape[1] != d:
            raise ValueError(f"points have {xs.shape[1]} coordinates, the family has {d}")
        y = xs - self.center
        sigma2 = self.sigma**2
        bump = np.exp(-_row_sums(y * y) / (2.0 * sigma2))
        ones = np.ones(y.shape[0])
        # y ** 2 is taken on the whole (n, d) array, the layout in which a
        # member's y ** beta took it, so the same pow kernel rounds it: y * y,
        # or a pow on one contiguous column, differs in the last bit
        squares = y ** np.full(d, 2)
        monomials = {}

        def monomial(beta):
            if beta not in monomials:
                mono = ones
                for j, b in enumerate(beta):
                    if b:
                        factor = y[:, j] if b == 1 else squares[:, j]
                        mono = factor if mono is ones else mono * factor
                monomials[beta] = mono
            return monomials[beta]

        out = np.empty((len(self.members), *y.shape))
        for grads, member in zip(out, self.members):
            beta, mono = member.beta, monomial(member.beta)
            for j, b in enumerate(beta):
                if b:
                    lowered = monomial(beta[:j] + (b - 1,) + beta[j + 1:])
                    dmono = lowered if b == 1 else b * lowered
                else:
                    dmono = 0.0
                # contiguous operands, as in the per-member form: a product
                # written to a strided column may take the other operand's NaN
                grads[:, j] = (dmono - mono * y[:, j] / sigma2) * bump
        return out


def _multi_indices(dimension):
    """Every multi-index of degree <= 2, by degree, then in
    combinations_with_replacement order."""
    out = []
    for total in range(3):
        for combo in itertools.combinations_with_replacement(range(dimension), total):
            beta = [0] * dimension
            for i in combo:
                beta[i] += 1
            out.append(tuple(beta))
    return out


# ---------------------------------------------------------------------------
# diagnostics

def stationarity_residual(measure, family):
    """Per member: sum over atoms of w * <grad f(x), z>; vanishes for
    limiting averaged measures."""
    if measure.n_atoms == 0:
        raise EmptyTrace("measure has no atoms")
    terms = _row_sums(family.gradients(measure.xs) * measure.zs)
    return np.array([measure.weights @ member_terms for member_terms in terms])


def checkpoint_residuals(trace, family, checkpoints):
    """stationarity_residual(averaged_measure(trace, n), family) at every
    checkpoint n, shape (checkpoints, members), in one pass over the trace.

    The residual is linear in the measure, so at n it is the a(k)/t(n)
    weighted sum of the per-step terms <grad f_i(x(k)), z(k)>, k < n.  The
    sum runs in step order instead of over sorted, merged atoms, so it
    agrees with the oracle to roundoff.
    """
    if trace.n_steps < 1:
        raise EmptyTrace("trace has no recorded steps")
    checkpoints = _indices(checkpoints)
    if np.any((checkpoints < 1) | (checkpoints > trace.n_steps)):
        raise ValueError(f"checkpoints must be in [1, {trace.n_steps}]")
    if np.any(np.diff(checkpoints) <= 0):
        raise ValueError("checkpoints must be increasing")
    if checkpoints.size and trace.times[checkpoints[0]] <= 0:
        n = checkpoints[0]
        raise EmptyTrace(f"t({n}) = 0: no positive stepsize before step {n}")
    n_max = int(checkpoints.max(initial=0))
    terms = _row_sums(family.gradients(trace.states[:n_max]) * trace.drifts[:n_max])
    out = np.empty((checkpoints.size, len(family)))
    for j, n in enumerate(checkpoints):
        out[j] = terms[:, :n] @ (trace.steps[:n] / trace.times[n])
    return out


def _indices(checkpoints):
    """checkpoints as an int array; each must be an integer, not a bool."""
    checkpoints = list(checkpoints)
    if not all(_is_integer(n) for n in checkpoints):
        raise ValueError(f"checkpoints must be integers, got {checkpoints!r}")
    return np.asarray(checkpoints, dtype=int)


@dataclass
class GraphSupport:
    """Weight fractions of atoms lying eps-close to the set-valued graphs."""

    filippov: float
    krasovskii: float


@dataclass
class GraphDistances:
    """Each atom's distance to the Filippov and to the Krasovskii set at its
    state, with the atoms' weights; where no atom is near a guard surface
    the two distance arrays are one array."""

    filippov: np.ndarray  # (m,)
    krasovskii: np.ndarray  # (m,)
    weights: np.ndarray  # (m,)

    def support(self, eps):
        """Total weight within eps of each graph."""
        if not eps > 0:
            raise ValueError(f"eps must be > 0, got {eps!r}")
        filippov = float(self.weights[self.filippov <= eps].sum())
        if self.krasovskii is self.filippov:
            return GraphSupport(filippov, filippov)
        return GraphSupport(filippov, float(self.weights[self.krasovskii <= eps].sum()))


def graph_distances(measure, field, radius_tol=DEFAULT_RADIUS_TOL):
    """dist(z, F(x)) and dist(z, K(x)) of every atom (x, z), in one pass.

    Atoms strictly interior to a region take the vectorized singleton path,
    where F(x) = K(x) = {h(x)}.  Atoms within radius_tol of a guard surface
    get their sets from filippov_map and krasovskii_map.  On a field where
    maps_follow_pattern holds both sets follow the sign pattern, so each
    distinct (pattern, z) pair, z compared bit for bit, is projected once
    and its two distances go to every atom with that pair; on any other
    field each atom is projected.  An atom that is not finite is refused
    with ValueError."""
    if not radius_tol > 0:
        raise ValueError(f"radius_tol must be > 0, got {radius_tol!r}")
    xs, zs = measure.xs, measure.zs
    if not (np.isfinite(xs).all() and np.isfinite(zs).all()):
        raise ValueError("graph_distances needs finite atoms")
    labels = field.sign_labels(xs, radius_tol)
    interior = np.all(labels != 0, axis=1)
    surface = np.flatnonzero(~interior)
    if surface.size == 0:
        interior = slice(None)  # indexes by a view, not a copy
    dist_f = np.empty(measure.n_atoms)
    # labels off '0' at radius_tol are evaluate's labels at zero_tol 0
    diff = field._evaluate_labeled(xs[interior], labels[interior])
    diff -= zs[interior]
    dist_f[interior] = _row_norms(diff)
    if surface.size == 0:
        return GraphDistances(dist_f, dist_f, measure.weights)
    dist_k = dist_f.copy()
    if maps_follow_pattern(field):
        bits = np.asarray(zs[surface], dtype=float).view(np.int64)
        _, first, inverse = np.unique(
            np.hstack([labels[surface], bits]), axis=0, return_index=True, return_inverse=True
        )
        rows = surface[first]
    else:
        rows, inverse = surface, np.arange(surface.size)
    fil, kra = np.empty(rows.size), np.empty(rows.size)
    for j, i in enumerate(rows.tolist()):
        fil[j] = filippov_map(field, xs[i], radius_tol).distance(zs[i])
        kra[j] = krasovskii_map(field, xs[i], radius_tol).distance(zs[i])
    dist_f[surface] = fil[inverse]
    dist_k[surface] = kra[inverse]
    return GraphDistances(dist_f, dist_k, measure.weights)


def graph_support_fraction(measure, field, eps, radius_tol=DEFAULT_RADIUS_TOL):
    """Total weight with dist(z, F(x)) <= eps, and the companion Krasovskii
    fraction: graph_distances thresholded at eps."""
    return graph_distances(measure, field, radius_tol).support(eps)


@dataclass
class MartingaleDiagnostic:
    """Noise-martingale partial sums per test member and coordinate,
    with the empirical quadratic-variation bound."""

    xi: np.ndarray  # (N+1, members, d)
    quadratic_variation: np.ndarray  # (N+1, members)

    @property
    def n_steps(self):
        return self.xi.shape[0] - 1

    def tail_oscillation(self, n0):
        """max_{n >= n0} |xi(n) - xi(n0)| per (member, coordinate)."""
        self._check_index(n0)
        # one contiguous row per (member, coordinate): a reduction over axis 0
        # of xi would run one short inner loop per step
        rows = self.xi.shape[0] - n0
        tail = np.ascontiguousarray(self.xi[n0:].reshape(rows, -1).T)
        tail -= tail[:, :1]
        np.abs(tail, out=tail)
        return tail.max(axis=1).reshape(self.xi.shape[1:])

    def tail_quadratic_variation(self, n0):
        self._check_index(n0)
        return self.quadratic_variation[-1] - self.quadratic_variation[n0]

    def _check_index(self, n0):
        if not _is_integer(n0):
            raise ValueError(f"n0 must be an integer, got {n0!r}")
        if not 0 <= n0 <= self.n_steps:
            raise IndexOutOfRange(f"n0 must be in [0, {self.n_steps}], got {n0!r}")


def martingale_diagnostic(trace, family):
    """Partial sums xi(n) = sum_{m<n} a(m) d_j f_i(x(m)) M_j(m+1) and the
    cumulative bound sum a(m)^2 |grad f_i(x(m))|^2 |M(m+1)|^2."""
    n, d = trace.noises.shape
    xs = trace.states[:n]
    xi = np.zeros((n + 1, len(family.members), d))
    qv = np.zeros((n + 1, len(family.members)))
    noise_sq = _row_sums(trace.noises**2)
    steps_sq = trace.steps**2
    for i, grads in enumerate(family.gradients(xs)):
        terms = trace.steps[:, None] * grads * trace.noises
        np.cumsum(terms, axis=0, out=xi[1:, i, :])
        qv_terms = steps_sq * _row_sums(grads**2) * noise_sq
        np.cumsum(qv_terms, out=qv[1:, i])
    return MartingaleDiagnostic(xi=xi, quadratic_variation=qv)


# ---------------------------------------------------------------------------
# decay study

@dataclass
class DecayTable:
    checkpoints: np.ndarray
    t_values: np.ndarray
    median_residuals: np.ndarray
    envelope: np.ndarray
    per_trace: np.ndarray  # (n_traces, n_checkpoints)

    def to_rows(self):
        rows = []
        for j in range(self.checkpoints.size):
            rows.append(
                {
                    "checkpoint_n": int(self.checkpoints[j]),
                    "t_n": float(self.t_values[j]),
                    "median_max_residual": float(self.median_residuals[j]),
                    "envelope": float(self.envelope[j]),
                }
            )
        return rows


def residual_decay_study(traces, family, checkpoints):
    """Max stationarity residual per checkpoint, median over traces, with
    the fitted C/t envelope anchored at the first checkpoint."""
    if len(traces) == 0:
        raise EmptyTrace("residual_decay_study needs at least one trace")
    checkpoints = _indices(checkpoints)
    if checkpoints.size == 0:
        raise ValueError("residual_decay_study needs at least one checkpoint")
    per_trace = np.empty((len(traces), checkpoints.size))
    for r, trace in enumerate(traces):
        per_trace[r] = np.max(np.abs(checkpoint_residuals(trace, family, checkpoints)), axis=1)
    medians = np.median(per_trace, axis=0)
    t_values = np.array([traces[0].times[int(n)] for n in checkpoints])
    c = medians[0] * t_values[0]
    return DecayTable(
        checkpoints=checkpoints,
        t_values=t_values,
        median_residuals=medians,
        envelope=c / t_values,
        per_trace=per_trace,
    )


# ---------------------------------------------------------------------------
# relaxed-control shadow

@dataclass
class VelocitySplit:
    mass_minus: float
    mass_plus: float
    split_fraction: float
    barycenter: np.ndarray


def velocity_mass_split(measure, state_radius):
    """Among atoms with |x| <= state_radius: the z-mass within _SPLIT_TOL of
    each of the _SPLIT_TARGETS velocities and the local z-barycenter."""
    sel = np.linalg.norm(measure.xs, axis=1) <= state_radius
    ws = measure.weights[sel]
    zs = measure.zs[sel]
    if ws.sum() <= 0:
        return VelocitySplit(0.0, 0.0, float("nan"), np.full(measure.dimension, np.nan))
    z_norm_signed = zs[:, 0] if measure.dimension == 1 else np.linalg.norm(zs, axis=1)
    mass_minus = float(ws[np.abs(z_norm_signed - _SPLIT_TARGETS[0]) <= _SPLIT_TOL].sum())
    mass_plus = float(ws[np.abs(z_norm_signed - _SPLIT_TARGETS[1]) <= _SPLIT_TOL].sum())
    total = mass_minus + mass_plus
    split = mass_minus / total if total > 0 else float("nan")
    barycenter = (ws @ zs) / ws.sum()
    return VelocitySplit(mass_minus, mass_plus, split, barycenter)
