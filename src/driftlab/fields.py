"""Piecewise-smooth vector fields and their set-valued regularizations.

A field is described by smooth scalar guards g_k and one smooth piece per
full sign pattern of the guards; values on the guard zero sets (Lebesgue-null)
may be assigned explicitly via ``boundary_values``.  The Filippov map at x is
the convex hull of the pieces of all positive-measure regions adjacent to x
(boundary values excluded); the Krasovskii map adds the boundary values
assigned within the adjacency ball.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegenerateGeometry, EmptySet, UnassignedPattern

DEFAULT_RADIUS_TOL = 1e-9
_CONE_TOL = 1e-12
_MAX_WOLFE_CYCLES = 100
_TABLE_GUARDS = 8  # evaluate_batch's code table has 3**k rows

_SIGN_CHARS = {1: "+", -1: "-", 0: "0"}


def _pattern_of_code(code, k):
    """The sign pattern of k guards whose base-3 digits, lowest first, are
    their sign_labels codes plus 1."""
    return "".join(_SIGN_CHARS[code // 3**i % 3 - 1] for i in range(k))


# ---------------------------------------------------------------------------
# guard catalog

class AffineGuard:
    """g(x) = a . x + b with a nonzero coefficient vector."""

    def __init__(self, a, b=0.0):
        self.a = _read_only(np.array(a, dtype=float))
        self.b = float(b)
        if self.a.ndim != 1 or not np.any(self.a):
            raise ValueError("affine guard needs a nonzero 1-d coefficient vector")

    # value and value_batch share one expression, so a point labels the same
    # way alone and in a batch (a BLAS matvec rounds differently from a dot)
    def value(self, x):
        return float((x * self.a).sum() + self.b)

    def value_batch(self, xs):
        return (xs * self.a).sum(axis=1) + self.b

    def gradient(self, x):
        return self.a


class CoordinateGuard(AffineGuard):
    """g(x) = x[index]; a named special case of the affine guard."""

    def __init__(self, index, dimension):
        index = operator.index(index)
        if not -dimension <= index < dimension:
            raise ValueError(f"coordinate index {index} is outside dimension {dimension}")
        a = np.zeros(dimension)
        a[index] = 1.0
        super().__init__(a, 0.0)
        self.index = int(index)

    def value(self, x):
        return float(x[self.index]) + 0.0

    def value_batch(self, xs):
        return xs[:, self.index] + 0.0


class NormGuard:
    """g(x) = ||x - center|| - radius (Euclidean)."""

    def __init__(self, center, radius):
        self.center = _read_only(np.array(center, dtype=float))
        self.radius = float(radius)

    def value(self, x):
        diff = x - self.center
        return float(np.sqrt((diff * diff).sum()) - self.radius)

    def value_batch(self, xs):
        diff = xs - self.center
        return np.sqrt((diff * diff).sum(axis=1)) - self.radius

    def gradient(self, x):
        diff = x - self.center
        nrm = np.linalg.norm(diff)
        if nrm < 1e-14:
            # non-differentiable at the center; callers special-case this
            return np.zeros_like(diff)
        return diff / nrm


# ---------------------------------------------------------------------------
# piece catalog

class ConstantPiece:
    def __init__(self, value):
        self.c = _read_only(np.array(value, dtype=float))

    def value(self, x):
        return self.c

    def value_batch(self, xs):
        return np.broadcast_to(self.c, (xs.shape[0], self.c.size)).copy()


class AffinePiece:
    """f(x) = A x + b."""

    def __init__(self, A, b=None):
        self.A = _read_only(np.atleast_2d(np.array(A, dtype=float)))
        self.b = _read_only(np.zeros(self.A.shape[0]) if b is None else np.array(b, dtype=float))

    def value(self, x):
        return self.A @ x + self.b

    def value_batch(self, xs):
        return xs @ self.A.T + self.b


class QuadraticPiece:
    """f_i(x) = x^T Q_i x + A_i . x + b_i, degree <= 2 per component."""

    def __init__(self, Q, A=None, b=None):
        self.Q = _read_only(np.array(Q, dtype=float))
        if self.Q.ndim != 3:
            raise ValueError(f"quadratic piece needs a (d_out, d, d) Q, not shape {self.Q.shape}")
        d_out, d = self.Q.shape[0], self.Q.shape[1]
        self.A = _read_only(np.zeros((d_out, d)) if A is None else np.atleast_2d(np.array(A, float)))
        self.b = _read_only(np.zeros(d_out) if b is None else np.array(b, dtype=float))

    def value(self, x):
        return np.einsum("ijk,j,k->i", self.Q, x, x) + self.A @ x + self.b

    def value_batch(self, xs):
        quad = np.einsum("ijk,nj,nk->ni", self.Q, xs, xs)
        return quad + xs @ self.A.T + self.b


# ---------------------------------------------------------------------------
# the field itself

@dataclass
class PiecewiseField:
    """A vector field on R^d with guard-delimited smooth pieces.

    ``pieces`` maps full sign patterns (strings over '+', '-') to catalog
    pieces; ``boundary_values`` maps degenerate patterns (at least one '0')
    to explicit vectors carried on the guard zero sets.  The field keeps
    guards as a tuple and both maps as read-only views of its own copies,
    so the sets the maps keep on it stay its own.
    """

    dimension: int
    guards: list = dc_field(default_factory=list)
    pieces: dict = dc_field(default_factory=dict)
    boundary_values: dict = dc_field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.guards = tuple(self.guards)
        self.pieces = types.MappingProxyType(dict(self.pieces))
        self.boundary_values = types.MappingProxyType(
            {k: _read_only(np.array(v, float)) for k, v in self.boundary_values.items()}
        )
        for pat in self.pieces:
            if len(pat) != len(self.guards) or not set(pat) <= set("+-"):
                raise ValueError(f"piece pattern {pat!r} is not a full sign pattern")
        for pat in self.boundary_values:
            if len(pat) != len(self.guards) or not set(pat) <= set("+-0"):
                raise ValueError(f"boundary pattern {pat!r} is not a sign pattern")
            if "0" not in pat:
                raise ValueError(f"boundary pattern {pat!r} must contain a '0' label")
        for k, guard in enumerate(self.guards):
            size = np.size(guard.center if isinstance(guard, NormGuard) else guard.a)
            if size != self.dimension:
                raise ValueError(f"guard {k} takes points of size {size}, not {self.dimension}")
        self._boundary_pieces = {k: ConstantPiece(v) for k, v in self.boundary_values.items()}
        # the sets the maps keep, by (map, pattern); None: decide at every point
        self._pattern_sets = {} if maps_follow_pattern(self) else None
        # a piece's value is a (d,) vector; its shape does not depend on x
        zero = np.zeros(self.dimension)
        for pat, piece in {**self.pieces, **self._boundary_pieces}.items():
            shape = np.shape(piece.value(zero))
            if shape != (self.dimension,):
                raise ValueError(
                    f"pattern {pat!r} has a value of shape {shape}, not ({self.dimension},)"
                )

    # -- sign patterns ------------------------------------------------------

    def sign_pattern(self, x, zero_tol=0.0):
        """Sign pattern of x; guards within zero_tol of 0 are labeled '0'."""
        # sa._walk (at zero_tol 0) and inclusion._walk_nodes (at DEFAULT_RADIUS_TOL)
        # number this rule inline for one guard, as codes -1, 0, 1 for "-0+";
        # a change to the rule must update all three
        chars = []
        for g in self.guards:
            v = g.value(x)
            if abs(v) <= zero_tol:
                chars.append("0")
            else:
                chars.append("+" if v > 0 else "-")
        return "".join(chars)

    def sign_labels(self, xs, zero_tol=0.0):
        """sign_pattern of every row of xs as int8 codes +1, -1 and 0,
        shape (rows, guards)."""
        gv = np.empty((xs.shape[0], len(self.guards)))
        for k, g in enumerate(self.guards):
            gv[:, k] = g.value_batch(xs)
        labels = 2 * (gv > 0).astype(np.int8) - 1
        labels[np.abs(gv) <= zero_tol] = 0
        return labels

    def piece_for(self, pattern):
        """The piece that carries a sign pattern: a full pattern's region
        piece, a boundary pattern's value, or, for a boundary pattern with no
        value, the adjacent piece with the lexicographically smallest pattern."""
        piece = self.pieces.get(pattern)
        if piece is None:
            piece = self._boundary_pieces.get(pattern)
        if piece is not None:
            return piece
        zero_slots = [i for i, c in enumerate(pattern) if c == "0"]
        # '+' < '-' in ASCII, so itertools.product over "+-" scans lexicographically
        for fill in itertools.product("+-", repeat=len(zero_slots)):
            cand = list(pattern)
            for slot, c in zip(zero_slots, fill):
                cand[slot] = c
            piece = self.pieces.get("".join(cand))
            if piece is not None:
                return piece
        raise UnassignedPattern(f"no piece assigned to sign pattern {pattern!r}")

    def is_piecewise_constant(self):
        """Is every piece a ConstantPiece? Boundary values always are, so the
        value then depends on x through its sign pattern alone."""
        return all(type(p) is ConstantPiece for p in self.pieces.values())

    def guard_table(self):
        """(column, table) when the field's one guard is a CoordinateGuard on
        that column, both region pieces are assigned and every piece is a
        ConstantPiece, else None.  Row code + 1 of the (3, d) table is the
        drift of sign code -1, 0 or +1; run_sa's table path and the tracking
        comparator's walk step on it."""
        if len(self.guards) != 1 or len(self.pieces) != 2 or not self.is_piecewise_constant():
            return None
        (guard,) = self.guards
        if type(guard) is not CoordinateGuard:
            return None
        # a ConstantPiece's value does not depend on x; boundary values are ConstantPieces
        table = np.array([self.piece_for(label).value(None) for label in "-0+"])
        return guard.index % self.dimension, table

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """The single vector h(x) as the field definition assigns it; piece_for
        gives the value rule on guard surfaces."""
        x = np.asarray(x, dtype=float)
        return np.array(self.piece_for(self.sign_pattern(x)).value(x), dtype=float)

    def evaluate_batch(self, xs):
        """evaluate() for every row of xs."""
        xs = np.asarray(xs, dtype=float)
        return self._evaluate_labeled(xs, self.sign_labels(xs))

    def _evaluate_labeled(self, xs, signs):
        """evaluate_batch(xs) from signs = sign_labels(xs), or from labels at
        any zero_tol of rows that none labels '0'.  A piecewise-constant field
        with at most _TABLE_GUARDS guards reads each row from a table indexed
        by sign code, whose rows are resolved only for the codes that occur;
        any other field takes one value_batch call per sign pattern."""
        k = len(self.guards)
        # digits signs + 1 keep the order of signs @ 3**i, so the first
        # unassigned pattern to raise is the same as on the per-pattern loop
        codes = np.einsum("ij,j->i", signs + 1, 3 ** np.arange(k))
        if k <= _TABLE_GUARDS and self.is_piecewise_constant():
            table = np.empty((3**k, self.dimension))
            for code in np.flatnonzero(np.bincount(codes, minlength=3**k)).tolist():
                table[code] = self.piece_for(_pattern_of_code(code, k)).value(None)
            return table.take(codes, axis=0)
        out = np.empty((xs.shape[0], self.dimension))
        for code in np.unique(codes).tolist():
            mask = codes == code
            out[mask] = self.piece_for(_pattern_of_code(code, k)).value_batch(xs[mask])
        return out

    # -- adjacency ----------------------------------------------------------

    def _local_geometry(self, x, radius_tol):
        """Sign pattern of x at radius_tol and the unit normal of each guard
        labeled '0' (None where the gradient vanishes)."""
        base = self.sign_pattern(x, radius_tol)
        normals = {}
        for k, c in enumerate(base):
            if c == "0":
                grad = np.asarray(self.guards[k].gradient(x), dtype=float)
                nrm = np.linalg.norm(grad)
                normals[k] = grad / nrm if nrm >= 1e-14 else None
        return base, normals

    @staticmethod
    def _is_adjacent(pattern, base, normals):
        """Does the carrier set of pattern meet the radius_tol-ball at the point?

        Decided to first order: inactive guards must keep their sign; the
        active ones must admit a direction u with n_k . u = 0 on '0' slots and
        on the labeled side of n_k elsewhere (exact for affine guards), so
        the strict ones are first projected off the span of the '0' ones.
        Where the normal vanishes (a norm guard at its center) only '+' and
        '0' are reachable.
        """
        equalities, strict = [], []
        for k, (c, b) in enumerate(zip(pattern, base)):
            if b != "0":
                if c != b:
                    return False
            elif normals[k] is None:
                if c == "-":
                    return False
            elif c == "0":
                equalities.append(normals[k])
            else:
                strict.append(normals[k] if c == "+" else -normals[k])
        if strict and equalities:
            eq, strict = np.array(equalities), np.array(strict)
            _, s, vt = np.linalg.svd(eq)
            span = vt[: int((s > s[0] * max(eq.shape) * np.finfo(float).eps).sum())]
            strict = strict - strict @ span.T @ span
        return _strict_cone_feasible(np.array(strict))

    def adjacent_patterns(self, x, radius_tol=DEFAULT_RADIUS_TOL):
        """Full sign patterns of positive-measure regions adjacent to x."""
        base, normals = self._local_geometry(np.asarray(x, dtype=float), radius_tol)
        active = list(normals)
        patterns = []
        for fill in itertools.product("+-", repeat=len(active)):
            cand = list(base)
            for k, c in zip(active, fill):
                cand[k] = c
            cand = "".join(cand)
            if self._is_adjacent(cand, base, normals):
                patterns.append(cand)
        return patterns

    def adjacent_boundary_patterns(self, x, radius_tol=DEFAULT_RADIUS_TOL):
        """Boundary patterns whose carrier set meets the radius_tol-ball at x."""
        if not self.boundary_values:
            return []
        base, normals = self._local_geometry(np.asarray(x, dtype=float), radius_tol)
        return [p for p in self.boundary_values if self._is_adjacent(p, base, normals)]


def _strict_cone_feasible(vectors):
    """Is there u with v . u > 0 for every v (rows)?  By Gordan's alternative,
    iff there are no vectors or conv{v} keeps more than _CONE_TOL from 0
    (a zero vector or an antiparallel pair puts 0 in it)."""
    if len(vectors) == 0:
        return True
    return _hull_project(vectors, np.zeros(vectors.shape[1]))[1] > _CONE_TOL


# ---------------------------------------------------------------------------
# finitely generated convex velocity sets

@dataclass
class ConvexVelocitySet:
    """Convex hull of finitely many velocity vectors (vertices may be
    redundant); its arrays are its own and read-only, so it can be shared."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = _read_only(np.atleast_2d(np.array(self.vertices, dtype=float)))
        if self.vertices.size == 0:
            raise EmptySet("a velocity set needs at least one vertex")
        # the vertices less any row within 1e-12 of an earlier one; project
        # works on these, and one row means the set is that single point
        self.distinct_vertices = _read_only(_dedupe_rows(self.vertices))

    @property
    def dimension(self):
        return self.vertices.shape[1]

    @functools.cached_property
    def least_norm(self):
        """The hull's element of least norm."""
        return _read_only(self.project(np.zeros(self.dimension))[0])

    def project(self, v):
        """Nearest point of the hull to v and its distance."""
        return _hull_project(self.distinct_vertices, np.asarray(v, dtype=float))

    def distance(self, v):
        return self.project(v)[1]

    def contains(self, v, tol=DEFAULT_RADIUS_TOL):
        """True iff v is within tol of the hull."""
        if not tol >= 0:  # NaN too
            raise ValueError("tol must be >= 0")
        return self.distance(v) <= tol


def _read_only(array):
    array.flags.writeable = False
    return array


def _is_integer(n):
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _dedupe_rows(rows, tol=1e-12):
    kept = []
    for r in rows:
        if not any(np.max(np.abs(r - k)) <= tol for k in kept):
            kept.append(r)
    return np.array(kept)


def _hull_project(verts, v):
    """Nearest point of conv(verts) to v and its distance.  One vertex is
    returned as it is and a 1-d hull is a clip to [min, max]; any other hull
    goes to _min_norm_point."""
    m, d = verts.shape
    if m == 1:
        return verts[0].copy(), float(_row_norms((v - verts[0])[None])[0])
    if d == 1:
        lo, hi = float(verts.min()), float(verts.max())
        p = min(max(float(v[0]), lo), hi)
        return np.array([p]), abs(float(v[0]) - p)
    return _min_norm_point(verts, v)


def _min_norm_point(verts, v):
    """Nearest point of conv(verts) to v and its distance, by Wolfe's
    minimum-norm-point algorithm (Math. Programming 11, 1976): a major cycle
    adds the vertex that most decreases the distance to the face, a minor
    cycle drops vertices until the face's affine nearest point has positive
    weights.  A face keeps its vertices w in index order, and its point is
    w[0] + coeff @ (w[1:] - w[0]) with coeff from the Gram system of
    w[1:] - w[0], so the result depends on the optimal face alone.  It runs
    on verts and v scaled by 2^-e (see _scale_exponent), so no squared norm
    overflows, and scales the point and the distance back."""
    e = _scale_exponent(verts, v)
    verts, v = np.ldexp(verts, -e), np.ldexp(v, -e)
    shifted = verts - v
    sq = np.einsum("ij,ij->i", shifted, shifted)
    face, lam = [int(sq.argmin())], np.ones(1)
    p = verts[face[0]].copy()
    for _ in range(_MAX_WOLFE_CYCLES):
        x = p - v
        dots = shifted @ x
        j = int(dots.argmin())
        if dots[j] > x @ x - 1e-12 * sq.max() or j in face:
            break
        face = sorted(face + [j])
        lam = np.insert(lam, face.index(j), 0.0)
        while len(face) > 1:
            w = verts[face]
            basis = w[1:] - w[0]
            gram, rhs = basis @ basis.T, basis @ (v - w[0])
            try:
                coeff = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                # a face that rounding made affinely dependent: any affine
                # minimizer will do, and the ratio step below drops a vertex
                coeff = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            mu = np.concatenate([[1.0 - coeff.sum()], coeff])
            if mu.min() > 0.0:
                lam, p = mu, w[0] + coeff @ basis
                break
            # step from lam toward mu until a weight reaches 0; drop it
            out = np.flatnonzero(mu <= 0.0)
            ratios = lam[out] / np.maximum(lam[out] - mu[out], np.finfo(float).tiny)
            lam = lam + ratios.min() * (mu - lam)
            keep = lam > 0.0
            keep[out[ratios.argmin()]] = False
            face, lam = [f for f, kept in zip(face, keep) if kept], lam[keep]
        else:
            lam, p = np.ones(1), verts[face[0]].copy()
    # v - p can be far below the scaled vertices, where its square
    # underflows: its norm is taken at its own scale
    diff = v - p
    f = _scale_exponent(diff)
    return np.ldexp(p, e), math.ldexp(float(np.linalg.norm(np.ldexp(diff, -f))), e + f)


def _row_norms(diffs):
    """Each row's Euclidean norm, taken on the row scaled by 2^-e with e its
    own _scale_exponent, so that no square of a tiny row underflows and no
    sum of a huge row's squares overflows.  It is the distance to a single
    vertex, of one atom in _hull_project and of every region-interior atom
    in measures.graph_distances."""
    # the max over a contiguous (d, rows) copy: a max over the short axis 1
    # would run one inner loop per row
    e = np.frexp(np.abs(np.ascontiguousarray(diffs.T)).max(axis=0))[1]
    scaled = np.ldexp(diffs, -e[:, None])
    return np.ldexp(np.sqrt(_row_sums(scaled * scaled)), e)


def _row_sums(a):
    """a summed over its last axis, the short coordinate axis.  Below 8
    entries numpy adds them in order from +0.0, but in one inner loop per
    row; here one add per column gives the same order and rounding.  From 8
    entries on numpy sums pairwise, and a.sum(axis=-1) is kept."""
    d = a.shape[-1]
    if d == 0 or d >= 8:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, d):
        out += a[..., j]
    return out


def _scale_exponent(*arrays):
    """The frexp exponent e of the largest |entry|, which 2^-e brings into
    [0.5, 1); 0 for zero, inf or nan.  Scaling by a power of two is exact,
    so a result computed on the scaled entries and scaled back is the
    unscaled one, except where an entry far below the largest underflows."""
    return math.frexp(max(float(np.abs(a).max()) for a in arrays))[1]


# ---------------------------------------------------------------------------
# set-valued maps

def filippov_map(field, x, radius_tol=DEFAULT_RADIUS_TOL):
    """Convex hull of adjacent positive-measure region values at x.

    Boundary values are excluded: they live on guard zero sets, which are
    Lebesgue-null for catalog fields.
    """
    return _pattern_set(field, _decide_filippov, x, radius_tol)


def krasovskii_map(field, x, radius_tol=DEFAULT_RADIUS_TOL):
    """filippov_map plus any boundary values assigned within the ball."""
    return _pattern_set(field, _decide_krasovskii, x, radius_tol)


def maps_follow_pattern(field):
    """Do filippov_map and krasovskii_map depend on x only through
    sign_pattern(x, radius_tol)? They do when every guard is affine, whose
    unit normal is the same everywhere, so that adjacency follows from the
    pattern alone, and every piece is constant."""
    return field.is_piecewise_constant() and all(
        type(g) in (AffineGuard, CoordinateGuard) for g in field.guards
    )


def _pattern_set(field, decide, x, radius_tol):
    """decide(field, x, radius_tol) at a finite x (ValueError elsewhere).
    Where maps_follow_pattern(field) holds, the set decided at the first
    point of each sign_pattern(x, radius_tol) is kept on the field and
    returned at every later point with it: nothing changes a field after
    construction, and the set is read-only."""
    if not radius_tol > 0:  # NaN too
        raise ValueError("radius_tol must be > 0")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():  # NaN would label '-', and inf * 0 is NaN
        raise ValueError(f"x must be finite, got {x.tolist()}")
    sets = field._pattern_sets
    if sets is None:
        return decide(field, x, radius_tol)
    key = decide, field.sign_pattern(x, radius_tol)
    if key not in sets:
        sets[key] = decide(field, x, radius_tol)
    return sets[key]


def _decide_filippov(field, x, radius_tol):
    values = [field.piece_for(p).value(x) for p in field.adjacent_patterns(x, radius_tol)]
    return ConvexVelocitySet(values)


def _decide_krasovskii(field, x, radius_tol):
    fil = filippov_map(field, x, radius_tol)
    extra = [field.boundary_values[p] for p in field.adjacent_boundary_patterns(x, radius_tol)]
    return ConvexVelocitySet(np.vstack([fil.vertices, *extra])) if extra else fil


def mollify(field, x, delta, samples, rng):
    """Monte-Carlo estimate of the field smoothed by a bump of radius delta.

    Draws from the normalized smooth bump supported in the delta-ball
    (rejection from the uniform ball) and averages evaluate; draws that
    land on a boundary pattern are redrawn.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not _is_integer(samples) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    x = np.asarray(x, dtype=float)
    d = field.dimension
    total = np.zeros(d)
    got = 0
    attempts = 0
    max_attempts = 1000 * samples + 1000
    while got < samples:
        attempts += 1
        if attempts > max_attempts:
            raise DegenerateGeometry("mollify could not draw off-boundary samples")
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        r = rng.random() ** (1.0 / d)
        point = u * r  # uniform in the unit ball
        # bump density exp(-1/(1-r^2)) / normalizer; rejection against uniform
        if rng.random() > np.exp(1.0 - 1.0 / (1.0 - r * r)):
            continue
        y = x + delta * point
        if "0" in field.sign_pattern(y):
            continue
        total += field.evaluate(y)
        got += 1
    return total / samples


# ---------------------------------------------------------------------------
# built-in catalog

def builtin_field(name, dimension=None):
    """Named fields used by the demos and the test suite; a given dimension
    (used by "linear") must be an integer >= 1."""
    if dimension is not None and (not _is_integer(dimension) or dimension < 1):
        raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
    if name == "example1":
        return PiecewiseField(
            dimension=2,
            guards=[CoordinateGuard(1, 2)],
            pieces={"+": ConstantPiece([1.0, -1.0]), "-": ConstantPiece([1.0, 1.0])},
            boundary_values={"0": [-1.0, 0.0]},
            name="example1",
        )
    if name == "relay":
        return PiecewiseField(
            dimension=1,
            guards=[CoordinateGuard(0, 1)],
            pieces={"+": ConstantPiece([-1.0]), "-": ConstantPiece([1.0])},
            boundary_values={"0": [0.0]},
            name="relay",
        )
    if name == "spurious_equilibrium":
        return PiecewiseField(
            dimension=1,
            guards=[CoordinateGuard(0, 1)],
            pieces={"+": ConstantPiece([1.0]), "-": ConstantPiece([1.0])},
            boundary_values={"0": [0.0]},
            name="spurious_equilibrium",
        )
    if name == "linear":
        d = 1 if dimension is None else dimension
        return PiecewiseField(
            dimension=d,
            guards=[],
            pieces={"": AffinePiece(-np.eye(d))},
            name="linear",
        )
    raise ValueError(f"unknown built-in field {name!r}")


BUILTIN_FIELDS = ("example1", "relay", "spurious_equilibrium", "linear")
