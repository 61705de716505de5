"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet stores the Taylor coefficients (partial derivatives divided by
multi-index factorials) of a scalar function at a basepoint, truncated at a
fixed total degree.  All arithmetic is exact at the stored order, so every
derivative the engine consumes downstream (Christoffel symbols, curvature,
exterior derivatives, Nijenhuis tensors) is a coefficient extraction, never a
finite difference.

Coefficients sit in a dense float64 array indexed by graded-lexicographic
multi-index order, degrees <= k first.  The per-(num_vars, order) index
tables are cached in a JetAlgebra; multiplication is a precomputed sparse
convolution, and every kernel runs in one pass at its algebra's full
order, in few numpy calls: a shortcut (products with constants, a zero
exponent, the two pairs (0, k), (k, 0) of coefficient k at order 1,
coordinate seeds in a composition) is taken where it is bitwise the full
sum, and not where a non-finite value would tell them apart.  An algebra
may keep only the monomials of degree <= D in the variables after the first, T:
algebra(n, k, D) holds T-line jets (D = 0: pure T), a downward-closed list
whose pair tables are the full ones filtered, in order, so every kernel
sums each kept coefficient as the full algebra does; D >= k is
algebra(n, k).  One kernel, polynomial, evaluates sum_m C[..., m] x^m on
jets: each power is built once, x^m = x^(m - e_h) x_h for the highest
variable h of m, and terms are summed in list order.
Composition (compose_stacked) is the polynomial of the shifted inner jets,
to order D when no inner jet has a pure-T coefficient (composed_order; the
terms above D then add exact zeros).

Components leave a formula as one stacked float array: stack turns the
nested scalars a component formula computes into shape (..., S), S Taylor
coefficients per component (or (...) for plain floats), and every kernel
downstream (JetAlgebra.contract, eval_shift, compose_stacked) works on that
layout.  The scalar Jet and its arithmetic serve the formulas themselves.

One optional batch axis serves many basepoints at once: seed_point of a
(B, dim) point array seeds jets whose coefficients have shape (B, S), and a
stacked component array is then tensor axes + (B, S).  The batch axis sits
between the tensor axes and the coefficient axis, so every gather on the
last axis, every contraction over the leading tensor axes and every
front-anchored transpose reads a batch as it reads one point.  Row by row,
mul, contract, eval_shift (one shift per row), the Jet arithmetic and the
series helpers do the arithmetic of one point, in the same order (the
series coefficients of all rows come at once from per-element libm calls
and the same float operations; contract adds the terms of a summed tensor
index one by one), so their rows are bitwise the single-point results.
A number or an array of the jet's batch shape (one value per row) is the
only non-Jet operand of the Jet arithmetic.

The elementary-function helpers (sin, cos, sqrt, powc) dispatch on type so the
same component code can run on plain floats, which is what the independent
finite-difference oracles in the test suite rely on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "JetAlgebra",
    "algebra",
    "compose",
    "compose_stacked",
    "composed_order",
    "polynomial",
    "stack",
    "scale",
    "seed_point",
    "base_point",
    "reseed",
    "sin",
    "cos",
    "sqrt",
    "powc",
]


class JetError(ValueError):
    pass


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Exponent tuples of `parts` entries summing to total, lexicographically
    descending."""
    if parts == 1:
        return [(total,)]
    return [(k,) + rest for k in range(total, -1, -1)
            for rest in _compositions(total - k, parts - 1)]


def _monomials(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= order, graded-lex order."""
    return [m for deg in range(order + 1) for m in _compositions(deg, num_vars)]


class JetAlgebra:
    """Cached index tables for jets of a fixed (num_vars, order, D)."""

    def __init__(self, num_vars: int, order: int, transverse: int | None = None):
        self.transverse = D = order if transverse is None else transverse
        if num_vars < 1 or order < 0 or D < 0:
            raise JetError(f"invalid jet shape ({num_vars}, {order}, D={D})")
        self.num_vars = num_vars
        self.order = order
        self.monomials = [m for m in _monomials(num_vars, order) if sum(m[1:]) <= D]
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.degree = np.array([sum(m) for m in self.monomials])
        across = self.degree - np.array([m[0] for m in self.monomials])
        self.pure_t = np.flatnonzero(across == 0)  # T^0, T^1, ..., T^order

        # Sparse convolution table: coefficient k of a*b accumulates a[i]*b[j]
        # over all monomial pairs with m_i + m_j = m_k.  Pairs are stored
        # symmetrized (i < j handled as a[i]b[j] + a[j]b[i]) so that a*b and
        # b*a produce bitwise-identical coefficient arrays.  Pairs i <= j
        # run row by row, j up to the last monomial of degree order - |m_i|;
        # m_k is found by its base-(order + 1) code (no exponent of m_i + m_j
        # exceeds order, so codes add), sorted by the sort used below.  Pairs
        # whose transverse degrees add past D are dropped (see the module doc).
        ends = np.searchsorted(self.degree, order - self.degree, side="right")
        counts = np.maximum(ends - np.arange(self.size), 0)
        i = np.repeat(np.arange(self.size), counts)
        j = i + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        kept = across[i] + across[j] <= D
        i, j = i[kept], j[kept]
        self._exponents = np.array(self.monomials).T  # one column per variable
        self._shifted = [(i, e) for i, e in enumerate(self._exponents)
                         if e.any() or not i]  # see eval_shift
        code = np.ravel_multi_index(self._exponents, (order + 1,) * num_vars)
        by_code = np.argsort(code, kind="stable")
        k = by_code[np.searchsorted(code, code[i] + code[j], sorter=by_code)]
        square = i == j
        self._mul_i, self._mul_j, self._mul_k = i[~square], j[~square], k[~square]
        self._mul_d, self._mul_kd = i[square], k[square]

        # The same pairs unsymmetrized (both orders of each i < j pair),
        # grouped by target coefficient for the stacked contraction.
        K = np.concatenate([self._mul_k, self._mul_k, self._mul_kd])
        by_k = np.argsort(K, kind="stable")
        self._pair_i = np.concatenate([self._mul_i, self._mul_j, self._mul_d])[by_k]
        self._pair_j = np.concatenate([self._mul_j, self._mul_i, self._mul_d])[by_k]
        self._pair_start = np.searchsorted(K[by_k], np.arange(self.size))

        # mul: pairs, squares, the pairs swapped; targets of the first two,
        # offset by S * row so that one bincount sums every row.
        self._gather_a = np.concatenate([self._mul_i, self._mul_d, self._mul_j])
        self._gather_b = np.concatenate([self._mul_j, self._mul_d, self._mul_i])
        self._row_k = np.concatenate([self._mul_k, self._mul_kd])
        self._by_target = np.argsort(self._row_k)  # at order <= 1, one each
        self._plans: dict = {}  # product shape -> targets

        # Derivative table into the lower algebra (order - 1, D - 1): per
        # axis a and lower monomial m, the index of m + e_a (_grad_src) and
        # its exponent of a (_grad_fac), so d_a of a jet is one gather and
        # product.  At D = 0 only T has a row, into (order - 1, 0).
        if order >= 1:
            self.lower = lower = algebra(num_vars, order - 1, max(D - 1, 0))
            axes = num_vars if D else 1
            self._grad_src = np.array(
                [[self.index[m[:a] + (m[a] + 1,) + m[a + 1:]] for m in lower.monomials]
                 for a in range(axes)], dtype=np.intp)
            self._grad_fac = np.array(lower.monomials, dtype=np.float64).T[:axes] + 1.0

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.order == 0:  # one coefficient: the bincount adds a * b to 0.0
            return a * b
        return self._mul_rows(a, b)

    def _mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """mul of (S,) or batched (..., S) operands, broadcast: one gather
        per operand and one product give the pair products a_i b_j, the
        squares and the swapped a_j b_i, and w = a_i b_j + a_j b_i as with
        a gather per term.  One bincount over the targets k + S * row, made
        once per product shape, sums each row's pairs, then its squares, in
        table order from 0.0 (each target has the pair (constant, m_k), so
        there are rows * S of them); at order 1 each target has one."""
        w = a[..., self._gather_a] * b[..., self._gather_b]
        n = self._row_k.size
        w[..., :self._mul_k.size] += w[..., n:]
        if self.order == 1:  # w = a0 b_k + a_k b0, plus 0.0 as in the bincount
            return w[..., self._by_target] + 0.0
        targets = self._plans.get(w.shape)
        if targets is None:
            rows = w.size // w.shape[-1]
            targets = self._plans[w.shape] = (
                self._row_k + self.size * np.arange(rows)[:, None]).ravel()
        return np.bincount(targets, weights=w[..., :n].ravel()).reshape(
            w.shape[:-1] + (self.size,))

    def contract(self, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of stacked jet tensors (coefficients on the last
        axis) summed by an einsum spec over the tensor axes: "ij,jk->ik" is
        the jet matrix product.  Batch axes, between the tensor axes and the
        coefficients, are carried along (broadcast).

        A summed tensor index is reduced in one order for one point and for
        each row of a batch, so batched rows are bitwise the single-point
        results.  The einsum runs on contiguous pair gathers: their
        trailing (batch and) pair axes are its innermost loop, and the
        summed index is added term by term.  At order 0 there is one pair,
        and for one point the summed index itself is the innermost loop;
        a batch is then laid out rows first so that each row is reduced
        that way too.  One reduceat sums each target's pairs in table
        order; each target has the pair (constant, m_k).  At order 1 its
        pairs (0, k) and (k, 0) are two einsums (pair axes >= 2 long)
        added, if finite.  The parse, cached per ndims (_contract_plan),
        only names axes: no float op changes."""
        spec, at, bt, outt = _contract_plan(spec, a.ndim, b.ndim, not self.order)
        if at is not None:
            out = np.einsum(spec, np.ascontiguousarray(a[..., 0].transpose(at)),
                            np.ascontiguousarray(b[..., 0].transpose(bt)))
            return out.transpose(outt)[..., None]
        if self.order == 1:  # pairs (0, k), then (k, 0) for k > 0
            lead, c = np.zeros(self.size, np.intp), np.ascontiguousarray
            out = np.einsum(spec, c(a[..., lead]), c(b))
            swapped = np.einsum(spec, c(a), c(b[..., lead]))
            swapped[..., 0] = -0.0  # x + -0.0 is x: (0, 0) is counted once
            out += swapped
            if np.isfinite(out).all():
                return out
        prods = np.einsum(spec, a.take(self._pair_i, axis=-1),
                          b.take(self._pair_j, axis=-1))
        return np.add.reduceat(prods, self._pair_start, axis=-1)

    def eval_shift(self, C: np.ndarray, delta) -> np.ndarray:
        """Evaluate a stack C[..., :] of Taylor polynomials at basepoint +
        delta: one shift (dim,), or one per batch row (B, dim) for C of
        shape (..., B, S).  Each coefficient is multiplied by the powers
        delta_i ** e of its monomial in variable order (for the variables
        with a nonzero exponent, T alone at D = 0, and T always: a zero
        exponent multiplies by 1.0, which changes nothing), zero weights
        included, so an infinite coefficient gives NaN; the monomials are
        then summed one at a time in graded-lex order by a cumulative sum
        plus 0.0, as from 0.0 (either turns only a -0.0 total into 0.0).
        A row's result is bitwise that of its own shift."""
        delta = np.asarray(delta, dtype=float)
        terms = C
        for i, exps in self._shifted:
            d = delta[..., i]
            powers = np.stack([np.ones_like(d)] + [
                d ** e for e in range(1, self.order + 1)], axis=-1)
            terms = terms * powers[..., exps]
        return np.cumsum(terms, axis=-1)[..., -1] + 0.0


@lru_cache(maxsize=None)
def _contract_plan(spec: str, a_ndim: int, b_ndim: int, order0: bool) -> tuple:
    """(einsum spec, a's, b's and the result's axis orders) of contract:
    the orders lay a batch out rows first at order 0 and back, else None."""
    operands, result = spec.split("->")
    sa, sb = operands.split(",")
    ba = 0 if "..." in spec else a_ndim - len(sa) - 1
    bb = 0 if "..." in spec else b_ndim - len(sb) - 1
    if order0 and (ba or bb):
        rows = max(ba, bb)
        return (f"...{sa},...{sb}->...{result}",
                (*range(len(sa), a_ndim - 1), *range(len(sa))),
                (*range(len(sb), b_ndim - 1), *range(len(sb))),
                (*range(rows, rows + len(result)), *range(rows)))
    if ba or bb:
        sa, sb, result = sa + "...", sb + "...", result + "..."
    return f"{sa}z,{sb}z->{result}z", None, None, None


@lru_cache(maxsize=None)  # one object per (num_vars, order, D) is _algebra's
def algebra(num_vars: int, order: int, transverse: int | None = None) -> JetAlgebra:
    """The cached algebra; a bound D >= order (or None) gives the full one."""
    return _algebra(num_vars, order,
                    order if transverse is None else min(transverse, order))


@lru_cache(maxsize=None)
def _algebra(num_vars: int, order: int, transverse: int) -> JetAlgebra:
    return JetAlgebra(num_vars, order, transverse)


class Jet:
    """Immutable truncated Taylor polynomial of a scalar at a basepoint, or
    at each row of a batch of basepoints (coefficients batch + (S,))."""

    __slots__ = ("alg", "c")
    __array_ufunc__ = None  # ndarray (op) Jet defers to the Jet's operand rule

    def __init__(self, alg: JetAlgebra, coeffs: np.ndarray):
        self.alg = alg
        self.c = coeffs

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        """The value: a float, or an array over the batch rows."""
        return float(self.c[0]) if self.c.ndim == 1 else self.c[..., 0]

    @property
    def num_vars(self) -> int:
        return self.alg.num_vars

    @property
    def order(self) -> int:
        return self.alg.order

    # -- structure ---------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.alg is not other.alg:
            a, b = self.alg, other.alg
            raise JetError(
                f"jet shape mismatch: ({a.num_vars},{a.order},D={a.transverse}) "
                f"vs ({b.num_vars},{b.order},D={b.transverse})")

    def _operand(self, other):
        """A non-Jet operand, checked: a number, or an array of this jet's
        batch shape (one value per row).  Anything else, a stacked
        component array in particular, raises TypeError."""
        if type(other) is float or isinstance(other, (int, np.number)):
            return other
        if isinstance(other, np.ndarray) and other.shape == self.c.shape[:-1]:
            return other
        raise TypeError(
            f"jet operand must be a Jet, a number or an array of shape "
            f"{self.c.shape[:-1]}, not {type(other).__name__} of shape "
            f"{np.shape(other)}")

    def _rows(self, other):
        """other, checked, broadcast over the coefficient axis."""
        other = self._operand(other)
        return other[..., None] if isinstance(other, np.ndarray) else other

    def truncate(self, order: int) -> "Jet":
        """The jet to a lower order, its transverse bound kept (capped)."""
        if order == self.order:
            return self
        if order > self.order:
            raise JetError("cannot extend a jet to higher order")
        alg = algebra(self.num_vars, order, self.alg.transverse)
        return Jet(alg, self.c[..., :alg.size].copy())

    def deriv(self, axis: int) -> "Jet":
        """Partial derivative along one axis, one order lower and one
        transverse degree lower: the gather of JetAlgebra's derivative
        table that fields._grad makes for every axis."""
        if self.order < 1:
            raise JetError("jet order exhausted: cannot differentiate order-0 jet")
        if axis and not self.alg.transverse:
            raise JetError(f"no derivative along transverse axis {axis} of a "
                           "jet with transverse bound D = 0")
        alg = self.alg
        return Jet(alg.lower, self.c[..., alg._grad_src[axis]] * alg._grad_fac[axis])

    def eval_shift(self, delta):
        """Evaluate the Taylor polynomial at basepoint + delta: a float, or
        an array over the batch rows."""
        v = self.alg.eval_shift(self.c, delta)
        return float(v) if v.ndim == 0 else v

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.alg, self.c + other.c)
        other = self._operand(other)
        c = self.c.copy()
        c[_coeff(c, 0)] += other
        return Jet(self.alg, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.alg, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.alg, self.c - other.c)
        other = self._operand(other)
        c = self.c.copy()
        c[_coeff(c, 0)] -= other
        return Jet(self.alg, c)

    def __rsub__(self, other):
        other = self._operand(other)
        c = -self.c
        c[_coeff(c, 0)] += other
        return Jet(self.alg, c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.alg, self.alg.mul(self.c, other.c))
        return Jet(self.alg, self.c * self._rows(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.alg, self.c / self._rows(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int):
            if p < 0:
                return self._reciprocal() ** (-p)
            out = Jet(self.alg, np.zeros(self.c.shape))
            out.c[_coeff(out.c, 0)] = 1.0
            base = self
            k = p
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        return powc(self, float(p))

    def _reciprocal(self) -> "Jet":
        def coeffs(values):
            if 0.0 in values:
                raise ZeroDivisionError("division by jet with zero constant term")
            powers = _powers(values, range(1, self.order + 2))
            return _signs(self.order + 1) / _nonzero(powers)
        return _series(self, coeffs)


def _coeff(c: np.ndarray, k):
    """Index of coefficient(s) k of the jet coefficients c: k itself for a
    single jet (numpy's fast path), (..., k) for a batch."""
    return k if c.ndim == 1 else (Ellipsis, k)


def _apply_series(u: Jet, coeffs) -> Jet:
    """Compose the univariate series sum(coeffs[k] * (u - u0)^k) with u by
    Horner's loop; each coefficient is a float, or an array of u's batch
    shape.  Past order 0 the first product, constant jet c_K times du, is
    the scale c_K du + 0.0 when du is finite: each target k of mul sums,
    from 0.0, c_K du_k + 0.0 du_0 and terms 0.0 du_j = +-0.0."""
    du = u.c.copy()
    du[_coeff(du, 0)] = 0.0
    out = np.zeros(u.c.shape)
    out[_coeff(out, 0)] = coeffs[-1]
    steps = list(coeffs[-2::-1])
    if steps and u.order and np.isfinite(du).all():
        out = out[..., :1] * du + 0.0
        out[_coeff(out, 0)] += steps.pop(0)
    for c in steps:
        out = u.alg.mul(out, du)
        out[_coeff(out, 0)] += c
    return Jet(u.alg, out)


def _series(u: Jet, coeffs_of) -> Jet:
    """Apply the series whose coefficients coeffs_of(values) gives as one
    (K, rows) array at the list of u's float values, one per row in ravel
    order (one for a single point).  Each coefficient is made for all rows
    at once from per-element libm calls (math.sin(v), v ** e) and numpy
    arithmetic, so a row gets bitwise the coefficients of its own point.
    If the batch raises, the rows are tried one by one, so that the error
    is the one of the first offending row, as for a loop over points."""
    u0 = u.value
    values = [u0] if isinstance(u0, float) else u0.ravel().tolist()
    try:
        coeffs = coeffs_of(values)
    except (ArithmeticError, ValueError):
        for v in values:
            coeffs_of([v])
        raise
    return _apply_series(u, list(coeffs.reshape((-1,) + np.shape(u0))))


def _powers(values, exponents) -> np.ndarray:
    """(len(exponents), rows) array of v ** e, each Python's float power."""
    return np.array([[v ** e for v in values] for e in exponents],
                    dtype=float).reshape(len(exponents), len(values))


def _signs(count: int) -> np.ndarray:
    """(-1) ** k for k < count, as a column against (count, rows)."""
    return np.where(np.arange(count) % 2, -1.0, 1.0)[:, None]


def _factorials(count: int) -> np.ndarray:
    """k! for k < count, as a column against (count, rows)."""
    return np.array([float(math.factorial(k)) for k in range(count)])[:, None]


def _nonzero(divisors: np.ndarray) -> np.ndarray:
    """divisors, raising as Python's float division by zero would."""
    if not divisors.all():
        raise ZeroDivisionError("float division by zero")
    return divisors


def _positive(values, message: str):
    """Raise JetError(message + the first value <= 0) if there is one."""
    bad = [v for v in values if v <= 0]
    if bad:
        raise JetError(f"{message} {bad[0]}")


# -- elementary functions (float / Jet dispatch) ---------------------------

def _cycle(values, start: int, count: int) -> np.ndarray:
    """The Taylor coefficients d^k/dx^k (sin, cos, -sin, -cos)[start] / k!
    for k < count at each value."""
    s = np.array([math.sin(v) for v in values])
    c = np.array([math.cos(v) for v in values])
    cycle = [s, c, -s, -c]
    return (np.array([cycle[(start + k) % 4] for k in range(count)])
            / _factorials(count))


def sin(x):
    if not isinstance(x, Jet):
        return math.sin(x)
    return _series(x, lambda values: _cycle(values, 0, x.order + 1))


def cos(x):
    if not isinstance(x, Jet):
        return math.cos(x)
    return _series(x, lambda values: _cycle(values, 1, x.order + 1))


def sqrt(x):
    return powc(x, 0.5)


def powc(x, p: float):
    """x ** p for constant real p."""
    if not isinstance(x, Jet):
        return float(x) ** p

    def coeffs(values):
        _positive(values, "powc needs positive value, got")
        binom = [1.0]
        for k in range(x.order):
            binom.append(binom[-1] * ((p - k) / (k + 1)))
        return (np.array(binom)[:, None]
                * _powers(values, [p - k for k in range(x.order + 1)]))
    return _series(x, coeffs)


def stack(comps) -> np.ndarray:
    """Nested lists (or an object array) of Jets of one algebra as one
    (..., S) float array of their coefficients, (..., B, S) for jets over a
    batch of B points; nested floats as a (...) float array."""
    arr = np.asarray(comps, dtype=object)
    items = arr.ravel()
    if isinstance(items[0], Jet):
        return np.array([x.c for x in items]).reshape(arr.shape + items[0].c.shape)
    return arr.astype(float)


def scale(s, A: np.ndarray) -> np.ndarray:
    """The scalar s times every component of A: the truncated product with
    each (..., S) component for a Jet s (row by row for a batch), plain
    multiplication for a float."""
    return s.alg.contract("...,...->...", s.c, A) if isinstance(s, Jet) else s * A


def seed_point(point, order: int, transverse: int | None = None) -> list[Jet]:
    """Seed one jet variable per coordinate of a point (dim,), or of every
    point of a batch (B, dim): the jets' coefficients then have shape
    (B, S).  A transverse bound D seeds T-line jets.  Coordinate i is row i
    of one array: its value, 1.0 in its degree-1 slot 1 + i, zeros."""
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    alg = algebra(n, order, transverse)
    c = np.zeros((n,) + point.shape[:-1] + (alg.size,))
    c[..., 0] = point.transpose(-1, *range(point.ndim - 1))
    for i in range(n if alg.transverse else min(order, 1)):  # T's only at D = 0
        c[i, ..., 1 + i] = 1.0
    return [Jet(alg, x) for x in c]


def base_point(coords) -> np.ndarray:
    """The basepoint of coordinate jets, (dim,) or (B, dim): their values
    copied in one array, the coordinate axis moved last by a transpose."""
    values = np.array([x.c[..., 0] for x in coords])
    return values.transpose(*range(1, values.ndim), 0)


def reseed(coords, order: int, transverse: int | None = None) -> list[Jet]:
    """Coordinate jets at the basepoint of coords, seeded at another order
    (and transverse bound)."""
    return seed_point(base_point(coords), order, transverse)


def compose(f: Jet, inner: list[Jet]) -> Jet:
    """Truncated composition: substitute inner jets into f's polynomial.

    inner[i].value must equal the i-th coordinate of f's basepoint; the
    result is the jet of f(g(y)) in the inner variables.  Serves the
    kernel benchmarks of perfbench/micro.py and perfbench/tracing.py.
    """
    if len(inner) != f.num_vars:
        raise JetError("compose: wrong number of inner jets")
    order = min(f.order, inner[0].order)
    inner = [g.truncate(order) for g in inner]
    return Jet(inner[0].alg, compose_stacked(f.c, inner))


def composed_order(inner: list[Jet]) -> int:
    """compose_stacked's order: the bound D of inner's algebra if no inner
    jet has a nonzero pure-T coefficient T^j, j >= 1, else its order."""
    alg = inner[0].alg
    with_t = any(np.any(g.c[..., alg.pure_t[1:]]) for g in inner)
    return alg.order if with_t else alg.transverse


def compose_stacked(F: np.ndarray, inner: list[Jet]) -> np.ndarray:
    """compose for a stack F[..., :] of jets in len(inner) variables, of
    order at least composed_order(inner): the polynomial of the
    dg_i = g_i - g_i.value on the monomials of that order; for finite F and
    seeds on increasing axes (or order 0) every power is one monomial, so
    it is F's coefficients plus 0.0, each in its monomial's slot."""
    alg, table = inner[0].alg, algebra(len(inner), composed_order(inner))
    if F.shape[-1] < table.size:
        raise JetError("compose: outer jets below the composed order")
    axes = _seed_axes(alg, inner) if table.order else ()
    if axes is not None and np.isfinite(F[..., :table.size]).all():
        src, dst = _embedding(alg, table, axes)
        out = np.zeros(np.broadcast(F[..., 0], inner[0].c[..., 0]).shape + (alg.size,))
        out[..., dst] = F[..., src] + 0.0
        return out
    dgs = [np.where(np.arange(g.alg.size) == 0, 0.0, g.c) for g in inner]
    return polynomial(alg, table.monomials, F, dgs)


def _seed_axes(alg: JetAlgebra, inner: list[Jet]):
    """The increasing axes of inner jets that are coordinate seeds (1.0 in
    a degree-1 slot, zeros past the constant), else None."""
    dg = np.array([g.c for g in inner]).reshape(len(inner), -1, alg.size)[..., 1:]
    hot = (dg[:, 0].argmax(axis=-1) + 1).tolist() if dg.shape[1] else [0]
    axes = [alg.monomials[h].index(1) if alg.degree[h] == 1 else -1 for h in hot]
    seeds = np.eye(alg.size)[hot, None, 1:]
    ok = axes[0] >= 0 and axes == sorted(set(axes)) and (dg == seeds).all()
    return tuple(axes) if ok else None


@lru_cache(maxsize=None)
def _embedding(alg: JetAlgebra, table: JetAlgebra, axes: tuple) -> tuple:
    """(src, dst): the columns of table's monomials, in variables
    x_i = y_axes[i], that alg keeps, and their slots in alg."""
    slots = [alg.index.get(tuple(dict(zip(axes, m)).get(a, 0)
                                 for a in range(alg.num_vars)))
             for m in table.monomials]
    src = [col for col, k in enumerate(slots) if k is not None]
    return np.array(src, dtype=np.intp), np.array([slots[c] for c in src], np.intp)


def polynomial(alg: JetAlgebra, monomials: list, C: np.ndarray,
               xs: list) -> np.ndarray:
    """sum_m C[..., m] x^monomials[m] over stacked jets xs of alg, one (S,)
    or (..., S) array per variable, by the power rule of the module doc;
    each column C[..., m] broadcasts against the powers."""
    powers = {m: np.eye(1, alg.size)[0] for m in monomials if not any(m)}
    out = np.zeros(np.broadcast_shapes(C.shape[:-1], xs[0].shape[:-1]) + (alg.size,))
    for col, m in enumerate(monomials):
        out += C[..., col, None] * _power(alg, xs, powers, m)
    return out


def _power(alg: JetAlgebra, xs: list, powers: dict, m: tuple) -> np.ndarray:
    """x^m, kept in powers: x^(m - e_h) x_h, h the highest variable of m."""
    if m not in powers:
        h = max(i for i, e in enumerate(m) if e)
        head = m[:h] + (m[h] - 1,) + m[h + 1:]
        powers[m] = xs[h] if not any(head) else alg.mul(
            _power(alg, xs, powers, head), xs[h])
    return powers[m]
