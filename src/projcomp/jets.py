"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet stores the Taylor coefficients (partial derivatives divided by
multi-index factorials) of a scalar function at a basepoint, truncated at a
fixed total degree.  All arithmetic is exact at the stored order, so every
derivative the engine consumes downstream (Christoffel symbols, curvature,
exterior derivatives, Nijenhuis tensors) is a coefficient extraction, never a
finite difference.

Coefficients sit in a dense float64 array indexed by graded-lexicographic
multi-index order.  The per-(num_vars, order) index tables are cached in a
JetAlgebra; multiplication is a precomputed sparse convolution.  Degrees
<= k come first, and the order-k pair tables are the full ones filtered, in
order: a step whose result matters only to degree k (a Neumann lift step, a
Horner product) runs in algebra(n, k) on that prefix, summing each
coefficient as the full-order step does.
Composition substitutes inner jets into a stack of outer jets with one
monomial table (compose_stacked), in the arithmetic order of one jet.

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
series coefficients come per row from the same float formulas; contract
adds the terms of a summed tensor index one by one), so their rows are
bitwise the single-point results.  A number or an array of the jet's batch shape
(one value per row) is the only non-Jet operand of the Jet arithmetic.

The elementary-function helpers (sin, cos, exp, ...) dispatch on type so the
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
    "stack",
    "scale",
    "seed_point",
    "base_point",
    "reseed",
    "sin",
    "cos",
    "exp",
    "log",
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
    """Cached index tables for jets with a fixed (num_vars, order)."""

    def __init__(self, num_vars: int, order: int):
        if num_vars < 1 or order < 0:
            raise JetError(f"invalid jet shape ({num_vars}, {order})")
        self.num_vars = num_vars
        self.order = order
        self.monomials = _monomials(num_vars, order)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.degree = np.array([sum(m) for m in self.monomials])

        # Sparse convolution table: coefficient k of a*b accumulates a[i]*b[j]
        # over all monomial pairs with m_i + m_j = m_k.  Pairs are stored
        # symmetrized (i < j handled as a[i]b[j] + a[j]b[i]) so that a*b and
        # b*a produce bitwise-identical coefficient arrays.  Pairs i <= j
        # run row by row, j up to the last monomial of degree order - |m_i|;
        # m_k is found by its base-(order + 1) code (no exponent of m_i + m_j
        # exceeds order, so codes add), sorted by the sort used below.
        ends = np.searchsorted(self.degree, order - self.degree, side="right")
        counts = np.maximum(ends - np.arange(self.size), 0)
        i = np.repeat(np.arange(self.size), counts)
        j = i + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        code = np.ravel_multi_index(np.array(self.monomials).T,
                                    (order + 1,) * num_vars)
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

        # Batched mul: pairs then squares, each row's targets offset by
        # S * row, so that one bincount sums every row in mul's order.
        self._row_i = np.concatenate([self._mul_i, self._mul_d])
        self._row_j = np.concatenate([self._mul_j, self._mul_d])
        self._row_k = np.concatenate([self._mul_k, self._mul_kd])
        self._row_targets: dict = {}  # rows -> flattened offset targets

        # factorial(alpha) per monomial, for partial-derivative extraction
        self.fact = np.array(
            [math.prod(math.factorial(e) for e in m) for m in self.monomials],
            dtype=np.float64,
        )

        # Derivative tables: (src index, dst index, factor) per axis
        self._deriv: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if order >= 1:
            lower = algebra(num_vars, order - 1)
            for axis in range(num_vars):
                src, dst, fac = [], [], []
                for k, m in enumerate(lower.monomials):
                    up = list(m)
                    up[axis] += 1
                    src.append(self.index[tuple(up)])
                    dst.append(k)
                    fac.append(up[axis])
                self._deriv.append(
                    (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                     np.array(fac, dtype=np.float64))
                )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.order == 0:  # one coefficient: the bincount adds a * b to 0.0
            return a * b
        if a.ndim > 1 or b.ndim > 1:
            return self._mul_rows(a, b)
        out = np.zeros(self.size)
        if self._mul_k.size:
            out += np.bincount(
                self._mul_k,
                weights=a[self._mul_i] * b[self._mul_j] + a[self._mul_j] * b[self._mul_i],
                minlength=self.size,
            )
        out += np.bincount(self._mul_kd, weights=a[self._mul_d] * b[self._mul_d],
                           minlength=self.size)
        return out

    def _mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """mul of batched (..., S) operands (broadcast against each other):
        one bincount over the targets k + S * row, which sums each row's
        products in the order of the single-point mul."""
        a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        a, b = a.reshape(-1, self.size), b.reshape(-1, self.size)
        rows = len(a)
        targets = self._row_targets.get(rows)
        if targets is None:
            offsets = self.size * np.arange(rows)[:, None]
            targets = self._row_targets[rows] = (self._row_k + offsets).ravel()
        w = a[:, self._row_i] * b[:, self._row_j]
        pairs = self._mul_k.size
        w[:, :pairs] += a[:, self._mul_j] * b[:, self._mul_i]
        return np.bincount(targets, weights=w.ravel(),
                           minlength=rows * self.size).reshape(shape)

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
        that way too.  Pairs are then reduced in a fixed order."""
        operands, result = spec.split("->")
        sa, sb = operands.split(",")
        ba = 0 if "..." in spec else a.ndim - len(sa) - 1
        bb = 0 if "..." in spec else b.ndim - len(sb) - 1
        if self.order == 0 and (ba or bb):
            a = np.moveaxis(a[..., 0], range(len(sa), len(sa) + ba), range(ba))
            b = np.moveaxis(b[..., 0], range(len(sb), len(sb) + bb), range(bb))
            out = np.einsum(f"...{sa},...{sb}->...{result}",
                            np.ascontiguousarray(a), np.ascontiguousarray(b))
            rows = max(ba, bb)
            out = np.moveaxis(out, range(rows), range(out.ndim - rows, out.ndim))
            return out[..., None]
        if ba or bb:
            sa, sb, result = sa + "...", sb + "...", result + "..."
        pairs = np.einsum(f"{sa}z,{sb}z->{result}z",
                          np.take(a, self._pair_i, axis=-1),
                          np.take(b, self._pair_j, axis=-1))
        return np.add.reduceat(pairs, self._pair_start, axis=-1)

    def eval_shift(self, C: np.ndarray, delta) -> np.ndarray:
        """Evaluate a stack C[..., :] of Taylor polynomials at basepoint +
        delta: one shift (dim,), or one per batch row (B, dim) for C of
        shape (..., B, S).  Monomials are summed one at a time in graded-lex
        order, each coefficient multiplied by the powers of delta in
        variable order, zero weights included, so an infinite coefficient
        gives NaN; a row's result is bitwise that of its own shift."""
        delta = np.asarray(delta, dtype=float)
        total = np.zeros(C.shape[:-1])
        for k, m in enumerate(self.monomials):
            term = C[..., k]
            for i, e in enumerate(m):
                if e:
                    term = term * delta[..., i] ** e
            total += term
        return total


@lru_cache(maxsize=None)
def algebra(num_vars: int, order: int) -> JetAlgebra:
    return JetAlgebra(num_vars, order)


class Jet:
    """Immutable truncated Taylor polynomial of a scalar at a basepoint, or
    at each row of a batch of basepoints (coefficients batch + (S,))."""

    __slots__ = ("alg", "c")
    __array_ufunc__ = None  # ndarray (op) Jet defers to the Jet's operand rule

    def __init__(self, alg: JetAlgebra, coeffs: np.ndarray):
        self.alg = alg
        self.c = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, num_vars: int, order: int) -> "Jet":
        """The constant jet; an array value gives one row per entry."""
        alg = algebra(num_vars, order)
        c = np.zeros(getattr(value, "shape", ()) + (alg.size,))
        c[_coeff(c, 0)] = value
        return Jet(alg, c)

    @staticmethod
    def variable(index: int, value, num_vars: int, order: int) -> "Jet":
        """Coordinate `index` seeded at value (a float, or an array of
        batch rows)."""
        if not 0 <= index < num_vars:
            raise JetError(f"variable index {index} out of range for {num_vars} vars")
        alg = algebra(num_vars, order)
        c = np.zeros(getattr(value, "shape", ()) + (alg.size,))
        c[_coeff(c, 0)] = value
        if order >= 1:  # the degree-1 monomials follow the constant, in variable order
            c[_coeff(c, 1 + index)] = 1.0
        return Jet(alg, c)

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

    def _slot(self, multi_index) -> int:
        key = tuple(multi_index)
        if key not in self.alg.index:
            raise JetError(f"multi-index {key} beyond order {self.order}")
        return self.alg.index[key]

    def partial(self, multi_index):
        """Raw partial derivative: alpha! times the Taylor coefficient.
        Serves acceptance criterion 12."""
        k = self._slot(multi_index)
        return _scalar(self.c[..., k] * self.alg.fact[k])

    def __repr__(self):
        v = self.value
        shown = f"value={v:.6g}" if isinstance(v, float) else f"batch={v.shape}"
        return f"Jet({self.num_vars}v,o{self.order}; {shown})"

    # -- structure ---------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.alg is not other.alg:
            raise JetError(
                f"jet shape mismatch: ({self.num_vars},{self.order}) vs "
                f"({other.num_vars},{other.order})"
            )

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
        if order == self.order:
            return self
        if order > self.order:
            raise JetError("cannot extend a jet to higher order")
        alg = algebra(self.num_vars, order)
        return Jet(alg, self.c[..., :alg.size].copy())

    def deriv(self, axis: int) -> "Jet":
        """Partial derivative along one axis, one order lower."""
        if self.order < 1:
            raise JetError("jet order exhausted: cannot differentiate order-0 jet")
        src, dst, fac = self.alg._deriv[axis]
        lower = algebra(self.num_vars, self.order - 1)
        c = np.zeros(self.c.shape[:-1] + (lower.size,))
        c[_coeff(c, dst)] = self.c[_coeff(self.c, src)] * fac
        return Jet(lower, c)

    def eval_shift(self, delta):
        """Evaluate the Taylor polynomial at basepoint + delta."""
        return _scalar(self.alg.eval_shift(self.c, delta))

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
        def coeffs(u0):
            if u0 == 0.0:
                raise ZeroDivisionError("division by jet with zero constant term")
            return [(-1.0) ** k / u0 ** (k + 1) for k in range(self.order + 1)]
        return _series(self, coeffs)


def _scalar(v: np.ndarray):
    """A 0-d result as a float; batched results stay arrays."""
    return float(v) if v.ndim == 0 else v


def _coeff(c: np.ndarray, k):
    """Index of coefficient(s) k of the jet coefficients c: k itself for a
    single jet (numpy's fast path), (..., k) for a batch."""
    return k if c.ndim == 1 else (Ellipsis, k)


def _apply_series(u: Jet, coeffs) -> Jet:
    """Compose the univariate series sum(coeffs[k] * (u - u0)^k) with u;
    each coefficient is a float, or an array of u's batch shape.  Horner's
    j-th product is later multiplied by du^(o-j), so it runs at order j."""
    du = u.c.copy()
    du[_coeff(du, 0)] = 0.0
    out = np.zeros(u.c.shape)
    out[_coeff(out, 0)] = coeffs[-1]
    for j in range(1, len(coeffs)):
        step = algebra(u.num_vars, j)
        s = step.size
        out[..., :s] = step.mul(out[..., :s], du[..., :s])
        out[_coeff(out, 0)] += coeffs[-1 - j]
    return Jet(u.alg, out)


def _series(u: Jet, coeffs_of) -> Jet:
    """Apply the series whose coefficients coeffs_of(u0) gives at the float
    value u0: once for a single point, once per row of a batch (so that a
    row gets the coefficients, and the errors, of its own point)."""
    u0 = u.value
    if isinstance(u0, float):
        return _apply_series(u, coeffs_of(u0))
    rows = np.array([coeffs_of(float(v)) for v in u0.ravel()])
    return _apply_series(u, list(rows.T.reshape((-1,) + u0.shape)))


# -- elementary functions (float / Jet dispatch) ---------------------------

def sin(x):
    if not isinstance(x, Jet):
        return math.sin(x)

    def coeffs(u0):
        s, c = math.sin(u0), math.cos(u0)
        cycle = [s, c, -s, -c]
        return [cycle[k % 4] / math.factorial(k) for k in range(x.order + 1)]
    return _series(x, coeffs)


def cos(x):
    if not isinstance(x, Jet):
        return math.cos(x)

    def coeffs(u0):
        s, c = math.sin(u0), math.cos(u0)
        cycle = [c, -s, -c, s]
        return [cycle[k % 4] / math.factorial(k) for k in range(x.order + 1)]
    return _series(x, coeffs)


def exp(x):
    """e^x of a jet or a float.  Serves acceptance criterion 12."""
    if not isinstance(x, Jet):
        return math.exp(x)

    def coeffs(u0):
        e0 = math.exp(u0)
        return [e0 / math.factorial(k) for k in range(x.order + 1)]
    return _series(x, coeffs)


def log(x):
    """Natural log of a jet or a float.  Serves acceptance criterion 12."""
    if not isinstance(x, Jet):
        if x <= 0:
            raise JetError(f"log of non-positive value {x}")
        return math.log(x)

    def coeffs(u0):
        if u0 <= 0:
            raise JetError(f"log of jet with non-positive value {u0}")
        return [math.log(u0)] + [(-1.0) ** (k + 1) / (k * u0 ** k)
                                 for k in range(1, x.order + 1)]
    return _series(x, coeffs)


def sqrt(x):
    return powc(x, 0.5)


def powc(x, p: float):
    """x ** p for constant real p."""
    if not isinstance(x, Jet):
        return float(x) ** p

    def coeffs(u0):
        if u0 <= 0:
            raise JetError(f"powc needs positive value, got {u0}")
        out = []
        binom = 1.0
        for k in range(x.order + 1):
            out.append(binom * u0 ** (p - k))
            binom *= (p - k) / (k + 1)
        return out
    return _series(x, coeffs)


def stack(comps) -> np.ndarray:
    """Nested lists (or an object array) of Jets of one algebra as one
    (..., S) float array of their coefficients, (..., B, S) for jets over a
    batch of B points; nested floats as a (...) float array."""
    arr = np.asarray(comps, dtype=object)
    items = arr.ravel()
    if isinstance(items[0], Jet):
        return np.stack([x.c for x in items]).reshape(arr.shape + items[0].c.shape)
    return arr.astype(float)


def scale(s, A: np.ndarray) -> np.ndarray:
    """The scalar s times every component of A: the truncated product with
    each (..., S) component for a Jet s (row by row for a batch), plain
    multiplication for a float."""
    return s.alg.contract("...,...->...", s.c, A) if isinstance(s, Jet) else s * A


def seed_point(point, order: int) -> list[Jet]:
    """Seed one jet variable per coordinate of a point (dim,), or of every
    point of a batch (B, dim): the jets' coefficients then have shape
    (B, S)."""
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    return [Jet.variable(i, point[..., i], n, order) for i in range(n)]


def base_point(coords) -> np.ndarray:
    """The basepoint of coordinate jets, (dim,) or (B, dim)."""
    values = [c.value for c in coords]
    return (np.array(values) if isinstance(values[0], float)
            else np.stack(values, axis=-1))


def reseed(coords, order: int) -> list[Jet]:
    """Coordinate jets at the basepoint of coords, seeded at another order."""
    return seed_point(base_point(coords), order)


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


def compose_stacked(F: np.ndarray, inner: list[Jet]) -> np.ndarray:
    """compose for a stack F[..., :] of jets in len(inner) variables, at an
    order no lower than the inner jets'; returns the stacked composed jets.
    The powers of dg_i = g_i - g_i.value are built once; a monomial is its
    prefix's product (the powers of the lower variables) times its highest
    variable's power, and the terms are summed in graded-lex order."""
    alg = inner[0].alg
    table = algebra(len(inner), alg.order)
    if F.shape[-1] < table.size:
        raise JetError("compose: outer jets below the inner order")
    powers = []  # powers[i][e] = dg_i ** e
    for g in inner:
        dg = g.c.copy()
        dg[_coeff(dg, 0)] = 0.0
        row = [None, dg]
        for _ in range(2, alg.order + 1):
            row.append(alg.mul(row[-1], row[1]))
        powers.append(row)
    prods = {table.monomials[0]: np.eye(1, alg.size)[0]}
    out = np.zeros(F.shape[:-1] + (alg.size,))
    for k, m in enumerate(table.monomials):
        if m not in prods:
            h = max(i for i, e in enumerate(m) if e)
            head = m[:h] + (0,) * (len(m) - h)
            p = powers[h][m[h]]
            prods[m] = alg.mul(prods[head], p) if any(head) else p
        out += F[..., k, None] * prods[m]
    return out
