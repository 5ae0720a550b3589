"""Closed-form functions with exact derivatives, for stencil and invariance tests.

``Polynomial`` stores a sparse exponent-to-coefficient table, so values and
partial derivatives are exact up to floating point rounding of the monomial
arithmetic.  ``LeftTranslate`` composes any differentiable function with a
group left translation and differentiates it by the chain rule; the Jacobian
of y -> z * y is sigma_ext(z).
"""

import numpy as np

from .heisenberg import group_mul, sigma_ext

__all__ = ["Polynomial", "LeftTranslate", "h_linear"]


class Polynomial:
    """Multivariate polynomial over nvars variables.

    terms maps exponent tuples to coefficients, e.g. {(1, 0, 2): 3.0} is
    3 * x0 * x2^2.
    """

    def __init__(self, terms, nvars):
        self.nvars = int(nvars)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple length must equal nvars")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be non-negative")
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + float(c)
        self.terms = clean

    @classmethod
    def constant(cls, c, nvars):
        return cls({(0,) * nvars: c}, nvars)

    @classmethod
    def variable(cls, i, nvars):
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): 1.0}, nvars)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0.0) + c
        return Polynomial(t, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial({e: c * float(other) for e, c in self.terms.items()}, self.nvars)
        self._check(other)
        t = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                t[e] = t.get(e, 0.0) + ca * cb
        return Polynomial(t, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, k):
        if int(k) != k or k < 0:
            raise ValueError("only non-negative integer powers")
        out = Polynomial.constant(1.0, self.nvars)
        for _ in range(int(k)):
            out = out * self
        return out

    def partial(self, i):
        t = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                d = list(e)
                d[i] -= 1
                t[tuple(d)] = t.get(tuple(d), 0.0) + c * e[i]
        return Polynomial(t, self.nvars)

    def substitute(self, polys):
        """Compose: replace variable i by polys[i]."""
        if len(polys) != self.nvars:
            raise ValueError("need one polynomial per variable")
        nv = polys[0].nvars
        out = Polynomial({}, nv)
        for e, c in self.terms.items():
            term = Polynomial.constant(c, nv)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * polys[i]
            out = out + term
        return out

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for e, c in self.terms.items():
            mono = np.full(x.shape[:-1], c)
            for i, k in enumerate(e):
                if k:
                    mono = mono * x[..., i] ** k
            out = out + mono
        return out

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        cols = [self.partial(i).value(x) for i in range(self.nvars)]
        return np.stack(np.broadcast_arrays(*cols), axis=-1)


class LeftTranslate:
    """u composed with the left translation y -> z * y, with exact chain rule."""

    def __init__(self, u, z):
        self.u = u
        self.z = np.asarray(z, dtype=float)
        self._jac = sigma_ext(self.z)  # Jacobian of y -> z * y

    def value(self, x):
        return self.u.value(group_mul(self.z, x))

    def gradient(self, x):
        g = np.asarray(self.u.gradient(group_mul(self.z, x)), dtype=float)
        return np.einsum("ba,...b->...a", self._jac, g)


def h_linear(q, a=0.0):
    """The H-affine polynomial q . (x1, x2) + a; its horizontal gradient is q."""
    q = np.asarray(q, dtype=float)
    m = q.shape[0]
    if m < 2 or m % 2:
        raise ValueError("q must have even length 2n")
    nvars = m + 1
    out = Polynomial.constant(a, nvars)
    for i in range(m):
        out = out + q[i] * Polynomial.variable(i, nvars)
    return out
