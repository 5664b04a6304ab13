#!/usr/bin/env python3
"""Fit the polynomial of harqfbl's vectorised erfc and print its coefficients.

fbl._erfc evaluates erfc(z) = t * exp(-z^2 + P(2t - 1)) with t = 2 / (2 + z),
the form of the rational Chebyshev family (W. J. Cody, "Rational Chebyshev
approximations for the error function", Math. Comp. 1969).  P is the degree
27 polynomial that interpolates

    f(y) = log(erfc(z) / t) + z^2,    z = 2 (1 - y) / (1 + y),

at the Chebyshev nodes of [y(26.5), 1], the arguments z in [0, 26.5] that the
kernel evaluates (above 26.5 it takes math.erfc).  The interpolant is found
and turned into monomial coefficients in 200-bit arithmetic, then rounded
once to double.  The printed tuple, highest degree first, is fbl._ERFC_P:

    python3 scripts/fit_erfc.py
"""

from __future__ import annotations

import mpmath as mp

DEGREE = 27
CLAMP = 26.5  # fbl._ERFC_CLAMP


def f(y: mp.mpf) -> mp.mpf:
    z = 2 * (1 - y) / (1 + y)
    return mp.log(2 * mp.erfc(z) / (1 + y)) + z * z


def fit() -> tuple[float, ...]:
    """P's coefficients as doubles, highest degree first."""
    with mp.workprec(200):
        lo = (2 - mp.mpf(CLAMP)) / (2 + mp.mpf(CLAMP))
        n = DEGREE + 1
        angles = [mp.pi * (2 * i + 1) / (2 * n) for i in range(n)]
        values = [f((1 + lo) / 2 + (1 - lo) / 2 * mp.cos(a)) for a in angles]
        cheb = [2 * mp.fsum(v * mp.cos(j * a) for v, a in zip(values, angles)) / n for j in range(n)]
        cheb[0] /= 2
        # T_j(s) as monomials in y, where s = scale * y + shift maps [lo, 1] onto [-1, 1]
        scale, shift = 2 / (1 - lo), -(1 + lo) / (1 - lo)
        basis = [[mp.mpf(1)], [shift, scale]]
        while len(basis) < n:
            prev, last = basis[-2], basis[-1]
            nxt = [2 * shift * c for c in last] + [mp.mpf(0)]
            for i, c in enumerate(last):
                nxt[i + 1] += 2 * scale * c
            for i, c in enumerate(prev):
                nxt[i] -= c
            basis.append(nxt)
        mono = [mp.fsum(cheb[j] * basis[j][i] for j in range(i, n) if i < len(basis[j])) for i in range(n)]
        return tuple(float(c) for c in reversed(mono))


def main() -> None:
    coefs = [f"{c!r}," for c in fit()]
    print("_ERFC_P = (")
    for i in range(0, len(coefs), 4):
        print("    " + " ".join(coefs[i:i + 4]))
    print(")")


if __name__ == "__main__":
    main()
