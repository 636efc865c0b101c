"""Truncated one-variable integer power series, as plain coefficient lists.

Everything works mod t^(N+1): a polynomial of order N is a list of N+1
integers, index = degree.  Enough for graded dimension bookkeeping; not
a general series library.
"""

from __future__ import annotations

from math import comb


def poly_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or not ai:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def one_minus_tk_power(k: int, exponent: int, order: int) -> list[int]:
    """(1 - t^k) ** exponent, truncated; negative exponents allowed."""
    out = [0] * (order + 1)
    if exponent >= 0:
        for j in range(0, min(exponent, order // k) + 1):
            out[k * j] = (-1) ** j * comb(exponent, j)
    else:
        g = -exponent
        for j in range(0, order // k + 1):
            out[k * j] = comb(g - 1 + j, j)
    return out


def product_of_powers(factors, order: int) -> list[int]:
    """Product of (1 - t^k) ** exponent over (k, exponent) pairs."""
    out = [0] * (order + 1)
    out[0] = 1
    for k, exponent in factors:
        if exponent:
            out = poly_mul(out, one_minus_tk_power(k, exponent, order), order)
    return out
