"""Finite field arithmetic tables for small prime powers.

Elements of GF(p^k) are encoded as integers 0..q-1 via base-p digits of the
polynomial representative: index = sum(c_i * p**i) with c_0 the constant term.
Index 0 is the additive zero and index 1 the multiplicative one.  The modulus
polynomial is the lexicographically first monic irreducible of degree k, so
the tables are reproducible.
"""

import math

from .errors import UnsupportedCarrier


def factor_prime_power(q):
    """Return (p, k) with q == p**k, or raise if q is not a prime power."""
    if q < 2:
        raise UnsupportedCarrier(f"{q} is not a prime power")
    # the least divisor above 1 is prime; past sqrt(q) it is q itself
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise UnsupportedCarrier(f"{q} is not a prime power")
    return p, k


def _digits(index, p, k):
    out = []
    for _ in range(k):
        out.append(index % p)
        index //= p
    return tuple(out)


def _index(digits, p):
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_mod(a, m, p):
    # m monic; reduce a modulo m in F_p[x]
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while len(a) < dm:
        a.append(0)
    return a


def _is_irreducible(poly, p):
    # poly monic of degree k >= 1; trial division by monic polys of degree <= k//2
    k = len(poly) - 1
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for idx in range(p ** deg):
            divisor = list(_digits(idx, p, deg)) + [1]
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


def _first_irreducible(p, k):
    for idx in range(p ** k):
        poly = list(_digits(idx, p, k)) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise UnsupportedCarrier(f"no irreducible polynomial of degree {k} over F_{p}")


def gf_tables(q):
    """Dense add/mul index tables for GF(q); returns (add, mul, p, k).

    Products come from log and antilog tables of the first primitive element
    in index order, so each pair costs two lookups instead of a polynomial
    product and reduction.
    """
    p, k = factor_prime_power(q)
    if k == 1:
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        return add, mul, p, k
    modulus = _first_irreducible(p, k)
    digits = [_digits(a, p, k) for a in range(q)]
    add = [[_index([(x + y) % p for x, y in zip(da, db)], p) for db in digits]
           for da in digits]
    for g in range(2, q):  # the first primitive element: its powers fill GF(q)*
        antilog, power = [1], digits[g]
        while (a := _index(power, p)) != 1:
            antilog.append(a)
            power = _poly_mod(_poly_mul(power, digits[g], p), modulus, p)
        if len(antilog) == q - 1:
            break
    log = [0] * q
    for e, a in enumerate(antilog):
        log[a] = e
    antilog += antilog  # log[a] + log[b] < 2(q-1): no reduction needed
    mul = [[0] * q] + [
        [0] + [antilog[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)]
    return add, mul, p, k
