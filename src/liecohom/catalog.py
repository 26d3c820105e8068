"""Constructors for the standard algebras, with fixed basis orders.

schrodinger and schrodinger_mod_center are validated by the semidirect
and quotient constructions they are built with, and parse_algebra
validates every file; sl2, heisenberg and abelian are Lie by
construction and are checked by the tests. Basis orderings are part of
the contract: coordinates of cochains and representatives are only
reproducible against these exact orders.
"""

import json
from fractions import Fraction
from typing import Optional, Tuple

from .exact_linalg import SparseMatrix
from .lie_core import LieAlgebra, center, quotient, semidirect


# [e,f] = h, [h,e] = 2e, [h,f] = -2f on the basis (e, f, h)
_SL2_BRACKETS = {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}


def sl2() -> LieAlgebra:
    """Basis (e, f, h) with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return LieAlgebra(["e", "f", "h"], _SL2_BRACKETS, name="sl2")


def heisenberg(n: int) -> LieAlgebra:
    """Basis (x_1..x_n, y_1..y_n, z) with [x_i, y_i] = z, everything else zero."""
    if n < 1:
        raise ValueError("heisenberg requires n >= 1")
    labels = (
        [f"x{i}" for i in range(1, n + 1)]
        + [f"y{i}" for i in range(1, n + 1)]
        + ["z"]
    )
    structure = {(i, n + i): {2 * n: Fraction(1)} for i in range(n)}
    return LieAlgebra(labels, structure, name=f"heisenberg:{n}")


def _schrodinger_action(n: int) -> list:
    """Action of (e, f, h) on heisenberg(n):
    e: y_i -> x_i;  f: x_i -> y_i;  h: x_i -> x_i, y_i -> -y_i; z fixed."""
    dim = 2 * n + 1
    a_e = {(i, n + i): Fraction(1) for i in range(n)}
    a_f = {(n + i, i): Fraction(1) for i in range(n)}
    a_h = {}
    for i in range(n):
        a_h[(i, i)] = Fraction(1)
        a_h[(n + i, n + i)] = Fraction(-1)
    return [
        SparseMatrix(dim, dim, a_e),
        SparseMatrix(dim, dim, a_f),
        SparseMatrix(dim, dim, a_h),
    ]


def schrodinger(n: int) -> LieAlgebra:
    """sl2 acting on heisenberg(n); basis (e, f, h, x_1..x_n, y_1..y_n, z).

    The cross brackets are [h,x_i] = x_i, [h,y_i] = -y_i, [e,y_i] = x_i,
    [f,x_i] = y_i; dimension 2n + 4.
    """
    if n < 1:
        raise ValueError("schrodinger requires n >= 1")
    out = semidirect(sl2(), heisenberg(n), _schrodinger_action(n))
    return LieAlgebra(out.labels, out.structure, name=f"schrodinger:{n}")


def schrodinger_mod_center(n: int) -> LieAlgebra:
    """schrodinger(n) modulo its one-dimensional center; dimension 2n + 3.

    The center is spanned by z, so the surviving basis is
    (e, f, h, x_1..x_n, y_1..y_n) and [x_i, y_i] becomes zero.
    """
    g = schrodinger(n)
    zc = center(g)
    if zc.dim != 1:
        raise AssertionError("schrodinger center is expected to be 1-dimensional")
    out = quotient(g, zc)
    return LieAlgebra(out.labels, out.structure, name=f"schrodinger-quotient:{n}")


def abelian(k: int) -> LieAlgebra:
    """k-dimensional algebra with every bracket zero."""
    if k < 0:
        raise ValueError("abelian dimension must be nonnegative")
    return LieAlgebra([f"a{i}" for i in range(1, k + 1)], {}, name=f"abelian:{k}")


def serialize(g: LieAlgebra) -> str:
    """Deterministic JSON text for an algebra; round-trips through parse_algebra."""
    return json.dumps(g.to_json_dict(), indent=2, sort_keys=True)


def parse_algebra(text: str) -> LieAlgebra:
    """Parse and validate JSON algebra text.

    Raises ValueError on malformed input, out-of-range indices, or a
    bracket table violating the Jacobi identity (the message carries the
    witness triple).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    g = LieAlgebra.from_json_dict(data)
    bad = g.validate()
    if bad is not None:
        raise ValueError(str(bad))
    return g


def resolve(spec: str) -> LieAlgebra:
    """Resolve a textual algebra spec.

    Accepted forms: "sl2", "heisenberg:n", "schrodinger:n",
    "schrodinger-quotient:n", "abelian:k", "file:PATH".
    """
    spec = spec.strip()
    if spec == "sl2":
        return sl2()
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read algebra file {path}: {exc}") from exc
        return parse_algebra(text)
    head, sep, tail = spec.partition(":")
    if sep:
        try:
            n = int(tail)
        except ValueError as exc:
            raise ValueError(f"bad parameter in algebra spec {spec!r}") from exc
        if head == "heisenberg":
            return heisenberg(n)
        if head == "schrodinger":
            return schrodinger(n)
        if head == "schrodinger-quotient":
            return schrodinger_mod_center(n)
        if head == "abelian":
            return abelian(n)
    raise ValueError(f"unknown algebra spec {spec!r}")


def canonical_split(g: LieAlgebra) -> Optional[Tuple[tuple, tuple]]:
    """Default (levi, radical) index split for catalog algebras that have one.

    For the semidirect catalog entries the levi part is the leading
    (e, f, h) triple and the radical the rest. A name is not trusted on
    its own, since a file may carry any name: the leading triple must
    bracket as sl2's does. None when no canonical split is known.
    """
    name = g.name or ""
    if not name.startswith(("schrodinger:", "schrodinger-quotient:")):
        return None
    if any(g.structure.get(pair) != bracket for pair, bracket in _SL2_BRACKETS.items()):
        return None
    return (0, 1, 2), tuple(range(3, g.dim))
