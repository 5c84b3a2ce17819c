"""Exact arithmetic for finite abelian groups given as products of cyclic factors.

Elements are mixed-radix integer codes in ``[0, order)``, least significant
factor first: in Z2 x Z3 the code ``c`` decodes to ``(c % 2, c // 2)``.
Code 0 is always the identity.  Factor lists are kept exactly as given;
``[2, 3]`` is not collapsed to ``[6]`` and no isomorphism detection happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from operator import index
from typing import Iterable, Sequence

from .errors import (
    FlowcertError,
    InvalidElementError,
    InvalidGroupError,
    PreconditionError,
    ShapeError,
    UnsupportedGroupError,
)


@dataclass(frozen=True)
class Group:
    """A product of cyclic groups, e.g. ``factors=(2, 2)`` for Z2 x Z2."""

    factors: tuple[int, ...]
    order: int


def strict_int(value, error: type[FlowcertError], what: str) -> int:
    """``value`` as an int if :func:`operator.index` accepts it and it is no
    ``bool``; anything else raises ``error``, so nothing is truncated."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def check_cap(cap, what: str = "cap") -> int:
    """``cap`` as an int of at least 1.  A cap below one is a bad argument,
    not an exceeded capacity, so it raises :class:`PreconditionError`."""
    cap = strict_int(cap, PreconditionError, what)
    if cap < 1:
        raise PreconditionError(f"{what} must be >= 1, got {cap}")
    return cap


def json_fields(data, what: str, kinds: dict[str, type]) -> tuple:
    """The values of the JSON object ``data`` under the keys of ``kinds``,
    each an instance of its kind; a non-object, a missing key or a value of
    the wrong kind raises :class:`ShapeError` naming it."""
    if not isinstance(data, dict):
        raise ShapeError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key, kind in kinds.items():
        if key not in data:
            raise ShapeError(f"{what} has no {key!r} key")
        if not isinstance(data[key], kind):
            raise ShapeError(
                f"{what} field {key!r} must be a {kind.__name__}, "
                f"got {type(data[key]).__name__}"
            )
    return tuple(data[key] for key in kinds)


def make_group(factors: Iterable[int]) -> Group:
    """Build a group from cyclic factor moduli (each >= 2, list non-empty)."""
    fs = tuple(strict_int(f, InvalidGroupError, "cyclic factor") for f in factors)
    if not fs:
        raise InvalidGroupError("a group needs at least one cyclic factor")
    bad = [f for f in fs if f < 2]
    if bad:
        raise InvalidGroupError(f"cyclic factors must be >= 2, got {bad}")
    return Group(factors=fs, order=prod(fs))


def check_element(group: Group, code: int) -> int:
    code = strict_int(code, InvalidElementError, "element code")
    if not 0 <= code < group.order:
        raise InvalidElementError(
            f"element code {code} out of range [0, {group.order})"
        )
    return code


def decode(group: Group, code: int) -> tuple[int, ...]:
    """Residue tuple of a code, least significant factor first."""
    code = check_element(group, code)
    residues = []
    for f in group.factors:
        code, r = divmod(code, f)
        residues.append(r)
    return tuple(residues)


def encode(group: Group, residues: Sequence[int]) -> int:
    """Code of a residue tuple; inverse of :func:`decode`."""
    rs = tuple(strict_int(r, InvalidElementError, "residue") for r in residues)
    if len(rs) != len(group.factors):
        raise InvalidElementError(
            f"expected {len(group.factors)} residues, got {len(rs)}"
        )
    code = 0
    base = 1
    for r, f in zip(rs, group.factors):
        if not 0 <= r < f:
            raise InvalidElementError(f"residue {r} out of range [0, {f})")
        code += r * base
        base *= f
    return code


@lru_cache(maxsize=None)
def add_table(group: Group) -> tuple[tuple[int, ...], ...]:
    """Full addition table: ``add_table(g)[a][b] == add(g, a, b)``."""
    decoded = [decode(group, a) for a in range(group.order)]
    rows = []
    for ra in decoded:
        row = tuple(
            encode(group, tuple((x + y) % f for x, y, f in zip(ra, rb, group.factors)))
            for rb in decoded
        )
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def neg_table(group: Group) -> tuple[int, ...]:
    """Inverse table: ``neg_table(g)[a] == neg(g, a)``."""
    return tuple(
        encode(group, tuple((-x) % f for x, f in zip(decode(group, a), group.factors)))
        for a in range(group.order)
    )


def add(group: Group, a: int, b: int) -> int:
    """Componentwise modular sum of two element codes."""
    return add_table(group)[check_element(group, a)][check_element(group, b)]


def neg(group: Group, a: int) -> int:
    """Additive inverse of an element code."""
    return neg_table(group)[check_element(group, a)]


def elements(group: Group) -> list[int]:
    """All element codes, ascending, identity first."""
    return list(range(group.order))


def automorphisms(group: Group) -> list[tuple[int, ...]]:
    """All automorphisms as code permutations, for a single cyclic factor.

    Automorphisms of Z_m are exactly multiplication by the units of Z_m, so
    the returned list has ``phi(m)`` permutations, the identity first.
    Product groups are not supported and raise :class:`UnsupportedGroupError`.
    """
    if len(group.factors) != 1:
        raise UnsupportedGroupError(
            "automorphism enumeration is implemented for a single cyclic "
            f"factor only, got factors {group.factors}"
        )
    m = group.order
    return [
        tuple((u * x) % m for x in range(m)) for u in range(1, m) if gcd(u, m) == 1
    ]


def group_to_json(group: Group) -> dict:
    return {"factors": list(group.factors)}


def group_from_json(data: dict) -> Group:
    if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
        raise InvalidGroupError("group JSON must be an object with a 'factors' list")
    return make_group(data["factors"])
