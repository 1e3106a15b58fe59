"""Pins the enumerated element order of the standard groups.

Seeds index into ``G.elements``, so a reordering silently changes every
seeded sample.  The expected values were recorded from the pure-Python
breadth-first closure; any faster enumeration must reproduce them exactly.
"""

import hashlib

import pytest

import concentrators as C
from concentrators.permgroup import MATHIEU12_GENERATORS, closure

S4_ORDER = [
    (0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0), (2, 1, 3, 0), (0, 2, 3, 1), (2, 3, 0, 1),
    (2, 0, 3, 1), (3, 2, 0, 1), (1, 3, 0, 2), (2, 3, 1, 0), (3, 0, 1, 2), (3, 1, 0, 2),
    (3, 2, 1, 0), (0, 3, 1, 2), (2, 0, 1, 3), (3, 0, 2, 1), (0, 2, 1, 3), (0, 3, 2, 1),
    (2, 1, 0, 3), (3, 1, 2, 0), (0, 1, 3, 2), (1, 2, 0, 3), (1, 3, 2, 0), (1, 0, 3, 2),
]


def image_digest(G) -> str:
    """sha256 over the image rows in element order, one byte per point."""
    return hashlib.sha256(b"".join(bytes(p.images) for p in G.elements)).hexdigest()


def test_s4_element_order():
    assert [p.images for p in C.symmetric_group(4).elements] == S4_ORDER


@pytest.mark.parametrize(
    "build, order, digest",
    [
        (C.mathieu12_group, 95040,
         "713184d6b1b2b397d2b7d8cabddbd43c34ceb88fd4f12d65ce7b18df3403146c"),
        (lambda: closure(12, MATHIEU12_GENERATORS[:5]), 7920,
         "8fca84e636dfddfbcf1564fe36666e5727da7c938d970fbe5f96e7c6363241cf"),
        (lambda: C.symmetric_group(7), 5040,
         "9e64106c16797aa9660c421e2aedae1195cee4189483e241db8223c174e0840b"),
    ],
    ids=["M12", "M12-point-11-stabilizer", "S7"],
)
def test_large_group_element_order(build, order, digest):
    G = build()
    assert len(G) == order
    assert image_digest(G) == digest
