"""Class groups, reduced-form lists and class numbers, frozen by digest.

Each digest is the sha256 of one repr line per discriminant d = -3, -4,
..., -5000 (the valid ones), taken from the O(h^3) table build with the
pair-by-pair associativity check that preceded Light's test.  Any change
to the forms, their order, the composition table or the exponent shows.
"""

import hashlib

from k3arith import bqf

DISCS = [d for d in range(-3, -5001, -1) if d % 4 in (0, 1)]

H1_LIST = [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]


def _digest(values):
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode() + b"\n")
    return h.hexdigest()


def _group(d):
    grp = bqf.class_group(d)
    return [f.astuple() for f in grp.forms], grp.table, grp.exponent


def test_class_groups_frozen():
    assert _digest(_group(d) for d in DISCS) == (
        "0dbd1ccb605e4eb656d1398fb9d653101df8c936b6afca35e57db44687d83c06")


def test_reduced_forms_frozen():
    def forms(d, primitive_only):
        return [f.astuple() for f in bqf.reduced_forms(d, primitive_only)]
    assert _digest(forms(d, True) for d in DISCS) == (
        "0b9fe48f1c428dc1a084e210786c7f1ee4c83eb863f009a89073b4257776da40")
    assert _digest(forms(d, False) for d in DISCS) == (
        "8154971792997b94edcca0072d54bce0ad3fbecf27b57ea9381d1e4c1d978ca9")


def test_class_numbers_frozen():
    assert _digest(bqf.class_number(d) for d in DISCS) == (
        "5a9580f853336b3fa9929bc9cee64fc2bcb5544a48cbb86e3bc9ae31131acfef")


def test_class_number_one_list_to_3000():
    # the 13 classical values, nine fundamental and four not; the early
    # exit at the second primitive form must not drop or add one
    assert bqf.class_number_one_discriminants(3000) == H1_LIST
