"""Every count in tests/data/count_corpus.ldjson, each made by two
independent routes (tests/data/make_count_corpus.py), recounted through
today's route: one uncapped `count_many` walk over each field's
(surface, p, r) keys, each key by its own `_route`.  Records whose second
route was the (since deleted) pencil scan keep a case of their own, so
each case names the routes that made its counts.  A changed count is a
failure, never an edit of the file: records are only ever added."""

import json
import os
from collections import defaultdict

import pytest

from k3arith.count import DiagonalQuartic, DoubleSextic, Quartic, count_many

PATH = os.path.join(os.path.dirname(__file__), "data", "count_corpus.ldjson")
MODELS = {"quartic": Quartic, "double_sextic": DoubleSextic,
          "diagonal": DiagonalQuartic}

with open(PATH, encoding="utf-8") as fh:
    RECORDS = [json.loads(line) for line in fh]
GROUPS = defaultdict(list)  # (p, r, pencil?) -> records
for rec in RECORDS:
    GROUPS[rec["p"], rec["r"], "pencil" in rec["routes"]].append(rec)


def test_each_record_is_one_key_made_by_two_routes():
    keys = [(rec["model"], tuple(rec["coeffs"]), rec["p"], rec["r"])
            for rec in RECORDS]
    assert len(set(keys)) == len(keys)
    assert all(len(set(rec["routes"])) == 2 for rec in RECORDS)


def _id(key):
    return f"p{key[0]}-r{key[1]}" + ("-pencil" if key[2] else "")


@pytest.mark.parametrize("key", sorted(GROUPS), ids=_id)
def test_todays_route_reproduces_the_corpus(key):
    p, r, _ = key
    recs = GROUPS[key]
    keys = [(MODELS[rec["model"]](tuple(rec["coeffs"])), p, r)
            for rec in recs]
    assert count_many(keys, cap=None) == [rec["count"] for rec in recs]
