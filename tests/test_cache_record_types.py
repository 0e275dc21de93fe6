"""A count record names its surface by a string and its field by integer
p and r.  Anything else, such as a float or string p, a boolean r or a
list for the surface, is a `DataError` at path:line when the cache
loads, never read as a count over a field it does not name, so
`k3 zeta --counts` exits 2 with a usage error."""

import json

import pytest

from k3arith.cache import CountCache
from k3arith.cli import main
from k3arith.errors import DataError

GOOD = {"surface": "ok", "p": 5, "r": 1, "count": 16}
BAD = {
    "float_p": {"p": 5.9},
    "bool_r": {"r": True},
    "string_p": {"p": "13"},
    "list_surface": {"surface": ["ab", "cd"]},
    "int_surface": {"surface": 7},
}


def _write(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    bad = {**GOOD, "surface": "other", **BAD[kind]}
    path.write_text(json.dumps(GOOD) + "\n" + json.dumps(bad) + "\n")
    return path


@pytest.mark.parametrize("kind", sorted(BAD))
def test_the_cache_refuses_a_record_that_is_not_a_count(tmp_path, kind):
    path = _write(tmp_path, kind)
    with pytest.raises(DataError, match=f"{path}:2"):
        CountCache(path)


@pytest.mark.parametrize("kind", sorted(BAD))
def test_zeta_exits_2_on_a_record_that_is_not_a_count(tmp_path, capsys,
                                                      kind):
    path = _write(tmp_path, kind)
    assert main(["zeta", "--counts", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and f"{path}:2" in captured.err
