"""Point counts for quartics and double sextics, plus the Jacobi fast path.

Every frozen count here is cross-checked inside the test against a naive
enumerator written independently of the package: raw vectors mod p for
quartics, projective representatives with a Legendre table for double
planes.  The naive routines only handle prime fields, which is all the
frozen values need.
"""

import itertools
import random

import pytest

from k3arith.cache import CountCache
from k3arith.count import (CountRecord, DiagonalQuartic, DoubleSextic,
                           Quartic, count_diagonal_quartic_jacobi,
                           count_double_sextic, count_quartic, count_tower,
                           dwork_pencil, fermat_quartic, is_smooth_quartic)
from k3arith.errors import UnsupportedError, UsageError
from k3arith.ff import FieldCtx

FERMAT_COUNTS = {3: 16, 5: 0}  # #X(F_p), re-derived below by brute force


def _naive_quartic_count(surface, p):
    """Projective count over F_p: zero vectors of F, scaled classes merged."""
    items = surface.items(p)
    zeros = 0
    for v in itertools.product(range(p), repeat=4):
        if v == (0, 0, 0, 0):
            continue
        tot = 0
        for e, c in items:
            t = c
            for x, k in zip(v, e):
                if k:
                    t = t * pow(x, k, p) % p
            tot = (tot + t) % p
        if tot == 0:
            zeros += 1
    assert zeros % (p - 1) == 0
    return zeros // (p - 1)


def _proj_plane(p):
    for y, z in itertools.product(range(p), repeat=2):
        yield (1, y, z)
    for z in range(p):
        yield (0, 1, z)
    yield (0, 0, 1)


def _naive_double_sextic_count(surface, p):
    items = surface.items(p)
    chi = {x * x % p for x in range(1, p)}
    total = 0
    for v in _proj_plane(p):
        tot = 0
        for e, c in items:
            t = c
            for x, k in zip(v, e):
                if k:
                    t = t * pow(x, k, p) % p
            tot = (tot + t) % p
        total += 1 + (0 if tot == 0 else (1 if tot in chi else -1))
    return total


# --- quartic counts -----------------------------------------------------------

def test_fermat_prime_field_counts():
    for p, n in FERMAT_COUNTS.items():
        assert _naive_quartic_count(fermat_quartic(), p) == n
        assert count_quartic(fermat_quartic(), FieldCtx(p)) == n


def test_quartic_counts_match_naive():
    rng = random.Random(5)
    exps = [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4),
            (1, 1, 1, 1), (2, 2, 0, 0), (0, 1, 2, 1), (3, 0, 0, 1)]
    for p in (3, 5):
        for _ in range(3):
            f = Quartic.from_dict({e: rng.randrange(1, p) for e in exps})
            assert count_quartic(f, FieldCtx(p)) == _naive_quartic_count(f, p)


def test_quartic_hyperplane_degenerate():
    f = Quartic.from_dict({(4, 0, 0, 0): 1})  # x0^4 = 0 cuts out a plane
    for p in (3, 5, 7):
        q = p
        assert count_quartic(f, FieldCtx(p)) == q * q + q + 1


def test_quartic_parallel_matches_serial():
    f = dwork_pencil.member(2)
    ctx = FieldCtx(7)
    assert count_quartic(f, ctx, jobs=2) == count_quartic(f, ctx, jobs=1)


def test_quartic_extension_field():
    # F_9 count feeds the acceptance pipeline; pin it against the fast path
    n_direct = count_quartic(fermat_quartic(), FieldCtx(3, 2))
    n_fast, _ = count_diagonal_quartic_jacobi(fermat_quartic(), FieldCtx(3, 2))
    assert n_direct == n_fast == 280


def test_surface_validation():
    with pytest.raises(UsageError):
        Quartic((1, 2, 3))
    with pytest.raises(UsageError):
        Quartic.from_dict({(5, 0, 0, 0): 1})
    with pytest.raises(UsageError):
        DiagonalQuartic((1, 1, 1))
    with pytest.raises(UsageError):
        DiagonalQuartic((1, 1, 1, 1.5))
    with pytest.raises(UsageError):
        dwork_pencil.member(True)


def test_surface_hash_coherence():
    # 4 x3^4 + 3 x2^4 + 2 x1^4 + x0^4 by hand, in the order of
    # QUARTIC_EXPONENTS: x3^4, x2^4, x1^4 and x0^4 sit at 0, 4, 14 and 34
    by_hand = [0] * 35
    by_hand[0], by_hand[4], by_hand[14], by_hand[34] = 4, 3, 2, 1
    assert DiagonalQuartic((1, 2, 3, 4)).surface_hash() == \
        Quartic(tuple(by_hand)).surface_hash()
    fermat = fermat_quartic()
    assert fermat.surface_hash() == fermat_quartic().surface_hash()
    # the lam = 0 pencil member is the Fermat quartic, hash included
    assert dwork_pencil.member(0).surface_hash() == fermat.surface_hash()
    assert dwork_pencil.member(1).surface_hash() != fermat.surface_hash()
    assert DoubleSextic.from_dict({(6, 0, 0): 1}).surface_hash() != \
        fermat.surface_hash()


# --- double sextics -------------------------------------------------------------

def test_double_sextic_matches_naive():
    rng = random.Random(9)
    exps = [(6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (1, 4, 1), (3, 3, 0)]
    fermat_sextic = DoubleSextic.from_dict({(6, 0, 0): 1, (0, 6, 0): 1,
                                            (0, 0, 6): 1})
    assert count_double_sextic(fermat_sextic, FieldCtx(3)) == \
        _naive_double_sextic_count(fermat_sextic, 3) == 10
    for p in (3, 7):
        for _ in range(3):
            f = DoubleSextic.from_dict({e: rng.randrange(1, p) for e in exps})
            assert count_double_sextic(f, FieldCtx(p)) == \
                _naive_double_sextic_count(f, p)


def test_double_sextic_square_branch():
    # w^2 = (c z^3)^2: chi = 1 away from z = 0, so N = 2q^2 + q + 1
    for p, c in ((3, 2), (7, 3)):
        f = DoubleSextic.from_dict({(0, 0, 6): c * c})
        q = p
        assert count_double_sextic(f, FieldCtx(p)) == 2 * q * q + q + 1


def test_double_sextic_square_scaling_invariance():
    f = DoubleSextic.from_dict({(6, 0, 0): 1, (0, 6, 0): 2, (0, 0, 6): 3,
                                (2, 2, 2): 5})
    g = DoubleSextic.from_dict({(6, 0, 0): 4, (0, 6, 0): 8, (0, 0, 6): 12,
                                (2, 2, 2): 20})  # 4 = 2^2 times f
    ctx = FieldCtx(7)
    assert count_double_sextic(f, ctx) == count_double_sextic(g, ctx)


def test_double_sextic_rejects_char_two():
    f = DoubleSextic.from_dict({(6, 0, 0): 1})
    with pytest.raises(UnsupportedError):
        count_double_sextic(f, FieldCtx(2))


# --- Jacobi fast path ------------------------------------------------------------

def test_jacobi_matches_direct_small():
    rng = random.Random(13)
    for p, r in ((5, 1), (13, 1)):
        ctx = FieldCtx(p, r)
        for _ in range(4):
            a = tuple(rng.randrange(1, p) for _ in range(4))
            surf = DiagonalQuartic(a)
            fast, _ = count_diagonal_quartic_jacobi(surf, ctx)
            assert fast == count_quartic(surf, ctx), a


def test_jacobi_eigenvalue_structure():
    ctx = FieldCtx(13)
    q = 13
    count, eigs = count_diagonal_quartic_jacobi(fermat_quartic(), ctx)
    assert len(eigs) == 22
    assert all(e.abs_squared() == q * q for e in eigs)
    total = eigs[0]
    for e in eigs[1:]:
        total = total + e
    assert total.is_rational()
    assert count == 1 + q * q + total.rational_value() == 128
    # the eigenvalue multiset is stable under complex conjugation
    plain = sorted(e.coeffs for e in eigs)
    conj = sorted(e.conjugate().coeffs for e in eigs)
    assert plain == conj


def test_jacobi_rejects_bad_fields():
    with pytest.raises(UnsupportedError):
        count_diagonal_quartic_jacobi(fermat_quartic(), FieldCtx(7))
    with pytest.raises(UnsupportedError):
        count_diagonal_quartic_jacobi(fermat_quartic(), FieldCtx(2))
    with pytest.raises(UnsupportedError):
        count_diagonal_quartic_jacobi(DiagonalQuartic((5, 1, 1, 1)),
                                      FieldCtx(5))
    with pytest.raises(UnsupportedError):  # not of diagonal shape
        count_diagonal_quartic_jacobi(dwork_pencil.member(1), FieldCtx(5))


# --- towers and records -----------------------------------------------------------

def test_count_record_trace():
    rec = CountRecord("h", 5, 1, 0)
    assert rec.q == 5 and rec.trace == -26
    rec = CountRecord("h", 5, 2, 1112)
    assert rec.q == 25 and rec.trace == 486


def test_count_tower_fermat():
    records = count_tower(fermat_quartic(), 5, 2)
    assert [rec.count for rec in records] == [0, 1112]
    assert [rec.trace for rec in records] == [-26, 486]
    only_one = count_tower(fermat_quartic(), 5, 1)
    assert only_one[0].count == count_quartic(fermat_quartic(), FieldCtx(5))


def test_count_tower_cache_short_circuits(tmp_path, monkeypatch):
    import k3arith.count as count_mod
    cache = CountCache(tmp_path / "counts.jsonl")
    first = count_tower(fermat_quartic(), 5, 2, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("recount attempted despite a warm cache")

    monkeypatch.setattr(count_mod, "_affine_scan", boom)
    monkeypatch.setattr(count_mod, "count_diagonal_quartic_jacobi", boom)
    again = count_tower(fermat_quartic(), 5, 2, cache=cache)
    assert [rec.count for rec in again] == [rec.count for rec in first]


def test_count_tower_feasibility():
    with pytest.raises(UsageError):
        count_tower(fermat_quartic(), 5, 7)
    with pytest.raises(UsageError):
        count_tower(dwork_pencil.member(1), 7, 4)
    with pytest.raises(UsageError):
        count_tower(fermat_quartic(), 5, 0)


# --- smoothness --------------------------------------------------------------------

def test_smoothness_fermat():
    for p in (3, 5, 7, 13):
        assert is_smooth_quartic(fermat_quartic(), FieldCtx(p))


def test_smoothness_dwork_sweep():
    # rational singular points exist exactly at the discriminant locus here
    for lam in range(7):
        member = dwork_pencil.member(lam)
        assert is_smooth_quartic(member, FieldCtx(7)) == \
            dwork_pencil.is_smooth_member(lam, 7), lam
    assert not dwork_pencil.is_smooth_member(3, 7)
    assert not dwork_pencil.good_reduction(2)


def test_no_dwork_member_is_smooth_in_characteristic_2():
    assert not any(dwork_pencil.is_smooth_member(lam, 2) for lam in range(4))


def test_smoothness_catches_singular_models():
    nodal = Quartic.from_dict({(2, 2, 0, 0): 1, (0, 0, 4, 0): 1,
                               (0, 0, 0, 4): 1})
    assert not is_smooth_quartic(nodal, FieldCtx(5))
    assert not is_smooth_quartic(fermat_quartic(), FieldCtx(2))


def test_smoothness_feasibility_guard():
    with pytest.raises(UsageError):  # F_121 is admitted since priced by _route
        is_smooth_quartic(fermat_quartic(), FieldCtx(17, 2))
