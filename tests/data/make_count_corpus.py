"""Makes and extends count_corpus.ldjson, the counts that every route of
`k3arith.count` must reproduce (tests/test_count_corpus.py).

A record holds a model ("quartic", "double_sextic" or "diagonal"), its
integer coefficients in the library's monomial order, p, r, the count and
the routes that agreed on it when it was made:

- "scan": the stratum scan, `count_quartic` or `count_double_sextic`;
- "brute": `brute_count` of bench/checks.py, which builds its own field
  (another modulus for r > 1) and evaluates every monomial at every point;
- "jacobi" and "closed_form": the Jacobi sums of a quartic whose only
  monomials mod p are a_i x_i^4, built by `DiagonalQuartic` or from all
  its coefficients, and its count as a plane or a quadric;
- "pencil": the one scan of the Dwork pencil over F_p, tallied by member,
  a route of earlier versions that only records on file name;
- "fibre": the count over F_p of a quartic whose only monomials mod p are
  a_i x_i^4, by the fibres of x -> x^4;
- "torus": the count over F_p of a quartic whose only monomials mod p
  are a_i x_i^4 and e x0 x1 x2 x3, e nonzero mod p, by the fibres of
  x -> x^4 on the torus.

Records are only ever added: a candidate already on file is recounted by
its routes and must agree with the file; a new one is appended.  Run from
the repository root:

    PYTHONPATH=src python tests/data/make_count_corpus.py
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "bench"))
from checks import brute_count, dwork_member  # noqa: E402

from k3arith import count  # noqa: E402
from k3arith.ff import FieldCtx  # noqa: E402

CORPUS = os.path.join(HERE, "count_corpus.ldjson")
MODELS = {"quartic": count.Quartic, "double_sextic": count.DoubleSextic,
          "diagonal": count.DiagonalQuartic}
BRUTE_MODELS = {"quartic": "quartic", "double_sextic": "sextic",
                "diagonal": "diagonal"}


def _dense(rng, p, n):
    out = []
    while len(out) < n:
        c = rng.randint(-50, 50)
        if c % p:
            out.append(c)
    return out


DIAGONAL = ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))


def _quartic(d):
    return list(count.Quartic.from_dict(d).coeffs)


def _dwork_routes(lam):
    """The Fermat member lam = 0 has no x0 x1 x2 x3 term: fibres, not the
    torus."""
    return ("torus" if lam else "fibre", "scan")


def candidates():
    """(model, coeffs, p, r, routes) in a fixed order; append only."""
    rng = random.Random(2026)
    for p, r in ((2, 4), (3, 3), (2, 6), (3, 4), (101, 1), (11, 2), (5, 3),
                 (2, 7), (131, 1), (13, 2)):
        yield "quartic", _dense(rng, p, 35), p, r, ("scan", "brute")
    for p, r in ((7, 3), (1009, 1)):
        yield "double_sextic", _dense(rng, p, 28), p, r, ("scan", "brute")
    # degenerate quartics: a cone with vertex (0:0:0:1), four planes, and
    # in characteristic 2 one whose partials all vanish
    cone = _quartic({(4, 0, 0, 0): 1, (0, 4, 0, 0): 2, (0, 0, 4, 0): 3})
    planes = _quartic({(1, 1, 1, 1): 1})
    flat = _quartic({(4, 0, 0, 0): 1, (0, 2, 2, 0): 1, (0, 0, 0, 4): 1})
    for coeffs, p, r in ((cone, 13, 1), (cone, 3, 2), (planes, 7, 1),
                         (planes, 2, 3), (flat, 2, 3), (flat, 2, 4)):
        yield "quartic", coeffs, p, r, ("scan", "brute")
    yield "diagonal", [1, 2, 3, 7], 7, 1, ("scan", "brute")  # p | a_3
    for a, p, levels in (((1, 1, 1, 1), 5, (1, 2, 3)),
                         ((20, -28, 25, 25), 3, (1, 2, 3, 4)),
                         ((1, 2, 3, 4), 7, (1, 2)),
                         ((-1, 2, -3, 5), 13, (1, 2)),
                         ((1, 3, 5, 7), 2, (1, 2, 3, 4)),
                         ((2, 4, 6, 8), 2, (1, 2))):
        for r in levels:
            fast = p != 2 and p ** r % 4 == 1
            yield ("diagonal", list(a), p, r,
                   ("jacobi" if fast else "closed_form", "scan"))
    for p in (29, 53):
        for lam in range(p):
            yield "quartic", dwork_member(lam), p, 1, _dwork_routes(lam)
    # quartics of diagonal shape over F_p: the Fermat quartic and a twist
    # as plain quartics, then diagonal quartics with p | a_i
    for p in (101, 211, 401, 1009):
        for a in ((1, 1, 1, 1), _dense(rng, p, 4)):
            yield ("quartic", _quartic(dict(zip(DIAGONAL, a))), p, 1,
                   ("fibre", "scan"))
    yield "quartic", _quartic(dict.fromkeys(DIAGONAL, 1)), 2, 1, (
        "fibre", "brute")
    for a, p in (((1, 2, 3, 11), 11), ((5, 10, 1, 2), 5), ((0, 1, 2, 3), 13),
                 ((3, 0, 2, 6), 3), ((13, 1, 1, 1), 13)):
        yield "diagonal", list(a), p, 1, ("fibre", "brute")
    for a, p in (((1, 2, 3, 211), 211), ((101, 7, 202, -5), 101)):
        yield "diagonal", list(a), p, 1, ("fibre", "scan")
    # plain quartics of diagonal shape over extensions, counted as the
    # diagonal quartics they are; then r = 1 past the scan budget
    for p, r in ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (13, 2),
                 (3, 5)):
        route = "jacobi" if p ** r % 4 == 1 else "closed_form"
        for a in ((1, 1, 1, 1), _dense(rng, p, 4)):
            yield ("quartic", _quartic(dict(zip(DIAGONAL, a))), p, r,
                   (route, "scan"))
    for p in (5801, 10009):
        for a in ((1, 1, 1, 1), _dense(rng, p, 4)):
            yield "diagonal", list(a), p, 1, ("fibre", "jacobi")
    # the shape of the Dwork pencil with general a_i at p = 1 mod 4: a
    # dense a, then p | a_0, p | a_1 and a_2, and every a_i = 0 mod p
    for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101):
        d, e = _dense(rng, p, 4), _dense(rng, p, 1)[0]
        for a in (d, [p] + d[1:], [d[0], -p, 2 * p, d[3]], [0, p, 0, -p]):
            coeffs = _quartic({**dict(zip(DIAGONAL, a)), (1, 1, 1, 1): e})
            yield "quartic", coeffs, p, 1, ("torus", "scan")
    # every Dwork member over F_31, p = 3 mod 4
    for lam in range(31):
        yield "quartic", dwork_member(lam), 31, 1, _dwork_routes(lam)


def by_route(route, model, coeffs, p, r):
    surface, ctx = MODELS[model](tuple(coeffs)), FieldCtx(p, r)
    if route == "scan":
        if model == "double_sextic":
            return count.count_double_sextic(surface, ctx)
        return count.count_quartic(surface, ctx)
    if route == "brute":
        return brute_count(BRUTE_MODELS[model], coeffs, p, r)
    if route == "jacobi":
        return count.count_diagonal_quartic_jacobi(surface, ctx)[0]
    if route == "closed_form":
        return count.count_diagonal_quartic_quadric(surface, ctx)
    if route == "fibre":
        return count.count_diagonal_quartic_fibres(surface, ctx)
    if route == "torus":
        return count.count_torus_fibres(surface, ctx)
    raise ValueError(route)


def main():
    on_file = {}
    if os.path.exists(CORPUS):
        with open(CORPUS, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["model"], tuple(rec["coeffs"]), rec["p"], rec["r"])
                on_file[key] = rec["count"]
    new = []
    for model, coeffs, p, r, routes in candidates():
        counts = {route: by_route(route, model, coeffs, p, r)
                  for route in routes}
        key = (model, tuple(coeffs), p, r)
        if len(set(counts.values())) != 1 or on_file.get(
                key, counts[routes[0]]) != counts[routes[0]]:
            sys.exit(f"disagreement on {key}: {counts}, "
                     f"on file {on_file.get(key)}")
        if key not in on_file:
            new.append({"model": model, "coeffs": coeffs, "p": p, "r": r,
                        "count": counts[routes[0]], "routes": list(routes)})
    with open(CORPUS, "a", encoding="utf-8") as fh:
        for rec in new:
            fh.write(json.dumps(rec) + "\n")
    print(f"{len(on_file)} records on file agree, {len(new)} appended")


if __name__ == "__main__":
    main()
