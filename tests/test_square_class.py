"""`zeta.square_class` by trial division, with sympy kept for the rest.

Trial division runs to `TRIAL_BOUND`; a cofactor left over is prime when
it is below the bound squared or passes `_intpoly.isprime`, and only a
composite cofactor goes to sympy's `factorint`.  The reference here
factors with `factorint` outright, on random rationals whose numerators and
denominators mix small primes with primes, products of two primes and
prime powers above the bound, so that every branch is taken.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import k3arith
from k3arith.zeta import TRIAL_BOUND, square_class

sympy = pytest.importorskip("sympy")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))


def _reference(x):
    frac = Fraction(x)
    n = frac.numerator * frac.denominator
    out = -1 if n < 0 else 1
    for prime, mult in sympy.factorint(abs(n)).items():
        if mult % 2:
            out *= prime
    return out


def _big_part(rng):
    """[(prime, exponent)] above the trial bound: nothing, one prime up to
    10^30, a power of one prime, or two primes below 10^7.  Two distinct
    primes stay small enough for factorint, which the fallback calls."""
    def prime(top):
        return int(sympy.nextprime(rng.randint(TRIAL_BOUND, top)))
    kind = rng.randrange(4)
    if kind == 0:
        return []
    if kind == 1:
        return [(prime(10 ** rng.randint(5, 30)), 1)]
    if kind == 2:  # a composite cofactor above bound^2 = 10^8
        return [(prime(10 ** 9), rng.randint(2, 3))]
    return [(prime(10 ** rng.randint(5, 7)), 1), (prime(10 ** 7), 1)]


def test_square_class_matches_factorint():
    rng = random.Random(2012)
    composite = 0
    for _ in range(400):
        factors = [(rng.choice((2, 3, 5, 7, 11, 13, 9973, 9967)),
                    rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
        big = _big_part(rng)
        composite += len(big) == 2 or any(e > 1 for _, e in big)
        num = den = 1
        for f, e in factors + big:
            if rng.random() < 0.5:
                num *= f ** e
            else:
                den *= f ** e
        x = Fraction(rng.choice((-1, 1)) * num, den)
        assert square_class(x) == _reference(x), x
    assert composite > 100


def test_square_class_fixed_values():
    p1, p2 = 10007, 10009
    assert square_class(p1 * p2) == p1 * p2
    assert square_class(Fraction(p1 * p1 * 6, p2 * p2)) == 6
    assert square_class(-p1 ** 3) == -p1
    big = 2 ** 89 - 1  # a Mersenne prime far past trial division
    assert square_class(Fraction(3, big)) == 3 * big
    assert square_class(big * big * 5) == 5


def _loads_sympy(expr):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys\nfrom k3arith.zeta import square_class\n{expr}\n"
            "print('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_sympy_only_for_a_composite_cofactor():
    assert not _loads_sympy("square_class(2 ** 16 * 3 * 9973 * (2 ** 61 - 1))")
    assert _loads_sympy("square_class(10007 * 10009)")
