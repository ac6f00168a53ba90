"""Shared builders for randomized and sweep-style checks."""

import os
import random
from fractions import Fraction

import detring
from detring import kernels
from detring.errors import ParameterError, SpaceMismatchError
from detring.poly import Poly


def parameter_triples(max_m=3, max_n=3, proper=False):
    """All (m, n, r) with m <= max_m, n <= max_n and 1 <= r <= min(m, n).

    With proper=True the rank is restricted to r < min(m, n), the range on
    which the power classification is defined.
    """
    out = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            top = min(m, n) - 1 if proper else min(m, n)
            for r in range(1, top + 1):
                out.append((m, n, r))
    return out


def random_monomial(space, rng, degree):
    """A uniform-ish exponent tuple of exactly the given total degree."""
    e = [0] * space.nvars
    for _ in range(degree):
        e[rng.randrange(space.nvars)] += 1
    return tuple(e)


def random_poly(space, rng, max_degree=3, max_terms=4):
    """A random nonzero polynomial with small rational coefficients."""
    while True:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                terms.append((random_monomial(space, rng, rng.randint(0, max_degree)), c))
        f = Poly(space, terms)
        if f.terms:
            return f


def random_homogeneous(space, rng, degree, max_terms=4):
    """A random nonzero homogeneous polynomial of the given degree."""
    while True:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                terms.append((random_monomial(space, rng, degree), c))
        f = Poly(space, terms)
        if f.terms:
            return f


def drevlex_key(exps):
    """Tuple reference for the packed term order: bigger key, bigger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def compare_monomials(space, a, b):
    """-1, 0, or 1 as exponent tuples a <, =, > b in the space's order."""
    if len(a) != space.nvars or len(b) != space.nvars:
        raise SpaceMismatchError(
            f"exponent tuples of length {len(a)}, {len(b)} on a space with {space.nvars} variables"
        )
    ka = drevlex_key(a)
    kb = drevlex_key(b)
    return (ka > kb) - (ka < kb)


def cone_membership(v, system):
    """Brute-force reference: does the rational vector v satisfy every cone functional?"""
    yz = system.params.yz_space
    if len(v) != yz.nvars:
        raise ParameterError(f"vector of length {len(v)} on a space with {yz.nvars} variables")
    return kernels.system_holds(system.equations, system.inequalities, v)


def seeded(seed):
    return random.Random(seed)


def subprocess_env(**extra):
    """The current environment for a child interpreter that must import detring.

    The directory holding the imported ``detring`` package goes first on
    ``PYTHONPATH`` as an absolute path, ahead of any existing entries, so the
    child finds the same package whatever its working directory and however
    the parent made the package importable (an install, or a relative
    ``PYTHONPATH=src``). Keyword arguments set further variables.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(detring.__file__)))
    entries = [root] + [e for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(entries), **extra)
