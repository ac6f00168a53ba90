"""Shared builders for randomized and sweep-style checks."""

import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import detring
from detring import cone, kernels
from detring.counting import binomial
from detring.errors import (
    InternalCheckError,
    NotInSemigroupError,
    ParameterError,
    SpaceMismatchError,
)
from detring.generic_point import (
    SubstitutionMap,
    decode_standard,
    eval_bitableau,
    minor_polynomial,
    phi,
)
from detring.linalg import Eliminator, clear_denominators
from detring.poly import Poly
from detring.straighten import StandardCombination
from detring.tableaux import Minor, all_minors, enumerate_standard, minor_leq


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


def _monomials_of_degree(k, d):
    """Exponent tuples of length k >= 1 with entry sum d, lexicographically largest first."""
    return cone._fills((0,) * k, None, d)[::-1]


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


def monomial_image(subst, exps):
    """Reference for ``SubstitutionMap._combination_image``: the packed image of
    the x-monomial with exponents ``exps``, one x image at a time from 1."""
    limit = subst.yz_space.key_limit
    prod = {0: 1}
    for pos, e in enumerate(exps):
        for _ in range(e):
            prod = kernels.poly_mul(prod, subst._images[pos].packed, limit)
    return prod


def phi_by_terms(f, subst):
    """Reference for ``generic_point.phi``: each term's image expanded on its own
    (``monomial_image``), then scaled and added."""
    out = {}
    for key, coef in f.packed.items():
        kernels.poly_addmul(out, coef, monomial_image(subst, f.space.unpack(key)))
    return Poly._raw(subst.yz_space, out)


def straighten_full(f, params, subst=None):
    """Reference for ``straighten``: the same loop with no window, each image
    expanded in full by ``eval_bitableau``."""
    if subst is None:
        subst = SubstitutionMap(params)
    scale, scaled = clear_denominators(f.packed)
    rest = phi(Poly._raw(f.space, scaled), subst).packed
    result = []
    while rest:
        lead = kernels.leading_monomial(rest)
        lam = rest[lead]
        try:
            bitab = decode_standard(subst.yz_space.unpack(lead), params)
        except NotInSemigroupError as exc:
            raise InternalCheckError(
                f"leading monomial of a substituted polynomial failed to decode: {exc}"
            ) from exc
        image = eval_bitableau(bitab, params, "YZ")
        kernels.poly_addmul(rest, -lam, image.packed)
        if lead in rest:
            raise InternalCheckError("leading term failed to cancel during straightening")
        result.append((Fraction(lam, scale), bitab))
    return StandardCombination(params, tuple(result))


def ladder_family(params, delta, d, side):
    """Every product gamma * x^a of degree d that ``verify_ladder`` spans, gamma
    a minor delta does not grow into, in its order: packed term dicts on the x
    side ("X") or through the substitution ("YZ")."""
    subst = SubstitutionMap(params)
    limit = (params.x_space if side == "X" else subst.yz_space).key_limit
    for g in all_minors(params):
        if minor_leq(delta, g) or g.size > d:
            continue
        minor = minor_polynomial(g, params, side).packed
        for exps in _monomials_of_degree(params.x_space.nvars, d - g.size):
            x_part = {kernels.pack(exps): 1} if side == "X" else monomial_image(subst, exps)
            yield kernels.poly_mul(minor, x_part, limit)


def ladder_pivots_by_all_products(params, delta, d):
    """Reference for ``verify_ladder``'s degree-d pivots: the whole family
    substituted and reduced, with no x-side prefilter."""
    elim = Eliminator()
    for row in ladder_family(params, delta, d, "YZ"):
        elim.reduce(row)
    return set(elim.pivots)


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


@cache
def cone_system(params, variant="E"):
    """Brute-force oracle: the cone's families (1)-(5) as (equations, inequalities).

    Each functional is ((position, coef), ...) on the y/z space: equations
    (1), then the couplings (5), the last one (s_r = 0) only for variant E;
    inequalities (2), (3), then (4) one position each.
    """
    m, n, r = params.m, params.n, params.r
    y, z = params.yz_space.y, params.yz_space.z
    eqs = [((y(i, j), 1),) for i in range(1, m + 1) for j in range(i + 1, r + 1)]
    eqs += [((z(u, v), 1),) for u in range(1, r + 1) for v in range(1, u)]
    defects = [[(y(i, j), 1) for i in range(1, m + 1)] + [(z(j, v), -1) for v in range(1, n + 1)]
               for j in range(1, r + 1)]
    eqs += [tuple(defects[j] + [(p, -c) for p, c in defects[j + 1]]) for j in range(r - 1)]
    if variant == "E":
        eqs.append(tuple(defects[-1]))
    ineqs = [tuple([(y(i, j - 1), 1) for i in range(j - 1, k)]
                   + [(y(i, j), -1) for i in range(j, k + 1)])
             for j in range(2, r + 1) for k in range(j, m + 1)]
    ineqs += [tuple([(z(u - 1, t), 1) for t in range(u - 1, w)]
                    + [(z(u, t), -1) for t in range(u, w + 1)])
              for u in range(2, r + 1) for w in range(u, n + 1)]
    nonneg = {y(i, j) for j in range(1, r + 1) for i in range(j + 1, m + 1)} | {y(r, r), z(r, r)}
    nonneg |= {z(u, v) for u in range(1, r + 1) for v in range(u + 1, n + 1)}
    ineqs += [((p, 1),) for p in sorted(nonneg)]
    return tuple(eqs), tuple(ineqs)


def _signed_permutations(t):
    """(permutation of range(t), its sign) pairs, each sign (-1)^(t - cycles)
    from the permutation's cycles, not from the package's inversion count."""
    out = []
    for perm in permutations(range(t)):
        seen, cycles = set(), 0
        for start in range(t):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
        out.append((perm, (-1) ** (t - cycles)))
    return out


def det_expand(matrix, space):
    """Exact determinant of a square matrix of polynomials, by permutations.

    The Leibniz loop over ``Poly`` entries that ``generic_point._det_keys``
    replaced, kept as the oracle for every determinant of variables."""
    t = len(matrix)
    if t == 0:
        return Poly.constant(space, 1)
    limit = space.key_limit
    acc = {}
    for perm, sign in _signed_permutations(t):
        prod = matrix[0][perm[0]].packed
        for i in range(1, t):
            prod = kernels.poly_mul(prod, matrix[i][perm[i]].packed, limit)
        kernels.poly_addmul(acc, sign, prod)
    return Poly._raw(space, acc)


def variable_matrix(space, rows, cols, var):
    """The matrix of ``Poly.variable(space, var(a, b))`` over rows x cols."""
    return [[Poly.variable(space, var(a, b)) for b in cols] for a in rows]


def closure_cone_layers(params, variant, bound):
    """The (semigroup, lattice) points of each degree 0..bound, as packed ints,
    the semigroup by its closure: ``cone._cone_layers`` before the standard
    chains certified variant E, kept as the oracle.  It reads each name from
    ``cone``, so a monkeypatched generator list or join reaches it too."""
    layers = cone._semigroup_layers(cone.generators_semigroup(params, variant), bound)
    joins = (cone._join(params, cone._pairs(variant, params.r, (d,))) for d in range(bound + 1))
    return zip(layers, joins)


def lattice_slice(params, d):
    """The E cone points of y-degree d: those of ``lattice_points`` at bound 2d
    whose y block sums to d."""
    yc = params.yz_space.y_count
    return {v for v in cone.lattice_points(params, "E", 2 * d) if sum(v[:yc]) == d}


def cone_membership(v, params, variant="E"):
    """Brute-force reference: does the rational vector v satisfy every cone functional?"""
    nvars = params.yz_space.nvars
    if len(v) != nvars:
        raise ParameterError(f"vector of length {len(v)} on a space with {nvars} variables")
    return kernels.system_holds(*cone_system(params, variant), v)


def format_minor(minor):
    """Reference ``[rows|cols]`` text of a minor, formatted afresh each call."""
    return f"[{' '.join(map(str, minor.rows))}|{' '.join(map(str, minor.cols))}]"


def format_bitableau(bitab):
    """Reference text of a bitableau: its factors' texts joined, ``[|]`` when empty."""
    if not bitab.factors:
        return "[|]"
    return "".join(format_minor(f) for f in bitab.factors)


def minors_by_loops(params, max_size=None):
    """Reference for ``all_minors``: a nested loop over sizes, row tuples and
    column tuples."""
    top = min(params.m, params.n) if max_size is None else min(max_size, params.m, params.n)
    out = []
    for t in range(1, top + 1):
        for rows in combinations(range(1, params.m + 1), t):
            for cols in combinations(range(1, params.n + 1), t):
                out.append(Minor(rows, cols))
    return out


def successors_by_minor_leq(table, prev, t):
    """Reference for the minor table's ``(prev, t)`` lists: every size-t minor
    of the table that prev precedes, tested pair by pair, in the table's order."""
    return [d for d in table[None, t] if minor_leq(prev, d)]


def chain_ends(universe_size, r, length):
    """Brute-force oracle: chains s1 <= ... <= s_length (componentwise, length
    >= 1) of r-subsets of 1..universe_size, counted by their last subset, each
    step an all-pairs pass over the subsets."""
    subsets = list(combinations(range(1, universe_size + 1), r))
    counts = {s: 1 for s in subsets}
    for _ in range(length - 1):
        counts = {
            s: sum(c for s2, c in counts.items() if all(x <= y for x, y in zip(s2, s)))
            for s in subsets
        }
    return counts


def det_bareiss(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    t = len(rows)
    for row in rows:
        if len(row) != t:
            raise ValueError("matrix is not square")
    if t == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(t - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, t) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, t):
            for j in range(k + 1, t):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[t - 1][t - 1]


@cache
def hodge_dim_by_determinant(r, n, t):
    """The paper's determinant for the degree-t piece of the Grassmannian
    coordinate ring (and mu_power): det[ C(t+n-j, n-i) ] over 1 <= i, j <= r."""
    rows = [[binomial(t + n - j, n - i) for j in range(1, r + 1)] for i in range(1, r + 1)]
    return det_bareiss(rows)


def multiplicity_by_determinant(m, n, r):
    """The paper's determinant for the multiplicity: det[ C(m+n-i-j, n-j) ]."""
    rows = [[binomial(m + n - i - j, n - j) for j in range(1, r + 1)] for i in range(1, r + 1)]
    return det_bareiss(rows)


def tilde_basis_count_by_listing(params, d1, d2):
    """Reference for ``invariants._tilde_basis_count``: list the degree-d basis
    and weigh each bitableau by the pure chains that grow into its first factor."""
    r = params.r
    if (d1 - d2) % r != 0:
        return 0
    if d1 >= d2:
        length, universe, degree, side = (d1 - d2) // r, params.m, d2, "rows"
    else:
        length, universe, degree, side = (d2 - d1) // r, params.n, d1, "cols"
    basis = enumerate_standard(params, degree)
    if length == 0:
        return len(basis)
    ends = chain_ends(universe, r, length)
    total = 0
    for bitab in basis:
        if not bitab.factors:
            total += sum(ends.values())
            continue
        bound = getattr(bitab.factors[0], side)
        k = min(len(bound), r)
        total += sum(c for s, c in ends.items() if all(s[i] <= bound[i] for i in range(k)))
    return total


_SPACE = (("--m", "3"), ("--n", "3"), ("--r", "2"))
# One well-formed query per subcommand at 3x3, as (option, value) pairs that
# give every option but --format and --seed.
SUBCOMMAND_QUERIES = (
    ("basis", (*_SPACE, ("--deg", "2"))),
    ("straighten", (*_SPACE, ("--poly", "x[1,2]*x[2,1] - 1/2*x[3,3]"))),
    ("member", (*_SPACE, ("--poly", "x[1,2]*x[2,1]"))),
    ("hilbert", (*_SPACE, ("--deg", "3"), ("--method", "rank"))),
    ("mu", (*_SPACE, ("--ideal", "q"), ("--t", "2"))),
    ("mult", _SPACE),
    ("classify", (*_SPACE, ("--ideal", "p"), ("--t", "2"))),
    ("certify", (*_SPACE, ("--ideal", "p"), ("--t", "1"), ("--eps", "1/3"), ("--deg-bound", "4"))),
    ("cone-check", (*_SPACE, ("--deg-bound", "3"))),
    ("tilde-check", (*_SPACE, ("--deg-bound", "3"))),
    ("ladder-check", (("--m", "3"), ("--n", "3"), ("--r", "3"), ("--delta", "[1|2]"),
                      ("--deg-bound", "2"))),
    ("mcm-classes", _SPACE),
)


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


def run_child(args, cap_mb=None, timeout=None, **kwargs):
    """``python *args`` in a child interpreter that imports this detring
    (``subprocess_env``), its output captured, as text unless ``text=False``
    is passed.  With ``cap_mb`` its address space is capped at that many MB;
    with ``timeout`` it is killed after that many seconds and
    ``subprocess.TimeoutExpired`` raised.  Other keywords go to
    ``subprocess.run``."""
    if cap_mb is not None:
        cap = (cap_mb << 20, cap_mb << 20)
        kwargs["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS, cap)
    kwargs.setdefault("text", True)
    return subprocess.run([sys.executable, *args], capture_output=True, env=subprocess_env(),
                          timeout=timeout, **kwargs)
