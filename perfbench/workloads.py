"""Seeded query lists for the three benchmark workloads.

Each workload is a list of ``detring`` command lines (argv lists without the
program name).  The seed decides everything that varies between runs:
coefficients, groupings, orientations, witness offsets and the order of the
queries.  The program never sees the seed; it only receives the argv lists.

Where one random input can cost ten times another (straightening at (4,4,3)
and larger, the cone queries), the seed varies the input but not its size
class: monomial supports come from a pool drawn once with ``POOL_SEED``,
formats are only transposed, and the parameter points are fixed.  That keeps
the work of a pass nearly the same for every seed, so a change in the timings
reflects the program and not the draw.

This module imports nothing from ``detring``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

DEFAULT_SEED = 0
POOL_SEED = 1

WORKLOADS = ("straighten-member", "cone-certify", "enumerate-eliminate")

# Degree-6 monomials at (5,5,4) whose straightening takes 0.3-0.5 s each in
# pure Python, transposed or not; a random degree-6 monomial there costs
# anywhere from 0.05 s to 20 s, so the stretch set is pinned and only
# coefficients and orientation are seeded.  Four of them make the stretch
# time long enough to average out sub-second swings in the host's speed.
STRETCH_MONOMIALS_554 = (
    ((4, 5), (1, 2), (5, 4), (3, 4), (1, 4), (1, 3)),
    ((2, 5), (1, 3), (1, 4), (4, 4), (4, 2), (1, 4)),
    ((3, 2), (3, 3), (5, 1), (3, 3), (3, 2), (1, 2)),
    ((1, 1), (3, 4), (4, 3), (1, 1), (2, 2), (5, 4)),
)


def query(argv, stretch=False, **expect):
    """One benchmark query: the argv, whether it is a stretch point, and
    facts the generator knows about the answer (e.g. ``in_ideal=True``)."""
    return {"argv": [str(a) for a in argv], "stretch": stretch, "expect": expect}


def _fmt(c):
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def _coeff(rng):
    """A nonzero rational that is not an integer, so arithmetic stays in Fraction."""
    den = rng.choice((2, 3, 5, 7))
    num = rng.choice([k for k in range(-9, 10) if k % den])
    return Fraction(num, den)


def poly_text(terms):
    """Grammar text of [(coefficient, [(i, j), ...]), ...]; like terms may repeat."""
    out = []
    for c, vars_ in terms:
        body = "*".join(f"x[{i},{j}]" for i, j in vars_)
        mag = _fmt(abs(c))
        text = body if mag == "1" else f"{mag}*{body}"
        if not out:
            out.append(f"-{text}" if c < 0 else text)
        else:
            out.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(out)


def _random_monomial(rng, m, n, deg):
    return tuple((rng.randint(1, m), rng.randint(1, n)) for _ in range(deg))


def _transpose(vars_):
    return tuple((j, i) for i, j in vars_)


def _minor_terms(rows, cols):
    """Expansion of the minor [rows|cols] as (sign, [(i, j), ...]) pairs."""
    out = []
    for perm in permutations(range(len(cols))):
        inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                         if perm[a] > perm[b])
        out.append((-1 if inversions % 2 else 1, [(rows[k], cols[perm[k]]) for k in range(len(rows))]))
    return out


def _minor_built(rng, m, n, r, deg):
    """Sum of two (r+1)-minors times monomials, total degree ``deg``: in the ideal."""
    terms = []
    for _ in range(2):
        rows = sorted(rng.sample(range(1, m + 1), r + 1))
        cols = sorted(rng.sample(range(1, n + 1), r + 1))
        c = _coeff(rng)
        mono = list(_random_monomial(rng, m, n, deg - (r + 1)))
        for sign, vars_ in _minor_terms(rows, cols):
            terms.append((sign * c, vars_ + mono))
    return terms


def _space(m, n, r):
    return ["--m", m, "--n", n, "--r", r]


def straighten_member(seed):
    """Straightening and membership at (3,3,2), (4,4,3), (5,5,3); stretch at (5,5,4)."""
    rng = random.Random(seed)
    pool_rng = random.Random(POOL_SEED)
    straightens = []  # (m, n, r, terms, stretch)
    for vars_ in STRETCH_MONOMIALS_554:
        if rng.random() < 0.5:
            vars_ = _transpose(vars_)
        straightens.append((5, 5, 4, [(_coeff(rng), vars_)], True))
    # Pooled supports: the seed pairs them up, orients them and picks coefficients.
    for (m, n, r), counts in (((5, 5, 3), {6: 4, 5: 6}), ((4, 4, 3), {6: 6, 5: 10})):
        for deg, count in counts.items():
            pool = [_random_monomial(pool_rng, m, n, deg) for _ in range(count)]
            rng.shuffle(pool)
            for a, b in zip(pool[::2], pool[1::2]):
                if rng.random() < 0.5:
                    a, b = _transpose(a), _transpose(b)
                straightens.append((m, n, r, [(_coeff(rng), a), (_coeff(rng), b)], False))
    # (3,3,2) is cheap and evenly priced, so its supports are fully random.
    # Degree and term count are fixed per slot: they set the cost, and these
    # queries hold the median latency.
    for k in range(40):
        deg, count = (5, 6)[k % 2], (2, 3)[k // 2 % 2]
        terms = [(_coeff(rng), _random_monomial(rng, 3, 3, deg)) for _ in range(count)]
        straightens.append((3, 3, 2, terms, False))
    queries = []
    for m, n, r, terms, stretch in straightens:
        queries.append(query(["straighten", *_space(m, n, r), f"--poly={poly_text(terms)}"], stretch))
    # Member inputs: half are minor-built (in the ideal); the other half reuse
    # straightened polynomials, whose membership must match an empty expansion.
    members = []
    # (r+1)-minors at the larger points expand to ~50 terms of degree 5 whose
    # images cancel completely, ~0.1 s each.  Those twenty queries of one cost
    # sit just below the ~8 heavier ones, so the 90th latency percentile falls
    # inside them for every seed.
    for (m, n, r), count, degrees in (((3, 3, 2), 18, (5, 6)), ((4, 4, 3), 10, (5,)),
                                      ((5, 5, 3), 10, (5,))):
        for k in range(count):
            poly = f"--poly={poly_text(_minor_built(rng, m, n, r, degrees[k % len(degrees)]))}"
            members.append(query(["member", *_space(m, n, r), poly], in_ideal=True))
            if k == 0:
                queries.append(query(["straighten", *_space(m, n, r), poly], in_ideal=True))
    plain = [q for q in queries if not q["stretch"] and not q["expect"]]
    for q in rng.sample(plain, len(members)):
        members.append(query(["member", *q["argv"][1:]]))
    queries += members
    rng.shuffle(queries)
    warmup = ["straighten", *_space(3, 3, 2), "--poly=x[1,2]*x[2,1]*x[3,3]"]
    return {"warmup": [str(a) for a in warmup], "queries": queries}


def _orient(rng, m, n):
    """Seeded transposition of a format; both orientations cost about the same."""
    return (n, m) if m != n and rng.random() < 0.5 else (m, n)


def _eps(rng):
    return rng.choice(("1/2", "1/3", "2/3", "1/4", "3/4", "2/5", "3/5"))


def cone_certify(seed):
    """Cone enumeration and certificates over the desk range; stretch at 4x5 b10 and 6x6 b8."""
    rng = random.Random(seed)
    queries = []
    m, n = _orient(rng, 4, 5)
    queries.append(query(["cone-check", *_space(m, n, 2), "--deg-bound", 10], stretch=True))
    queries.append(query(["certify", *_space(6, 6, 2), "--ideal", rng.choice("pq"), "--t", 2,
                          "--eps", _eps(rng), "--deg-bound", 8], stretch=True))
    for m, n, r, b in ((3, 3, 2, 6), (3, 4, 2, 6), (4, 4, 2, 6), (3, 3, 1, 6), (4, 4, 1, 6),
                       (2, 3, 2, 6), (3, 5, 2, 6), (4, 5, 2, 8)):
        m, n = _orient(rng, m, n)
        queries.append(query(["cone-check", *_space(m, n, r), "--deg-bound", b]))
    # Certify both classes inside the Cohen-Macaulay range and one power
    # beyond it.  The degree bound is at least 2*r*t: below that the ideal
    # side of the shifted-cone check is empty and the check proves nothing.
    for m, n, r, top in ((3, 3, 1, 2), (3, 3, 2, 1), (3, 4, 2, 2), (4, 4, 1, 2), (4, 4, 2, 2),
                         (4, 5, 2, 2), (5, 5, 2, 1)):
        for ideal in "pq":
            mm, nn = _orient(rng, m, n)
            limit = (mm if ideal == "p" else nn) - r
            for t in range(1, min(limit, top) + 1):
                bound = max(6, 2 * r * t)
                queries.append(query(["certify", *_space(mm, nn, r), "--ideal", ideal, "--t", t,
                                      "--eps", _eps(rng), "--deg-bound", bound]))
            queries.append(query(["certify", *_space(mm, nn, r), "--ideal", ideal,
                                  "--t", limit + 1 + rng.randrange(2)]))
    for m, n, r, d in ((3, 3, 2, 4), (4, 4, 2, 4), (4, 4, 3, 3), (3, 4, 2, 4), (3, 3, 1, 5),
                       (4, 5, 2, 3), (2, 4, 2, 4), (3, 5, 3, 3), (5, 5, 2, 3), (3, 4, 1, 5)):
        m, n = _orient(rng, m, n)
        queries.append(query(["hilbert", *_space(m, n, r), "--deg", d, "--method", "lattice"]))
    for m, n, r, b in ((3, 3, 2, 4), (3, 4, 2, 4), (3, 3, 2, 6), (2, 3, 2, 5), (4, 4, 2, 4)):
        m, n = _orient(rng, m, n)
        queries.append(query(["tilde-check", *_space(m, n, r), "--deg-bound", b]))
    # Ten certificates of one cost (~40 ms) sit just below the ~7 heavier
    # queries, so the 90th latency percentile falls inside them for every seed
    # instead of on a cliff between two sizes.  p at 4x5 and q at 5x4 are the
    # same computation.
    for _ in range(10):
        m, n, ideal = rng.choice(((4, 5, "p"), (5, 4, "q")))
        queries.append(query(["certify", *_space(m, n, 2), "--ideal", ideal, "--t", 1,
                              "--eps", _eps(rng), "--deg-bound", 6]))
    formats = [(m, n, r) for m in range(2, 7) for n in range(2, 7) for r in range(1, min(m, n))]
    for _ in range(30):
        m, n, r = rng.choice(formats)
        ideal = rng.choice("pq")
        t = rng.randint(0, (m if ideal == "p" else n) - r + 2)
        queries.append(query(["classify", *_space(m, n, r), "--ideal", ideal, "--t", t]))
    for _ in range(20):
        queries.append(query(["mcm-classes", *_space(*rng.choice(formats))]))
    rng.shuffle(queries)
    warmup = ["certify", *_space(3, 3, 2), "--ideal", "p", "--t", 1]
    return {"warmup": [str(a) for a in warmup], "queries": queries}


def _delta_text(rows, cols):
    return f"[{' '.join(map(str, rows))}|{' '.join(map(str, cols))}]"


def enumerate_eliminate(seed):
    """Basis enumeration, elimination and counting; stretch at basis 5x5 r3 d5 and a ladder."""
    rng = random.Random(seed)
    queries = [
        query(["basis", *_space(5, 5, 3), "--deg", 5], stretch=True),
        query(["ladder-check", *_space(3, 3, 3), "--delta", "[2|2]", "--deg-bound", 4], stretch=True),
    ]
    for m, n, r, d in ((3, 3, 2, 3), (4, 4, 2, 3), (4, 4, 3, 3), (3, 4, 2, 4), (2, 3, 1, 4),
                       (2, 4, 2, 3), (3, 5, 2, 3), (4, 5, 1, 3)):
        m, n = _orient(rng, m, n)
        queries.append(query(["basis", *_space(m, n, r), "--deg", d]))
    for m, n, r, d in ((3, 3, 2, 3), (3, 4, 2, 3), (4, 4, 2, 3), (2, 3, 1, 4), (3, 3, 1, 4),
                       (2, 4, 2, 3), (3, 3, 2, 4), (4, 4, 3, 3)):
        m, n = _orient(rng, m, n)
        for method in ("bitableaux", "rank"):
            queries.append(query(["hilbert", *_space(m, n, r), "--deg", d, "--method", method]))
    # Ladders need r = min(m, n); transposing swaps the two sides of delta.
    for m, n, rows, cols, b in ((3, 3, (2,), (2,), 3), (3, 3, (2,), (3,), 3), (2, 3, (1,), (2,), 3),
                                (3, 3, (1, 2), (2, 3), 3), (2, 2, (2,), (1,), 4), (2, 3, (2,), (2,), 3)):
        if rng.random() < 0.5:
            m, n, rows, cols = n, m, cols, rows
        queries.append(query(["ladder-check", *_space(m, n, min(m, n)),
                              "--delta", _delta_text(rows, cols), "--deg-bound", b]))
    # As in cone-certify, the 90th latency percentile should fall inside a
    # block of equal-cost queries: ten bases of ~25 ms join the ~25 ms basis
    # and rank queries above, and 112 millisecond-scale mu/mult queries put
    # that block at the 90th percentile.
    for _ in range(10):
        m, n = _orient(rng, 3, 4)
        queries.append(query(["basis", *_space(m, n, 2), "--deg", 4]))
    formats = [(m, n, r) for m in range(2, 8) for n in range(2, 8) for r in range(1, min(m, n))]
    for _ in range(56):
        m, n, r = rng.choice(formats)
        queries.append(query(["mu", *_space(m, n, r), "--ideal", rng.choice("pq"),
                              "--t", rng.randint(0, 8)]))
    for _ in range(56):
        queries.append(query(["mult", *_space(*rng.choice(formats))]))
    rng.shuffle(queries)
    warmup = ["basis", *_space(3, 3, 2), "--deg", 3]
    return {"warmup": [str(a) for a in warmup], "queries": queries}


BUILDERS = {
    "straighten-member": straighten_member,
    "cone-certify": cone_certify,
    "enumerate-eliminate": enumerate_eliminate,
}


def build(workload, seed):
    """The warm-up argv and the query list of one workload for one seed."""
    return BUILDERS[workload](seed)
