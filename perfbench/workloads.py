"""Seeded request streams with answers known by construction.

The generators never call the code under test.  They carry their own exact
polynomial arithmetic (Fractions, optionally with sqrt(d) adjoined) and
derive every expected verdict from a construction that can be checked by
hand:

* true `check` verdicts use the easy direction of the fundamental theorem:
  if phi solves P then supp(phi) solves every theta(I)P tropically.  The
  systems are the bundled Q(sqrt 2) system with its polynomial solution, or
  P = E2(phi)*E1 - E1(phi)*E2 for differential monomials E1 != E2 plus
  x1[0..0] - phi1, all checked at supp(phi), and P(phi) = 0 is rechecked;
* false `check` verdicts add x1[0..0] - phi1 where it is missing and check
  at supp(phi1) + e_k instead.  For x1[0..0] - phi1 the evaluation is then
  Vert(phi1), and no vertex of it lies in Vert(phi1) + e_k (an antichain),
  so every vertex has a single witness;
* every `enumerate` system vanishes at a polynomial tuple phi whose support
  lies inside the box, so supp(phi) must be among the printed solutions;
* every `vertices` set consists of points in convex position on the
  hyperplane sum(x) = c (all of them vertices), plus integral midpoints of
  pairs of them and points dominating one of them (none of them vertices),
  plus cone generators that dominate a vertex.

A stream is a sequence of rounds; each round holds one request per template
of the workload, so every round costs about the same and a run measures
whole rounds.  The seed varies coefficients, exponents, point choices and
coordinate order, never the shape of a template.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------- arithmetic
#
# A field element is a pair (a, b) meaning a + b*sqrt(d); over Q, b == 0.
# A polynomial in t1..tm is a dict {exponent tuple: field element} without
# zero coefficients.

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _fmul(x, y, d):
    a, b = x
    c, e = y
    return (a * c + (b * e * d if d else 0), a * e + b * c)


def _add_into(acc, exp, c):
    a, b = acc.get(exp, ZERO)
    s = (a + c[0], b + c[1])
    if s == ZERO:
        acc.pop(exp, None)
    else:
        acc[exp] = s


def padd(p, q):
    out = dict(p)
    for e, c in q.items():
        _add_into(out, e, c)
    return out


def pneg(p):
    return {e: (-a, -b) for e, (a, b) in p.items()}


def pmul(p, q, d):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add_into(out, tuple(x + y for x, y in zip(e1, e2)), _fmul(c1, c2, d))
    return out


def ppow(p, n, m, d):
    out = {(0,) * m: ONE}
    for _ in range(n):
        out = pmul(out, p, d)
    return out


def ptheta(p, shift):
    """Iterated partial derivative d^shift p."""
    out = {}
    for e, (a, b) in p.items():
        if any(x < s for x, s in zip(e, shift)):
            continue
        f = 1
        for x, s in zip(e, shift):
            f *= math.perm(x, s)
        _add_into(out, tuple(x - s for x, s in zip(e, shift)), (a * f, b * f))
    return out


def eval_monomial(mono, phis, m, d):
    """E(phi) for a differential monomial given as ((var, J), power) pairs."""
    out = {(0,) * m: ONE}
    for (var, index), power in mono:
        out = pmul(out, ppow(ptheta(phis[var], index), power, m, d), d)
    return out


def eval_system_poly(terms, phis, m, d):
    """P(phi) for P given as (coefficient polynomial, monomial) pairs."""
    out = {}
    for coef, mono in terms:
        out = padd(out, pmul(coef, eval_monomial(mono, phis, m, d), d))
    return out


# ---------------------------------------------------------------- DSL text


def _rat(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def series_text(p) -> str:
    pieces = []
    for e in sorted(p):
        a, b = p[e]
        tvars = [f"t{k + 1}" + (f"^{x}" if x > 1 else "") for k, x in enumerate(e) if x]
        for value, sq in ((a, False), (b, True)):
            if value == 0:
                continue
            factors = [_rat(abs(value))] + (["sqrtd"] if sq else []) + tvars
            pieces.append((value < 0, "*".join(factors)))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out


def monomial_text(mono) -> str:
    return "*".join(
        f"x{var + 1}[{','.join(map(str, index))}]" + (f"^{power}" if power > 1 else "")
        for (var, index), power in mono
    )


def poly_text(terms) -> str:
    return " + ".join(f"({series_text(c)})" + (f"*{monomial_text(mono)}" if mono else "")
                      for c, mono in terms)


def point_set_text(points) -> str:
    return "{" + ",".join("(" + ",".join(map(str, p)) + ")" for p in sorted(points)) + "}"


def support_text(explicit, cones=()) -> str:
    if not cones:
        return point_set_text(explicit)
    cone = "cone" + point_set_text(cones)
    return point_set_text(explicit) + " + " + cone if explicit else cone


# ---------------------------------------------------------------- requests


@dataclass(frozen=True)
class Request:
    """One CLI invocation (arguments after `tropdiff`) and its known answer."""

    template: str
    argv: tuple[str, ...]      # argv[0] is the subcommand: check, enumerate or vertices
    expect: object             # verdict bool | known solution line | vertex-set text
    candidates: int            # candidate support tuples or points the request tests


def judge(req: Request, code: int, stdout: str, stderr: str) -> str | None:
    """None when the output is the known answer, otherwise why it is not."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    lines = stdout.splitlines()
    if req.argv[0] == "check":
        want = 0 if req.expect else 1
        if code != want:
            return f"exit code {code}, expected {want}"
        if not lines or lines[-1] != f"overall solution: {str(req.expect).lower()}":
            return "wrong or missing overall verdict line"
        return None
    if code != 0:
        return f"exit code {code}, expected 0"
    if req.argv[0] == "enumerate":
        if not lines or lines[-1] != f"{len(lines) - 1} solution(s)":
            return "solution count line does not match the listed solutions"
        if req.expect not in lines[:-1]:
            return f"known solution {req.expect} missing"
        return None
    if stdout.strip() != req.expect:
        return "vertex set differs from the constructed one"
    return None


def count_candidates(box, nvars) -> int:
    """Explicit-support tuples inside [0, box]^m: every subset of the grid per variable."""
    return (2 ** math.prod(b + 1 for b in box)) ** nvars


# ---------------------------------------------------------------- generators


def _rand_coef(rng, d):
    def frac():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))

    a = frac()
    b = frac() if d and rng.random() < 0.5 else Fraction(0)
    return (a, b)


def rand_poly(rng, d, nterms, box):
    """A nonzero polynomial with `nterms` distinct exponents inside the box."""
    grid = list(itertools.product(*(range(b + 1) for b in box)))
    return {e: _rand_coef(rng, d) for e in rng.sample(grid, min(nterms, len(grid)))}


def rand_monomial(rng, m, n, order, nkeys):
    keys = {}
    while len(keys) < nkeys:
        keys[(rng.randrange(n), tuple(rng.randint(0, order) for _ in range(m)))] = rng.randint(1, 2)
    return tuple(sorted(keys.items()))


def easy_direction_system(rng, m, n, d, *, phi_terms, phi_box, order, ncombos, nkeys,
                          max_coef_terms):
    """phi and polynomials vanishing at phi, as (coefficient, monomial) lists.

    Each polynomial is E_j(phi)*E_0 - E_0(phi)*E_j with E_0 != E_j, both of
    `nkeys` derivative variables.  E_0(phi) and E_j(phi) are nonzero, so both
    terms survive, and have at most `max_coef_terms` terms together, which
    keeps the cost of a template within a narrow band across seeds.
    """
    while True:
        phis = [rand_poly(rng, d, phi_terms, phi_box) for _ in range(n)]
        polys = []
        for _ in range(200):
            if len(polys) == ncombos:
                break
            e0 = rand_monomial(rng, m, n, order, nkeys)
            ej = rand_monomial(rng, m, n, order, nkeys)
            if e0 == ej:
                continue
            c0 = eval_monomial(e0, phis, m, d)
            cj = eval_monomial(ej, phis, m, d)
            if c0 and cj and len(c0) + len(cj) <= max_coef_terms:
                polys.append([(cj, e0), (pneg(c0), ej)])
        if len(polys) == ncombos:
            break
    return phis, polys


def _assert_vanishing(name, polys, phis, m, d):
    """The known answers rest on P(phi) = 0; recheck it before every request."""
    for terms in polys:
        if eval_system_poly(terms, phis, m, d):
            raise AssertionError(f"{name}: a polynomial does not vanish at phi")


def _common_args(m, n, d):
    args = ["-m", str(m), "-n", str(n)]
    return args + (["--sqrt", str(d)] if d else [])


def _anchor(phi1, m):
    """x1[0..0] - phi1: vanishes at phi and certifies the false verdicts."""
    return [({(0,) * m: ONE}, (((0, (0,) * m), 1),)), (pneg(phi1), ())]


def _shift(points, k):
    return [tuple(x + (1 if i == k else 0) for i, x in enumerate(p)) for p in points]


def _check_request(rng, name, m, n, d, k, verdict, phis, polys):
    _assert_vanishing(name, polys, phis, m, d)
    supports = [sorted(p) for p in phis]
    if not verdict:
        supports[0] = _shift(supports[0], rng.randrange(m))
    argv = ["check", *_common_args(m, n, d)]
    for terms in polys:
        argv += ["--poly", poly_text(terms)]
    argv += ["--supports", ";".join(point_set_text(s) for s in supports),
             "--derive-bound", str(k)]
    return Request(name, tuple(argv), verdict, 1)


def _q(*pairs):
    """Polynomial in t1, t2 from (exponent, a, b) triples, a + b*sqrt(2)."""
    return {e: (Fraction(a), Fraction(b)) for e, a, b in pairs}


def _x(var, i, j, power=1):
    return ((var, (i, j)), power)


# The bundled order-two system over Q(sqrt 2) and its polynomial solution.
BUNDLED_PHI = (
    _q(((2, 0), 1, 0), ((1, 1), 0, 1), ((0, 2), Fraction(1, 2), 0)),
    _q(((0, 0), 1, 0), ((0, 1), 0, Fraction(-1, 2)), ((3, 0), Fraction(1, 3), 0),
       ((2, 1), 0, Fraction(1, 2)), ((1, 2), Fraction(1, 2), 0), ((0, 3), 0, Fraction(1, 12))),
)
BUNDLED_SYSTEM = (
    [(_q(((0, 0), 1, 0)), (_x(0, 1, 0, 2),)), (_q(((0, 0), -4, 0)), (_x(0, 0, 0),))],
    [(_q(((0, 0), 1, 0)), (_x(0, 1, 1), _x(1, 0, 1))), (_q(((0, 0), -1, 0)), (_x(0, 0, 0),)),
     (_q(((0, 0), 1, 0)), ())],
    [(_q(((0, 0), 1, 0)), (_x(1, 2, 0),)), (_q(((0, 0), -1, 0)), (_x(0, 1, 0),))],
)


def check_bundled(rng, *, k, verdict):
    """The bundled Q(sqrt 2) system; the false case adds x1[0,0] - phi1."""
    polys = list(BUNDLED_SYSTEM) + ([] if verdict else [_anchor(BUNDLED_PHI[0], 2)])
    name = "bundled-" + str(verdict).lower()
    return _check_request(rng, name, 2, 2, 2, k, verdict, BUNDLED_PHI, polys)


def check_constructed(rng, *, name, m, n, d, k, verdict, **shape):
    phis, polys = easy_direction_system(rng, m, n, d, **shape)
    return _check_request(rng, name, m, n, d, k, verdict, phis, polys + [_anchor(phis[0], m)])


def enumerate_example(rng):
    """x1[1,0]*x1[0,1] - x1[0,0] at bound 1, box (3,2) or (2,3); phi = t1*t2."""
    box = rng.choice([(3, 2), (2, 3)])
    argv = ("enumerate", "-m", "2", "-n", "1", "--poly", "x1[1,0]*x1[0,1] - x1[0,0]",
            "--derive-bound", "1", "--box", ",".join(map(str, box)))
    return Request("example-3x2", argv, "{(1,1)}", count_candidates(box, 1))


def enumerate_constructed(rng, *, name, m, n, k, boxes, **shape):
    box = rng.choice(boxes)
    phis, polys = easy_direction_system(rng, m, n, None, phi_box=box, **shape)
    _assert_vanishing(name, polys, phis, m, None)
    argv = ["enumerate", *_common_args(m, n, None)]
    for terms in polys:
        argv += ["--poly", poly_text(terms)]
    argv += ["--derive-bound", str(k), "--box", ",".join(map(str, box))]
    known = " ; ".join(point_set_text(p) for p in phis)
    return Request(name, tuple(argv), known, count_candidates(box, n))


def _surface(rng, m, count, side, ends=False):
    """`count` points in convex position on sum(x) = c, coordinates permuted.

    The free coordinates y lie on a strictly convex surface (a parabola for
    m = 3, a paraboloid above) and the last coordinate is c - sum(y), an
    affine image, so every point is an extreme point of their hull.  With
    `ends`, the images of the grid corners 0 and (side, ..., side) come first.
    """
    grid = list(itertools.product(range(side + 1), repeat=m - 2))
    corners = [grid[0], grid[-1]] if ends else []
    picked = corners + rng.sample(grid[1:-1] if ends else grid, count - len(corners))
    ys = [g + (sum(a * a for a in g),) for g in picked]
    c = max(sum(y) for y in ys) + rng.randint(0, 3)
    perm = list(range(m))
    rng.shuffle(perm)
    return [tuple((y + (c - sum(y),))[i] for i in perm) for y in ys]


def _covered(q, explicit, cones):
    return q in explicit or any(all(a <= b for a, b in zip(g, q)) for g in cones)


def _unit_shifts(p):
    return [tuple(x + (i == k) for i, x in enumerate(p)) for k in range(len(p))]


def vertices_request(rng, *, name, m, count, side, midpoints, dominated, cones=0,
                     cone_scale=0, promote_bound=None):
    surface = _surface(rng, m, count, side, ends=promote_bound is not None)
    explicit = set(surface)
    gens = []
    if promote_bound is not None:
        # Promotion: the orthant of the vertex s0 = (0, .., 0, c) is covered
        # by s0 and the generators s0 + e_k, so normalization turns s0 into a
        # generator after scanning a box of about (bound + 2)^(m-1) * 3
        # points.  The large generator dominates the vertex s1, the image of
        # the far corner, whose smallest coordinate it keeps.
        s0, s1 = surface[0], surface[1]
        gens += _unit_shifts(s0)
        low = min(range(m), key=lambda i: s1[i])
        gens.append(tuple(x if i == low else max(x, promote_bound) for i, x in enumerate(s1)))
    tries = 0
    while len(explicit) < count + midpoints and tries < 50 * midpoints:
        tries += 1
        p, q = rng.sample(surface, 2)
        if all((a + b) % 2 == 0 for a, b in zip(p, q)):
            explicit.add(tuple((a + b) // 2 for a, b in zip(p, q)))
    for _ in range(dominated):
        explicit.add(rng.choice(_unit_shifts(rng.choice(surface))))
    for _ in range(cones):
        s = rng.choice(surface)
        axes = rng.sample(range(m), 2)
        gens.append(tuple(x + (rng.randint(1, cone_scale) if i in axes else 0)
                          for i, x in enumerate(s)))
    # Keep the normalization's orthant scan to the one designed promotion:
    # where every p + e_k of another explicit point p is in the set, drop one
    # of those points, or p itself if it is no vertex.  The vertex set stays.
    promoted = surface[0] if promote_bound is not None else None
    for p in sorted(explicit):
        if p == promoted or p not in explicit or _covered(p, (), gens):
            continue
        if all(_covered(q, explicit, gens) for q in _unit_shifts(p)):
            blocker = next((q for q in _unit_shifts(p) if q in explicit), None)
            if blocker is not None:
                explicit.discard(blocker)
            elif p not in surface:
                explicit.discard(p)
    argv = ("vertices", "--set", support_text(sorted(explicit), sorted(set(gens))))
    return Request(name, argv, point_set_text(surface), len(explicit) + len(set(gens)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple  # (generator, keyword arguments) per request of a round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check-sample",
            "Short check requests over Q and Q(sqrt 2), half true, half false: load "
            "parsing, derivation, series arithmetic and tropicalization, few LPs, and "
            "the start-up every CLI call pays.",
            (
                (check_bundled, dict(k=6, verdict=True)),
                (check_bundled, dict(k=4, verdict=False)),
                (check_constructed, dict(name="m1-q-true", m=1, n=1, d=None, k=6, verdict=True,
                                         phi_terms=3, phi_box=(4,), order=2, ncombos=2, nkeys=2,
                                         max_coef_terms=10)),
                (check_constructed, dict(name="m1-q2-false", m=1, n=2, d=2, k=5, verdict=False,
                                         phi_terms=3, phi_box=(3,), order=2, ncombos=2, nkeys=2,
                                         max_coef_terms=10)),
                (check_constructed, dict(name="m2-q-false", m=2, n=1, d=None, k=3, verdict=False,
                                         phi_terms=3, phi_box=(2, 2), order=1, ncombos=2, nkeys=2,
                                         max_coef_terms=10)),
                (check_constructed, dict(name="m2-q2-true", m=2, n=2, d=2, k=2, verdict=True,
                                         phi_terms=3, phi_box=(2, 2), order=1, ncombos=2, nkeys=2,
                                         max_coef_terms=10)),
                (check_constructed, dict(name="m3-q-true", m=3, n=1, d=None, k=1, verdict=True,
                                         phi_terms=3, phi_box=(1, 1, 1), order=1, ncombos=2, nkeys=2,
                                         max_coef_terms=10)),
            ),
        ),
        Workload(
            "enumerate-box",
            "Box searches of 1k-4k candidate tuples: time goes to is_solution, "
            "valuations, vertex-set products and many tiny cached LPs; series and "
            "derivation only in the short sample build.",
            (
                (enumerate_example, {}),
                (enumerate_constructed, dict(name="m1-n1", m=1, n=1, k=2, boxes=[(10,)],
                                             phi_terms=2, order=1, ncombos=1, nkeys=1,
                                             max_coef_terms=6)),
                (enumerate_constructed, dict(name="m1-n2", m=1, n=2, k=1, boxes=[(4,)],
                                             phi_terms=2, order=1, ncombos=1, nkeys=2,
                                             max_coef_terms=6)),
                (enumerate_constructed, dict(name="m2-n1", m=2, n=1, k=1, boxes=[(4, 1), (1, 4)],
                                             phi_terms=2, order=1, ncombos=1, nkeys=2,
                                             max_coef_terms=6)),
                (enumerate_constructed, dict(name="m2-n2", m=2, n=2, k=0, boxes=[(2, 1), (1, 2)],
                                             phi_terms=2, order=1, ncombos=1, nkeys=2,
                                             max_coef_terms=6)),
            ),
        ),
        Workload(
            "vertices-large",
            "Distinct staircase sets of 40-70 points in arity 3-5, mostly minimal: "
            "few large uncached LPs and cone normalization whose cost follows "
            "coordinate size; no cache reuse.",
            (
                (vertices_request, dict(name="m3-parabola", m=3, count=24, side=24, midpoints=12,
                                        dominated=10)),
                (vertices_request, dict(name="m4-cones-wide", m=4, count=28, side=6, midpoints=12,
                                        dominated=8, cones=8, cone_scale=1000)),
                (vertices_request, dict(name="m5-paraboloid", m=5, count=26, side=3, midpoints=12,
                                        dominated=8)),
                (vertices_request, dict(name="m4-promote", m=4, count=20, side=4, midpoints=15,
                                        dominated=8, promote_bound=28)),
                (vertices_request, dict(name="m4-cones-narrow", m=4, count=30, side=7, midpoints=12,
                                        dominated=10, cones=10, cone_scale=30)),
            ),
        ),
    )
}


def round_requests(workload: Workload, seed: int, index: int) -> list[Request]:
    """Round `index` of the stream: one request per template, seeded per slot."""
    out = []
    for slot, (gen, kwargs) in enumerate(workload.templates):
        rng = random.Random(f"{workload.name}/{seed}/{index}/{slot}")
        out.append(gen(rng, **kwargs))
    return out
