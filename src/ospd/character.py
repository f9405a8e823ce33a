"""Characters, super Schur functions, branching coefficients, and the type D
Weyl dimension oracle.

A character is a finitely supported integer combination of monomials
z^level * prod_a x_a^{k_a}, stored as a map from (level, exponent vector) to
coefficient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .osptab import (RejectError, _packing, _Table, all_columns, box_bound,
                     content_weigher, enumerate_tableaux, expected_kinds,
                     parts_from_columns, tuple_to_matrix, validate)
from .signature import Signature, gl_e_tableau, gl_f_tableau, sigma_tableau
from .tableau import (conjugate, inverse_rsk, is_partition, row_pair_ok, rsk,
                      straight_is_semistandard)

# ---------------------------------------------------------------------------
# character polynomials


class CharPoly:
    """Sparse z/x polynomial keyed by (level, exponent tuple)."""

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __add__(self, other):
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, 0) + v
        return CharPoly(out)

    def scaled(self, c):
        return CharPoly({k: c * v for k, v in self.terms.items()})

    def shifted(self, level):
        return CharPoly({(lv + level, ex): v
                         for (lv, ex), v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __repr__(self):
        return "CharPoly(%d terms)" % len(self.terms)

    def to_json(self, alphabet):
        out = []
        for (lv, ex), coeff in sorted(self.terms.items()):
            xs = {alphabet.letter(i).name: e for i, e in enumerate(ex) if e}
            out.append({"z": lv, "x": xs, "coef": coeff})
        return out


# ---------------------------------------------------------------------------
# Schur functions over a graded alphabet

def _ssyt_columns(mu, alphabet):
    """The column heights of the partition mu, and every column of each."""
    mu = tuple(x for x in mu if x)
    if not is_partition(mu):
        raise RejectError("mu must be a partition")
    heights = conjugate(mu)
    return heights, {h: all_columns(alphabet, h) for h in set(heights)}


def enumerate_ssyt(mu, alphabet):
    """All semistandard tableaux of straight shape mu, column-major."""
    heights, columns = _ssyt_columns(mu, alphabet)
    results = []

    def extend(j, cols):
        if j == len(heights):
            results.append(tuple(cols))
            return
        for col in columns[heights[j]]:
            if cols and not all(map(row_pair_ok, cols[-1], col)):
                continue
            cols.append(col)
            extend(j + 1, cols)
            cols.pop()

    extend(0, [])
    return results


def super_schur(mu, alphabet):
    """The Schur function of mu: the weight generating function of the
    semistandard tableaux of shape mu, which are finitely many over a finite
    alphabet.  Homogeneous of degree |mu|.

    Summed column by column, left to right, over the rule of
    ``enumerate_ssyt`` (``row_pair_ok`` between adjacent columns): the
    state maps each last column to the contents, packed in base |mu| + 1,
    of the partial tableaux that end in it, with their counts."""
    mu = tuple(x for x in mu if x)
    heights, columns = _ssyt_columns(mu, alphabet)
    pack, unpack = _packing(alphabet, sum(mu) + 1)
    state = {(): {0: 1}}  # the empty tableau ends in the empty column
    for h in heights:
        step = {}
        for col in columns[h]:
            before = Counter()
            for last, contents in state.items():
                if all(map(row_pair_ok, last, col)):
                    before.update(contents)
            if before:
                w = pack(col)
                step[col] = {key + w: n for key, n in before.items()}
        state = step
    total = Counter()
    for contents in state.values():
        total.update(contents)
    return CharPoly({(0, unpack(key)): n for key, n in total.items()})


def s_character(plan, alphabet, max_boxes=None):
    """The weight generating function of the tableaux of the plan, with the
    level recorded in the z variable.  Tableaux are counted by their packed
    contents, and only the distinct contents are unpacked."""
    weigh, unpack = content_weigher(plan, alphabet, max_boxes)
    counts = Counter(map(weigh, enumerate_tableaux(plan, alphabet, max_boxes)))
    return CharPoly({(plan.ell, unpack(key)): n for key, n in counts.items()})


# ---------------------------------------------------------------------------
# the branching-coefficient set: recording tableaux passing (Q1)-(Q12)

class QContext:
    """Environment for evaluating the twelve recording-tableau conditions.

    Columns are numbered so the spin slot (present when r = 1) is column 1
    and the pair T_j occupies columns (r + 2j - 1, r + 2j); the color inside
    the pair T_{q+k} is then c_k = r + 2q + 2k - 1 and the boundary color
    between the pair block and the middle block is ``top`` = r + 2q.
    """

    def __init__(self, plan, q_cols):
        self.plan = plan
        self.q = q_cols
        counts = [0] * (plan.ell + 1)
        for col in q_cols:
            for e in col:
                if not 1 <= e <= plan.ell:
                    raise RejectError("entry %r outside 1..ell" % (e,))
                counts[e] += 1
        self.m = counts  # m[i] = |column i|, 1-based
        self.top = plan.r + 2 * plan.q
        self.boundary = plan.M >= 1 and self.top >= 1
        self.r0 = 1 if plan.sign == "-" else 0
        self.rk = {}

    def c_within(self, k):
        return self.top + 2 * k - 1

    def c_cross(self, k):
        return self.top + 2 * k

    def mL(self, k):
        return self.m[self.c_within(k) + 1]

    def mR(self, k):
        return self.m[self.c_within(k)]

    def a(self, k):
        return self.plan.heights[k - 1]

    def residue(self, k):
        if k not in self.rk:
            if not q3(self):
                raise RejectError("residues undefined before (Q3)")
        return self.rk[k]


def q1(ctx):
    for k in range(1, ctx.plan.M + 1):
        d = ctx.mL(k) - ctx.a(k)
        if d < 0 or d % 2 or ctx.mR(k) % 2:
            return False
    return True


def q2(ctx):
    return all(ctx.mL(k) - ctx.a(k) <= ctx.mR(k)
               for k in range(1, ctx.plan.M + 1))


def q3(ctx):
    """Signatures inside each pair; determines the residues r_k."""
    for k in range(1, ctx.plan.M + 1):
        sig = sigma_tableau(ctx.q, ctx.c_within(k))
        r = ctx.a(k) - sig.p  # sigma must be (a_k - r, m_R - m_L + a_k - r)
        if r not in (0, 1) or sig.q != ctx.mR(k) - ctx.mL(k) + ctx.a(k) - r:
            return False
        ctx.rk[k] = r
    return True


def q4(ctx):
    for k in range(1, ctx.plan.M):
        r, r2 = ctx.residue(k), ctx.residue(k + 1)
        if ctx.mR(k + 1) > ctx.mL(k) - ctx.a(k) + 2 * r * r2:
            return False
    return True


def q5(ctx):
    for k in range(1, ctx.plan.M):
        r, r2 = ctx.residue(k), ctx.residue(k + 1)
        cur = gl_e_tableau(ctx.q, ctx.c_within(k), ctx.a(k) - r)
        if cur is not None:
            cur = gl_f_tableau(cur, ctx.c_within(k + 1), r * r2)
        if cur is None:
            return False
        want = Signature(0, ctx.mL(k) - ctx.mR(k + 1) - ctx.a(k) + r * (r2 + 1))
        if sigma_tableau(cur, ctx.c_cross(k)) != want:
            return False
    return True


def q6(ctx):
    for k in range(1, ctx.plan.M):
        r, r2 = ctx.residue(k), ctx.residue(k + 1)
        cur = gl_e_tableau(ctx.q, ctx.c_within(k + 1), ctx.a(k + 1) - r2)
        if cur is not None:
            cur = gl_f_tableau(cur, ctx.c_within(k), r * r2)
        if cur is None:
            return False
        sig = sigma_tableau(cur, ctx.c_cross(k))
        p = ctx.a(k + 1) - ctx.a(k) - sig.p
        want = ctx.mL(k) - ctx.mR(k + 1) - ctx.a(k) + r2 * (r + 1) - p
        if p < 0 or sig.q != want:
            return False
    return True


def q7(ctx):
    """Sizes and parities of the middle columns: even heights on the plus
    side, odd (hence positive) heights on the minus side."""
    return all(ctx.m[i] % 2 == ctx.r0 for i in range(1, ctx.top + 1))


def q8(ctx):
    return all(ctx.m[i + 1] <= ctx.m[i] for i in range(1, ctx.top))


def q9(ctx):
    return all(sigma_tableau(ctx.q, i) == Signature(0, ctx.m[i] - ctx.m[i + 1])
               for i in range(1, ctx.top))


def q10(ctx):
    if not ctx.boundary:
        return True
    r1 = ctx.residue(1)
    return ctx.mR(1) <= ctx.m[ctx.top] - ctx.r0 + 2 * ctx.r0 * r1


def q11(ctx):
    if not ctx.boundary:
        return True
    r1 = ctx.residue(1)
    cur = gl_f_tableau(ctx.q, ctx.c_within(1), ctx.r0 * r1)
    if cur is None:
        return False
    want = Signature(0, ctx.m[ctx.top] - ctx.mR(1) + ctx.r0 * r1)
    return sigma_tableau(cur, ctx.top) == want


def q12(ctx):
    if not ctx.boundary:
        return True
    r1 = ctx.residue(1)
    cur = gl_e_tableau(ctx.q, ctx.c_within(1), ctx.a(1) - r1)
    if cur is None:
        return False
    sig = sigma_tableau(cur, ctx.top)
    first = ctx.a(1) - ctx.r0 + ctx.r0 * r1
    p = first - sig.p
    want = ctx.m[ctx.top] - ctx.mR(1) - ctx.r0 + r1 * (ctx.r0 + 1) - p
    return p >= 0 and sig.q == want


Q_CONDITIONS = (q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12)

# the conditions that read only the content of Q, ctx.m
CONTENT_CONDITIONS = (q1, q2, q7, q8)


def _all_hold(ctx, conditions):
    """Do all the conditions hold?  A RejectError means no."""
    try:
        return all(cond(ctx) for cond in conditions)
    except RejectError:
        return False


def in_k_set(plan, q_cols):
    """Membership of a recording tableau in the branching set of the plan."""
    return _all_hold(QContext(plan, q_cols), Q_CONDITIONS)


def content_admits(plan, content):
    """Do the content clauses hold?  They are evaluated on the one-row
    tableau of that content."""
    row = tuple((i,) for i, c in enumerate(content, 1) for _ in range(c))
    return _all_hold(QContext(plan, row), CONTENT_CONDITIONS)


def contents_up_to(total, ell):
    """All contents (m_1, ..., m_ell) of natural numbers with sum <= total."""
    if ell == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in contents_up_to(total - first, ell - 1):
            yield (first,) + rest


def enumerate_recording(content):
    """All semistandard tableaux of every straight shape whose entries are
    content[i - 1] copies of i, column-major.  Letter i is added as a
    horizontal strip: at most one cell per column, at the column's foot."""
    tabs = [()]
    for letter, count in enumerate(content, 1):
        tabs = [grown for cols in tabs
                for grown in _add_strip(cols, letter, count)]
    return tabs


def _add_strip(cols, letter, count):
    def extend(j, left, out):
        if j == len(cols):
            yield tuple(out) + ((letter,),) * left
            return
        col = cols[j]
        yield from extend(j + 1, left, out + [col])
        if left and (not out or len(col) < len(out[-1])):
            yield from extend(j + 1, left - 1, out + [col + (letter,)])

    return extend(0, count, [])


def k_coefficients(plan, max_size):
    """The branching multiplicities K_mu for |mu| <= max_size: the recording
    tableaux of each content that passes the content clauses, counted by
    shape through the other conditions, which read the tableau itself."""
    per_tableau = [c for c in Q_CONDITIONS if c not in CONTENT_CONDITIONS]
    counts = {}
    for content in contents_up_to(max_size, plan.ell):
        if not content_admits(plan, content):
            continue
        for q_cols in enumerate_recording(content):
            if _all_hold(QContext(plan, q_cols), per_tableau):
                mu = tuple(len(c) for c in q_cols)
                counts[mu] = counts.get(mu, 0) + 1
    return counts


def k_set_via_inverse(plan, q_cols, alphabet):
    """Oracle membership test: pull the recording tableau back through the
    inverse correspondence (against the highest-weight insertion tableau)
    and validate the resulting tuple."""
    mu = tuple(len(c) for c in q_cols)  # shape of Q is mu'
    p_heights = conjugate(mu)           # column heights of P
    if p_heights and p_heights[0] > alphabet.size:
        raise RejectError("alphabet too small for the oracle")
    p_cols = tuple(tuple(alphabet.letter(i) for i in range(h))
                   for h in p_heights)
    try:
        matrix = inverse_rsk(p_cols, q_cols, ell=plan.ell)
        validate(parts_from_columns(expected_kinds(plan), matrix.cols), plan)
        return True
    except (RejectError, ValueError):
        return False


# ---------------------------------------------------------------------------
# the branching bijection, verified

def verify_pieri(plan, alphabet, max_boxes=None):
    """Check the five properties of the correspondence from tableaux of the
    plan to pairs (P, Q): P semistandard, Q in the branching set, injectivity,
    weight preservation, and surjectivity by cardinality."""
    report = {"plan": {"lambda": list(plan.lam), "ell": plan.ell},
              "alphabet": str(alphabet), "failures": [], "n": 0, "by_mu": {}}
    seen = {}
    counts = {}
    elements = enumerate_tableaux(plan, alphabet, max_boxes)
    bound = box_bound(plan, alphabet, max_boxes)
    report["n"] = len(elements)
    for idx, t in enumerate(elements):
        matrix = tuple_to_matrix(t)
        p_cols, q_cols = rsk(matrix)
        where = {"index": idx}
        if not straight_is_semistandard(p_cols):
            report["failures"].append(("P not semistandard", where))
            continue
        if not in_k_set(plan, q_cols):
            report["failures"].append(("Q outside the branching set", where))
            continue
        key = (p_cols, q_cols)
        if key in seen:
            report["failures"].append(("collision", where))
            continue
        seen[key] = t
        content_t = sorted(a.rank for a in t.letters())
        content_p = sorted(a.rank for col in p_cols for a in col)
        if content_t != content_p:
            report["failures"].append(("weight not preserved", where))
            continue
        mu = conjugate(tuple(len(c) for c in p_cols))
        counts[mu] = counts.get(mu, 0) + 1
    k_all = k_coefficients(plan, bound)
    for mu in sorted(set(counts) | set(k_all)):
        ssyt = len(enumerate_ssyt(mu, alphabet))
        expect = ssyt * k_all.get(mu, 0)
        got = counts.get(mu, 0)
        report["by_mu"][",".join(map(str, mu))] = {"got": got, "expect": expect}
        if got != expect:
            report["failures"].append(
                ("cardinality mismatch at mu=%s" % (mu,), {}))
    report["ok"] = not report["failures"]
    return report


# ---------------------------------------------------------------------------
# expansion oracle: solve for the coefficients from the character

def _dominant_exponent(ex):
    return tuple(sorted(ex, reverse=True))


def k_from_character(plan, alphabet, max_boxes=None):
    """Recover the branching coefficients by peeling Schur functions off the
    character, degree by degree; classical alphabets only (triangularity of
    the Schur basis in even variables).  Each degree's terms are one dict,
    from which coeff * s_mu is subtracted in place."""
    if alphabet.kind != "classical":
        raise RejectError("the expansion oracle needs a classical alphabet")
    poly = s_character(plan, alphabet, max_boxes)
    by_degree = {}
    for (lv, ex), coeff in poly.terms.items():
        by_degree.setdefault(sum(ex), {})[lv, ex] = coeff
    out = {}
    schur_cache = {}
    dominant = _Table(_dominant_exponent)
    for degree in sorted(by_degree):
        cur = by_degree[degree]
        while cur:
            (lv, ex), coeff = max(cur.items(),
                                  key=lambda kv: dominant[kv[0][1]])
            mu = tuple(e for e in dominant[ex] if e)
            if coeff <= 0:
                raise RejectError("negative Schur coefficient at %s" % (mu,))
            if mu not in schur_cache:
                schur_cache[mu] = super_schur(mu, alphabet).shifted(plan.ell)
            for key, v in schur_cache[mu].terms.items():
                cur[key] = cur.get(key, 0) - coeff * v
                if not cur[key]:
                    del cur[key]
            out[mu] = out.get(mu, 0) + coeff
    return out


def schur_expansion_matches(plan, alphabet, max_boxes=None):
    """Does z^ell * sum K_mu s_mu reproduce the character?  Both sides stop
    at the box bound: s_mu has degree |mu|, and a tableau of N boxes has
    weight of degree N."""
    k_table = k_coefficients(plan, box_bound(plan, alphabet, max_boxes))
    lhs = s_character(plan, alphabet, max_boxes)
    rhs = CharPoly()
    for mu, coeff in k_table.items():
        if alphabet.kind == "super":
            if len(mu) > alphabet.m and mu[alphabet.m] > alphabet.n:
                continue
        elif len(mu) > alphabet.size:
            continue
        rhs = rhs + super_schur(mu, alphabet).shifted(plan.ell).scaled(coeff)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Weyl dimension oracle for type D

# largest rank weyl_dim_D takes; its exact product slows quadratically (one
# Xeon core, Python 3.11: rank 100 0.15 s, 200 2 s, 400 36 s)
WEYL_MAX_RANK = 100


def weyl_dim_D(level, lam, rank):
    """Dimension of the irreducible type D_rank module with highest weight
    Lambda(lambda, level), by the product formula over positive roots.

    In the coordinates g_j = (weight | delta_j) induced by the orthonormal
    delta basis and (Lambda_bm | delta_j) = -1/2, the positive roots pair to
    differences and negated sums of coordinates.
    """
    lam = tuple(x for x in lam if x)
    if not is_partition(lam):
        raise RejectError("lambda must be a partition")
    if len(lam) > rank:
        raise RejectError("lambda has more rows than the rank")
    if rank > WEYL_MAX_RANK:
        raise RejectError("rank %d is above %d, the largest whose Weyl "
                          "dimension is computed" % (rank, WEYL_MAX_RANK))
    lam1 = lam[0] if lam else 0
    lam2 = lam[1] if len(lam) > 1 else 0
    if level < 0 or level - lam1 - lam2 < 0:
        raise RejectError("weight is not dominant for type D")
    half = Fraction(level, 2)
    v = [Fraction(lam[j]) - half - j if j < len(lam) else -half - j
         for j in range(rank)]
    rho = [Fraction(-j) for j in range(rank)]
    num = den = Fraction(1)
    for j in range(rank):
        for k in range(j + 1, rank):
            num *= (v[j] - v[k]) * (v[j] + v[k])
            den *= (rho[j] - rho[k]) * (rho[j] + rho[k])
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise AssertionError("non-integral Weyl dimension")
    return int(dim)
