"""Poisson-commutative generator sets and the worked case studies.

``z_generators`` assembles candidate generating sets, lists of
(polynomial, tag) pairs, for the commutative algebra attached to a
splitting: every nonzero bi-homogeneous component of the invariants
together with any supplied centre generators (mode 'full'), or only the
middle components plus centres (mode 'm_tilde').
Candidates are verified, not derived: transcendence degree comes from
exact Jacobian ranks at sampled points and commutativity from exact
symbolic brackets across the pencil.

``run_case`` reproduces the worked desk-scale cases end to end and
returns a serializable report whose named verdicts are the assertions a
case is expected to satisfy.  The kept generators of ``sl2n`` and
``sl2n1`` are the ones ``eliminate_on_subspace`` chooses, read off the
modified basis as those still nonzero on t0.  The Satake cases ``sl2n``,
``sl2n1`` and ``so2n`` read the t0 of their Weyl route off their
splitting, while ``e6_weyl`` and ``weyl-w0`` take Satake arrows.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass

from . import __version__
from .liealg import LieAlgebra, build_double, build_sl, build_so_even
from .invariants import (
    HilbertBasis,
    _b_of,
    _jacobian_rank,
    double_shift_basis,
    eliminate_on_subspace,
    ggs_check,
    hilbert_basis,
    restrict_to_t0,
    transport_basis,
    verify_invariance,
    aks_restrict,
)
from .linalg import Matrix, _sample_point, solve
from .poisson import _tensor_rank, poisson_bracket, sphericity, tensor_at
from .poly import Polynomial
from .rationals import _check_count, _check_int, _check_length, _check_size, _is_int
from .splitting import (
    BracketParameter,
    Decomposition,
    _vectors,
    contract,
    family_bracket,
    horospherical_splitting,
    make_splitting,
    pencil_member,
)
from .weyl import (
    SatakeDiagram,
    _check_dmax,
    build_root_system,
    enumerate_weyl,
    restriction_check,
    satake_subspaces,
    w0_compute,
)


class CaseParameterError(ValueError):
    """A case study rejects its parameters (a size, a diagonal, a case name)."""


def _size(params, case: str, least: int, why: str) -> int:
    """``n``, by default ``least``, or ``rationals._check_size``'s error as a CaseParameterError."""
    n = params.get("n", least)
    try:
        _check_size(case, n, least)
    except ValueError as exc:
        raise CaseParameterError(f"{exc} ({why})" if _is_int(n) else str(exc)) from None
    return n


def z_generators(S: Decomposition, B: HilbertBasis, z0_gens=(), zinf_gens=(),
                 mode: str = "full") -> list:
    """Bi-component generator candidates for the splitting's Z-algebra, as a list of
    (Polynomial, provenance tag) pairs.

    mode 'full': every nonzero bi-component plus the supplied centre
    generators (none by default: the components alone); 'm_tilde': only middle
    components (0 < h-degree < d) plus centres.  Duplicates are merged up to a
    scalar (content normalization).  A centre generator must live on the splitting's algebra.
    """
    if not B.generators:
        raise ValueError("empty Hilbert basis")
    if mode not in ("full", "m_tilde"):
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    seen = {}  # (term count, largest key), which proportional polynomials share -> those pushed

    def push(poly, tag):
        if poly.is_zero():
            return
        pushed = seen.setdefault((len(poly.terms), max(poly.terms)), [])
        if any(q.canonical()[0] == poly.canonical()[0] for q in pushed):
            return
        pushed.append(poly)
        out.append((poly, tag))

    for j, (d, parts) in enumerate(zip(B.degrees, B.split(S))):
        for i, comp in parts.items():
            if mode == "m_tilde" and not (0 < i < d):
                continue
            push(comp, f"F{j + 1}[{i},{d - i}]")
    for tag, gens in (("Z0", z0_gens), ("Zinf", zinf_gens)):
        for k, g in enumerate(gens):
            _check_length(f"{tag} generator {k}", g.nvars, S.algebra.dim, "variables")
            push(g, tag)
    return out


@dataclass
class SuiteReport:
    pairs_checked: int
    parameters: list
    failures: list  # (tag_a, tag_b, parameter label)

    @property
    def passed(self):
        return not self.failures


def commutativity_suite(S: Decomposition, gens, extra_params=(), max_pairs=None,
                        seed: int = 0) -> SuiteReport:
    """Pairwise commutativity of the (Polynomial, tag) pairs ``gens`` at (1,0), (0,1), (1,1)
    and any extra parameters, decided by exact brackets at (1,0) and (0,1) (linearity,
    see ``family_bracket``); at most ``max_pairs`` seeded pairs when given, an ``int`` >= 1,
    drawn with the ``int`` ``seed``."""
    _check_int("seed", seed)
    if max_pairs is not None:
        _check_count("max_pairs", max_pairs)
    params = [BracketParameter(1, 0), BracketParameter(0, 1), BracketParameter(1, 1)]
    params += [BracketParameter.of(p) for p in extra_params]
    ends = [(p, pencil_member(S, p)) for p in params[:2]]
    pairs = [(a, b) for a in range(len(gens)) for b in range(a + 1, len(gens))]
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, max_pairs)
    failures = []
    for a, b in pairs:
        fa, ta = gens[a]
        fb, tb = gens[b]
        for p, L in ends:
            if not poisson_bracket(L, fa, fb).is_zero():
                failures.append((ta, tb, p.label()))
                break
    return SuiteReport(len(pairs), [p.label() for p in params], failures)


# -- shared property suite -------------------------------------------------


def _bracket_table(L: LieAlgebra) -> dict:
    """Structure constants as {pair: {target: coefficient}}, blind to entry order."""
    return {pair: dict(entries) for pair, entries in L.constants.items()}


def property_suite(S: Decomposition, B: HilbertBasis, seed: int = 0,
                   n_pairs: int = 5, pair_budget: int = 250_000) -> dict:
    """The cross-cutting exactness checks every case must pass.

    Jacobi across the whole pencil, bi-decomposition reconstruction,
    extreme components invariant under the matching contractions, sampled
    pencil commutativity of bi-components (``n_pairs`` distinct unordered
    pairs, or every pair when there are fewer, each of at most
    ``pair_budget`` term products; False when 200 draws find fewer), tensor
    skewness/parity with the kernel identity, and contraction rank
    monotonicity on Ann(h).

    ``pencil_jacobi`` and pencil commutativity are decided at the two
    contractions (Lie by the proof in ``contract``) and ``S.algebra``, as
    ``family_bracket`` proves.  ``n_pairs`` and ``pair_budget`` are ``int``s >= 1 and
    ``seed`` an ``int``, all checked before any draw.
    """
    _check_int("seed", seed)
    _check_count("n_pairs", n_pairs)
    _check_count("pair_budget", pair_budget)
    rng = random.Random(seed)
    results = {}
    con_h, con_r = contract(S, "keep_h"), contract(S, "keep_r")
    results["pencil_jacobi"] = all(
        _bracket_table(family_bracket(S, BracketParameter(*p))) == _bracket_table(L)
        for p, L in (((1, 0), con_h), ((0, 1), con_r), ((1, 1), S.algebra))
    )

    recon = True
    all_components = []
    one = Polynomial.constant(S.algebra.dim, 1)
    for F, parts in zip(B.polys, B.split(S)):
        all_components.extend(parts.values())
        total = Polynomial.sum_of_products(F.nvars, ((1, c, one) for c in parts.values()))
        recon = recon and total == F
    results["bidecompose_reconstruction"] = recon
    results["extreme_components_invariant"] = all(
        verify_invariance(con, F) for side, con in (("h", con_h), ("r", con_r))
        for *_, F in B.extremes(S, side))

    # sampled pencil commutativity of distinct pairs of bi-components, within a term budget
    pairs = []
    idx = list(range(len(all_components)))
    target = min(n_pairs, len(idx) * (len(idx) - 1) // 2)
    drawn = set()
    attempts = 0
    while len(pairs) < target and attempts < 200:
        attempts += 1
        a, b = rng.sample(idx, 2)
        if frozenset((a, b)) in drawn:   # unordered: {F, G} and {G, F} commute together
            continue
        drawn.add(frozenset((a, b)))
        pa, pb = all_components[a], all_components[b]
        if len(pa.terms) * len(pb.terms) > pair_budget:
            continue
        pairs.append((pa, pb))
    results["pencil_commutativity_sampled"] = len(pairs) == target and all(
        poisson_bracket(L, pa, pb).is_zero() for pa, pb in pairs for L in (con_h, con_r))

    # tensor samples: tensor_at asserts the even rank and skewness is checked below;
    # the kernel identity is cross-checked by an independent construction
    L = S.algebra
    pairs = [[L.bracket_pair(i, j).items() for j in range(L.dim)] for i in range(L.dim)]
    ok_kernel = True
    monotone = True
    for _ in range(3):
        xi = _sample_point(rng, L.dim, 99)
        sample = tensor_at(L, xi)
        if not sample.matrix.is_skew():
            raise AssertionError(f"the Poisson tensor of {L.kind} at {xi} is not skew; "
                                 "tensor bug")
        direct = Matrix([[sum(xi[k] * c for k, c in pair) for pair in row] for row in pairs])
        ok_kernel = ok_kernel and direct == sample.matrix
        # contraction never gains rank on Ann(h)
        ann = _sample_point(rng, L.dim, 99, S.r_indices)
        monotone = monotone and _tensor_rank(con_h, ann) <= _tensor_rank(L, ann)
    results["kernel_identity"] = ok_kernel
    results["contraction_rank_monotone"] = monotone
    return results


# -- case reports -----------------------------------------------------------


@dataclass
class CaseReport:
    case: str
    params: dict
    seed: int
    verdicts: dict
    tables: dict
    timings_ms: dict
    version: str = __version__

    @property
    def passed(self):
        return all(self.verdicts.values())

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        return cls(**doc)


class _Timer:
    def __init__(self):
        self.marks = {}
        self._t = time.perf_counter()

    def lap(self, label):
        now = time.perf_counter()
        self.marks[label] = round(1000 * (now - self._t), 2)
        self._t = now


def _diagonal(L: LieAlgebra, i: int, size: int) -> tuple:
    """The first ``size`` diagonal entries of rho(e_i) in the realization of ``L``."""
    return tuple(L.realization[i].get((k, k), 0) for k in range(size))


def _sl_diagonals(L: LieAlgebra, maps):
    """Basis coordinates of the diagonal matrices given as {position: value} maps, each
    solved against the diagonals of the Cartan elements of the realization of ``L``."""
    cartan, size = L.triangular.cartan, L.matrix_size
    H = Matrix.from_columns([_diagonal(L, i, size) for i in cartan])
    out = []
    for diag in maps:
        if not diag.keys() <= set(range(size)) or (
                x := solve(H, [diag.get(k, 0) for k in range(size)])) is None:
            raise CaseParameterError(f"{list(diag.values())} is not a traceless diagonal "
                                     f"of size {size}")
        out.append(dict(zip(cartan, x)))
    return _vectors(L.dim, out)


def _build(g: LieAlgebra, t1v, t0v, kind: str, timer):
    """The horospherical splitting of ``g`` and its ``kind`` basis, built on the adapted
    algebra (it carries the realization and P^T G P) as ``transport_basis`` gives it."""
    S = horospherical_splitting(g, t1v, t0_basis=t0v)
    B = hilbert_basis(S.algebra, kind)
    timer.lap("build")
    return S, B


def _suites(S: Decomposition, B: HilbertBasis, seed, trials, **kw):
    """Sphericity report and the property suite's verdicts, prefixed ``property_``."""
    sph = sphericity(S, trials=trials, seed=seed)
    props = property_suite(S, B, seed=seed, **kw)
    return sph, {f"property_{k}": v for k, v in props.items()}


def _restrictions(S: Decomposition, B: HilbertBasis, names, labels=None) -> dict:
    """Each generator's restriction to t0, printed in the parameter ``names``."""
    labels = labels or [f"P{d}" for _, d in B.generators]
    return {lab: restrict_to_t0(S, F).to_string(names) for lab, (F, _) in zip(labels, B.generators)}


def _kept_degrees(S: Decomposition, B: HilbertBasis) -> list:
    """Degrees of the generators of an eliminated basis still nonzero on t0: the kept ones,
    each restricted afresh, so a correction that misses t0 is counted, not trusted."""
    return [d for F, d in B.generators if not restrict_to_t0(S, F).is_zero()]


def _satake(type_label, rank, arrows):
    """The root system and the Satake subspace t0 of the diagram with these arrows."""
    rs = build_root_system(type_label, rank)
    return rs, satake_subspaces(rs, SatakeDiagram(tuple(arrows)))


def _splitting_t0(S: Decomposition, type_label, rank):
    """The root system, and the splitting's t0 in its epsilon model coordinates: the first
    ``model_dim`` diagonal entries of each t0 element of the adapted sl or so builder."""
    rs = build_root_system(type_label, rank)
    return rs, [_diagonal(S.algebra, i, rs.model_dim) for i in S.t0_indices]


def _weyl_route(rs, t0, dmax, lap=lambda label: None):
    """Weyl group -> W0 -> restriction table for a root system and a t0 in its model space:
    the splitting's own t0 for the Satake cases, the arrows' for ``e6_weyl`` and ``weyl-w0``.

    ``lap`` is called after the enumeration, the W0 computation and the
    restriction check, with the labels of those three steps.
    """
    W = enumerate_weyl(rs)
    lap("enumerate")
    rep = w0_compute(W, t0)
    lap("w0")
    rc = restriction_check(W, t0, rep, dmax=dmax)
    lap("restriction")
    return W, rep, rc


def _centre_generators(S: Decomposition, B: HilbertBasis):
    """Free generators of the two contraction centres for a horospherical splitting.

    Z0: a basis of t0 plus the minimal-h-degree components not supported on
    t0; Zinf symmetric with t1 and maximal-h-degree components.
    """
    return tuple([Polynomial.variable(S.algebra.dim, i) for i in toral]
                 + [F for *_, F in B.extremes(S, side) if not F.support_vars() <= set(toral)]
                 for side, toral in (("h", S.t0_indices), ("r", S.t1_indices)))


def _z_algebra(S: Decomposition, B: HilbertBasis, mode: str, trials, seed):
    """(Z, b, trdeg): the ``mode`` candidates of ``z_generators`` with the centres of
    ``_centre_generators``, b of the splitting's algebra, and their Jacobian rank over
    max(5, ``trials``) seeded points of [-997, 997]^dim."""
    Z = z_generators(S, B, *_centre_generators(S, B), mode)
    # each bi-component of B, by identity, names its (generator, h-degree) for its row
    where = {id(c): (j, i) for j, parts in enumerate(B.split(S)) for i, c in parts.items()}
    td = _jacobian_rank([(p, where.get(id(p))) for p, _ in Z], S.algebra.dim,
                        max(5, trials), seed, 997, B, S)
    return Z, _b_of(S.algebra), td


def _middle_components_nonzero(S: Decomposition, B: HilbertBasis) -> bool:
    """Every generator of degree d has a nonzero component of each h-degree 0 < i < d."""
    return all(parts.keys() >= set(range(1, d)) for d, parts in zip(B.degrees, B.split(S)))


# -- individual cases --------------------------------------------------------


def _case_borel(params, seed, trials, dmax):
    n = _size(params, "borel", 2, "g = sl(n)")
    timer = _Timer()
    g = build_sl(n)
    S, B = _build(g, _vectors(g.dim, ({i: 1} for i in g.triangular.cartan)), None,
                  "charpoly", timer)
    Z, b, td = _z_algebra(S, B, "full", trials, seed)
    suite = commutativity_suite(S, Z, max_pairs=60, seed=seed)
    timer.lap("z_algebra")
    sph, props = _suites(S, B, seed, trials)
    timer.lap("suites")
    component_count = sum(1 for _, tag in Z if tag.startswith("F"))
    verdicts = {
        "trdeg_equals_b": td == b,
        "z_commutes": suite.passed,
        "sphericity_sum_equals_rank": sph.verdicts["sum_equals_rank"],
        "s0_is_zero": sph.s0 == 0,
        "nondegenerate": sph.verdicts["nondegenerate"],
        **props,
    }
    tables = {
        "generators": [tag for _, tag in Z],
        "generator_count": len(Z),
        "component_count": component_count,
        "trdeg": td,
        "b": b,
        "s0": sph.s0,
        "s_inf": sph.s_inf,
        "pairs_checked": suite.pairs_checked,
    }
    return CaseReport("borel", {"n": n}, seed, verdicts, tables, timer.marks)


def _case_horo(params, seed, trials, dmax):
    n = _size(params, "horo", 2, "g = sl(n)")
    t1_spec = params.get("t1", "full")
    if t1_spec not in ("full", "zero") and not (isinstance(t1_spec, (list, tuple)) and all(
            isinstance(d, (list, tuple)) and all(map(_is_int, d)) for d in t1_spec)):
        raise CaseParameterError(f"t1 must be 'full', 'zero' or integer diagonals, got {t1_spec!r}")
    timer = _Timer()
    g = build_sl(n)
    if t1_spec == "full":
        t1 = _vectors(g.dim, ({i: 1} for i in g.triangular.cartan))
    elif t1_spec == "zero":
        t1 = []
    else:
        t1 = _sl_diagonals(g, (dict(enumerate(d)) for d in t1_spec))
        try:  # a long diagonal fails above; a short one would be padded with zeros
            for d in t1_spec:
                _check_length(f"t1 diagonal {list(d)}", len(d), n, "entries")
        except ValueError as exc:
            raise CaseParameterError(str(exc)) from None
    try:
        S = horospherical_splitting(g, t1)
    except ValueError:  # the trace form is definite on real diagonals: t1 is dependent
        zero = next((list(d) for d in t1_spec if not any(d)), None)
        raise CaseParameterError(
            f"t1 diagonal {zero} is zero; for t1 = 0 pass 'zero'" if zero is not None
            else f"t1 diagonals {[list(d) for d in t1_spec]} are dependent") from None
    B = hilbert_basis(S.algebra, "charpoly")
    timer.lap("build")
    rep_h = ggs_check(S, B, side="h", trials=trials, seed=seed)
    sph, props = _suites(S, B, seed, trials)
    timer.lap("checks")
    ell = g.rank
    verdicts = {
        "s0_formula": sph.s0 == ell - len(S.t1_indices),
        "sum_equals_rank": sph.verdicts["sum_equals_rank"],
        "criterion_consistent": rep_h.consistent in (True, None),
        **props,
    }
    tables = {
        "s0": sph.s0,
        "s_inf": sph.s_inf,
        "dim_t0": len(S.t0_indices),
        "dim_t1": len(S.t1_indices),
        "ggs_verdict": rep_h.verdict,
        "sum_m": rep_h.sum_m,
        "dim_m": rep_h.dim_m,
    }
    return CaseReport("horo", {"n": n, "t1": str(t1_spec)}, seed, verdicts, tables, timer.marks)


def _case_double(params, seed, trials, dmax):
    n = _size(params, "double", 1, "A_n, so g = sl(n+1)")
    timer = _Timer()
    g = build_sl(n + 1)
    gd = build_double(g)
    ell = g.rank
    B0 = hilbert_basis(gd, "charpoly")
    cart = list(enumerate(g.triangular.cartan))
    t1v = _vectors(gd.dim, ({i: 1, g.dim + k: -1} for k, i in cart))
    t0v = _vectors(gd.dim, ({i: 1, g.dim + k: 1} for k, i in cart))
    S = horospherical_splitting(gd, t1v, t0_basis=t0v)
    B = transport_basis(B0, S)
    timer.lap("build")

    shift_h = transport_basis(double_shift_basis(B0, side="h"), S)
    shift_r = transport_basis(double_shift_basis(B0, side="r"), S)
    ggs_h = ggs_check(S, shift_h, side="h", trials=trials, seed=seed)
    ggs_r = ggs_check(S, shift_r, side="r", trials=trials, seed=seed)
    # the h-side corrected basis is a common candidate; it works iff every
    # invariant degree of the base algebra is even
    common_check = ggs_h.verdict and ggs_check(S, shift_h, side="r",
                                               trials=trials, seed=seed).verdict
    base_degrees = [d for _, d in B0.generators if d > 1]
    all_even = all(d % 2 == 0 for d in base_degrees)
    timer.lap("ggs")

    Z, b, td = _z_algebra(S, B, "m_tilde", trials, seed)
    rng = random.Random(seed)
    extra = [(1, rng.randint(2, 60)) for _ in range(5)]
    suite = commutativity_suite(S, Z, extra_params=extra, seed=seed)
    timer.lap("z_algebra")

    sph, props = _suites(S, B, seed, trials)
    middles_ok = _middle_components_nonzero(S, B)
    timer.lap("suites")

    verdicts = {
        "ggs_h": ggs_h.verdict,
        "ggs_r": ggs_r.verdict,
        "common_ggs_iff_even_degrees": common_check == all_even,
        "m_tilde_count_equals_b": len(Z) == b,
        "trdeg_equals_b": td == b,
        "z_commutes": suite.passed,
        "s0_equals_s_inf_equals_rank_of_base": sph.s0 == ell and sph.s_inf == ell,
        "middle_components_nonzero": middles_ok,
        **props,
    }
    tables = {
        "m_tilde_count": len(Z),
        "b": b,
        "trdeg": td,
        "generators": [tag for _, tag in Z],
        "base_degrees": base_degrees,
        "all_degrees_even": all_even,
        "common_ggs": common_check,
        "pairs_checked": suite.pairs_checked,
        "parameters": suite.parameters,
        "s0": sph.s0,
        "s_inf": sph.s_inf,
    }
    return CaseReport("double", {"n": n}, seed, verdicts, tables, timer.marks)


def _case_sl2n(params, seed, trials, dmax):
    n = _size(params, "sl2n", 2, "smaller n has no arrows")
    timer = _Timer()
    N = 2 * n
    g = build_sl(N)
    # t0 = symmetric traceless diagonals diag(c_1..c_n, c_n..c_1)
    t0v = _sl_diagonals(g, ({i: 1, N - 1 - i: 1, i + 1: -1, N - 2 - i: -1} for i in range(n - 1)))
    # t1 = antisymmetric diagonals diag(a_1..a_n, -a_n..-a_1)
    t1v = _sl_diagonals(g, ({i: 1, N - 1 - i: -1} for i in range(n)))
    S, B = _build(g, t1v, t0v, "trace_powers", timer)

    restrictions = _restrictions(S, B, [f"c{i + 1}" for i in range(n - 1)])
    modified = eliminate_on_subspace(B, S)
    rep_h = ggs_check(S, modified, side="h", trials=trials, seed=seed)
    rep_r = ggs_check(S, modified, side="r", trials=trials, seed=seed)
    unmodified_rep = ggs_check(S, B, side="h", trials=trials, seed=seed)
    timer.lap("elimination")

    Z, b, td = _z_algebra(S, modified, "m_tilde", trials, seed)
    timer.lap("z_algebra")

    _, w0, rc = _weyl_route(*_splitting_t0(S, "A", N - 1), dmax)
    timer.lap("weyl")

    sph, props = _suites(S, B, seed, trials)
    odd_count = sum(1 for _, d in B.generators if d % 2)
    middles_ok = _middle_components_nonzero(S, modified)
    timer.lap("suites")

    verdicts = {
        "ggs_exists": rep_h.verdict,
        "ggs_r_side": rep_r.verdict,
        "unmodified_fails": not unmodified_rep.verdict,
        "weyl_restriction_onto": rc.verdict_up_to_dmax,
        "routes_agree": rep_h.verdict == rc.verdict_up_to_dmax,
        "m_tilde_count_equals_b": len(Z) == b,
        "trdeg_equals_b": td == b,
        "odd_degree_law": odd_count == len(S.t0_indices),
        "sphericity_formula": sph.s0 == g.rank - len(S.t1_indices),
        "middle_components_nonzero": middles_ok,
        "criterion_consistent": rep_h.consistent and unmodified_rep.consistent,
        **props,
    }
    tables = {
        "restrictions": restrictions,
        "kept": [f"P{d}" for d in _kept_degrees(S, modified)],
        "m_tilde_count": len(Z),
        "b": b,
        "trdeg": td,
        "weyl_orders": list(w0.orders),
        "weyl_per_degree": rc.per_degree,
        "sum_m": rep_h.sum_m,
        "dim_m": rep_h.dim_m,
        "s0": sph.s0,
        "s_inf": sph.s_inf,
    }
    return CaseReport("sl2n", {"n": n}, seed, verdicts, tables, timer.marks)


def _case_sl2n1(params, seed, trials, dmax):
    n = _size(params, "sl2n1", 1, "g = sl(2n+1)")
    timer = _Timer()
    N = 2 * n + 1
    g = build_sl(N)
    # t0 = diag(c_n..c_1, c_0, c_1..c_n) with c_0 = -2 sum c_i
    t0v = _sl_diagonals(g, ({n - i: 1, n + i: 1, n: -2} for i in range(1, n + 1)))
    t1v = _sl_diagonals(g, ({n - i: 1, n + i: -1} for i in range(1, n + 1)))
    S, B = _build(g, t1v, t0v[::-1], "trace_powers", timer)

    restrictions = _restrictions(S, B, [f"c{i + 1}" for i in range(n)] if n > 1 else ["c"])
    unmodified_rep = ggs_check(S, B, side="h", trials=trials, seed=seed)
    # the kept restrictions generate the restricted image minimally (graded Nakayama), so
    # more than dim t0 of them rules out every choice of dim t0 kept generators
    elimination_infeasible = len(_kept_degrees(S, eliminate_on_subspace(B, S))) > len(S.t0_indices)
    timer.lap("elimination")

    _, w0, rc = _weyl_route(*_splitting_t0(S, "A", N - 1), dmax)
    timer.lap("weyl")

    sph, props = _suites(S, B, seed, trials)
    timer.lap("suites")

    verdicts = {
        "no_ggs": rc.first_failure_degree == 1,
        "elimination_infeasible": elimination_infeasible,
        "a_exceeds_dim_t0": (unmodified_rep.a_count or 0) > len(S.t0_indices),
        "routes_agree": (not rc.verdict_up_to_dmax) and not unmodified_rep.verdict,
        "sphericity_formula": sph.s0 == g.rank - len(S.t1_indices),
        **props,
    }
    tables = {
        "restrictions": restrictions,
        "a_count": unmodified_rep.a_count,
        "dim_t0": len(S.t0_indices),
        "weyl_orders": list(w0.orders),
        "weyl_per_degree": rc.per_degree,
        "first_failure_degree": rc.first_failure_degree,
        "s0": sph.s0,
        "s_inf": sph.s_inf,
    }
    return CaseReport("sl2n1", {"n": n}, seed, verdicts, tables, timer.marks)


def _case_so2n(params, seed, trials, dmax):
    # n defaults to 4, the so(8) case study
    n = _size({"n": 4, **params}, "so2n", 3, "so(4) = sl(2) + sl(2)")
    timer = _Timer()
    g = build_so_even(n)
    cart = g.triangular.cartan
    S, B = _build(g, _vectors(g.dim, ({i: 1} for i in cart[: n - 1])),
                  _vectors(g.dim, [{cart[n - 1]: 1}]), "charpoly", timer)

    labels = [f"Delta_{d}" for _, d in B.generators[:-1]] + ["Pf"]
    restrictions = _restrictions(S, B, ["c"], labels)
    rep_h = ggs_check(S, B, side="h", trials=trials, seed=seed)
    rep_r = ggs_check(S, B, side="r", trials=trials, seed=seed)
    timer.lap("ggs")

    Z, b, td = _z_algebra(S, B, "m_tilde", trials, seed)
    # exact pairwise brackets among the small generators; the large sextic
    # components are covered by the sampled property suite below
    small = [(p, tag) for p, tag in Z if len(p.terms) <= 160]
    suite = commutativity_suite(S, small, max_pairs=24, seed=seed)
    timer.lap("z_algebra")

    _, w0, rc = _weyl_route(*_splitting_t0(S, "D", n), dmax)
    timer.lap("weyl")

    sph, props = _suites(S, B, seed, trials, n_pairs=4, pair_budget=120_000)
    middles_ok = _middle_components_nonzero(S, B)
    timer.lap("suites")

    verdicts = {
        "ggs_exists": rep_h.verdict,
        "common_ggs": rep_h.verdict and rep_r.verdict,
        "weyl_restriction_onto": rc.verdict_up_to_dmax,
        "routes_agree": rep_h.verdict == rc.verdict_up_to_dmax,
        "m_tilde_count_equals_b": len(Z) == b,
        "trdeg_equals_b": td == b,
        "z_commutes_sampled": suite.passed,
        "sphericity_formula": sph.s0 == g.rank - len(S.t1_indices),
        "middle_components_nonzero": middles_ok,
        "criterion_consistent": bool(rep_h.consistent),
        **props,
    }
    tables = {
        "restrictions": restrictions,
        "degrees": B.degrees,
        "sum_m": rep_h.sum_m,
        "dim_m": rep_h.dim_m,
        "per_generator_deg_m": [r.deg_m_top for r in rep_h.rows],
        "m_tilde_count": len(Z),
        "b": b,
        "trdeg": td,
        "commute_pairs_checked": suite.pairs_checked,
        "weyl_orders": list(w0.orders),
        "weyl_per_degree": rc.per_degree,
        "s0": sph.s0,
        "s_inf": sph.s_inf,
    }
    return CaseReport("so2n", {"n": n}, seed, verdicts, tables, timer.marks)


def _case_e6_weyl(params, seed, trials, dmax):
    timer = _Timer()
    rs, t0 = _satake("E6", None, ((1, 5), (2, 4)))
    W, rep, rc = _weyl_route(rs, t0, dmax, timer.lap)
    s3_stats = rep.element_orders == {1: 1, 2: 3, 3: 2}
    verdicts = {
        # restates the certificate enumerate_weyl enforces: it raises unless the order is
        # the product of the degrees, so a wrong order never reaches this report
        "weyl_order": W.order == 51840,
        "normalizer_order": rep.order_n == 1152,
        "centralizer_order": rep.order_z == 192,
        "w0_order": rep.order_w0 == 6,
        "w0_is_s3": s3_stats,
        "failure_at_degree_3": rc.first_failure_degree == 3,
        "no_ggs": rc.first_failure_degree is not None,
    }
    tables = {
        "orders": list(rep.orders),
        "element_orders": {str(k): v for k, v in sorted(rep.element_orders.items())},
        "per_degree": rc.per_degree,
        "dmax": rc.dmax,
        "dim_t0": len(t0),
    }
    return CaseReport("e6_weyl", {}, seed, verdicts, tables, timer.marks)


def _case_aks(params, seed, trials, dmax):
    n = _size(params, "aks", 2, "g = sl(n)")
    timer = _Timer()
    g = build_sl(n)
    S = make_splitting(g, tuple(g.triangular.plus) + tuple(g.triangular.cartan))
    B = hilbert_basis(g, "charpoly")
    rep = aks_restrict(S, B)
    timer.lap("aks")
    verdicts = {
        "side_h_commutes": rep.side_h.commutes,
        "side_r_commutes": rep.side_r.commutes,
    }
    tables = {
        "side_h_count": len(rep.side_h.generators),
        "side_r_count": len(rep.side_r.generators),
    }
    return CaseReport("aks", {"n": n}, seed, verdicts, tables, timer.marks)


_CASES = {
    "borel": (_case_borel, ("n",)),
    "horo": (_case_horo, ("n", "t1")),
    "double": (_case_double, ("n",)),
    "sl2n": (_case_sl2n, ("n",)),
    "sl2n1": (_case_sl2n1, ("n",)),
    "so2n": (_case_so2n, ("n",)),
    "e6_weyl": (_case_e6_weyl, ()),
    "aks": (_case_aks, ("n",)),
}


def run_case(name: str, params: dict | None = None, seed: int = 0,
             trials: int = 8, dmax: int | None = None) -> CaseReport:
    """Run one worked case end to end and return its report; a :class:`CaseParameterError`
    before any build for an unknown case, a bad ``trials``, ``seed`` or ``dmax``, or a
    parameter key the case does not take."""
    if name not in _CASES:
        raise CaseParameterError(f"unknown case {name!r}; choose from {sorted(_CASES)}")
    try:
        _check_int("seed", seed)
        _check_count("trials", trials)
        if dmax is not None:
            _check_dmax(dmax)
    except ValueError as exc:
        raise CaseParameterError(str(exc)) from None
    case, keys = _CASES[name]
    for key in params or {}:
        if key not in keys:
            raise CaseParameterError(f"{name} does not take {key!r}; accepted keys: {list(keys)}")
    return case(params or {}, seed, trials, dmax)


def available_cases():
    return sorted(_CASES)
