"""Compilation stage: section moments, exact mass/stiffness, golden system
structures, boundary ports and the force side F*(K F r) of the Lagrangian
form."""

import copy
import hashlib
import json
import math
import operator
import pickle
import random
import re
from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_forge.build import (
    BuildError,
    assemble_phs,
    boundary_port_map,
    export_system,
    mass_matrix,
    stiffness_matrix,
    write_matrix_csv,
)
from phs_forge.diffop import BoundaryForm, IbpOracle, ibp_symbol_residual, jet
from phs_forge.exact import (
    ExactError,
    PiRat,
    check_spd,
    identity,
    ldl_pivots,
    mat_inverse,
    row_reduce,
    scalar_sign,
    to_float,
)
from phs_forge.modelfile import serialize_model
from phs_forge.models import builtin_model, builtin_names, random_poly, torsion_two_strain, validate_model
from phs_forge.poly import Poly, PolyMatrix, dot, mat_apply
from phs_forge.sections import (
    CircleSection,
    IntervalSection,
    MomentSection,
    PointSection,
    RectangleSection,
    section_moment,
)

STEEL = {"E": 200_000_000_000, "nu": F(3, 10), "kappa": F(5, 6), "rho": 7850}


def leading_minors(a):
    """Exact leading principal minors: the running products of the LDL^T
    pivots, up to the first non-positive one."""
    return list(accumulate(ldl_pivots(a)[0], mul))


def e_r(sys_, r):
    """The force side F*(K F r) of the Lagrangian form's gradient."""
    return sys_.op_adjoint.apply(mat_apply(sys_.stiffness, sys_.op.apply(r)))


def test_section_moment_interval():
    assert section_moment(IntervalSection(1), 2) == F(1, 12)
    h = F(1, 10)
    assert section_moment(IntervalSection(h), 2) == h**3 / 12
    assert section_moment(IntervalSection(1), 3) == 0


def test_section_moment_rectangle_iterated_oracle():
    b, h = F(2), F(3)
    sec = RectangleSection(b, h)
    # oracle: iterated exact integration of z3^2 over the rectangle
    z3 = Poly.variable(("z2", "z3"), "z3")
    expected = (
        (z3**2)
        .integrate("z2", -b / 2, b / 2)
        .integrate("z3", -h / 2, h / 2)
        .constant_value()
    )
    assert expected == b * h**3 / 12
    assert section_moment(sec, 2) == expected


def test_section_moment_circle_carries_pi():
    sec = CircleSection(1)
    assert section_moment(sec, 0) == PiRat(1, 1)  # area pi R^2
    assert section_moment(sec, 2) == PiRat(F(1, 4), 1)
    assert section_moment(sec, 3) == 0


def test_pi_scalar_arithmetic():
    a = PiRat(F(1, 2), 1)
    assert a + a == PiRat(1, 1)
    assert a * a == PiRat(F(1, 4), 2)
    assert a / a == F(1)
    assert float(PiRat(1, 1)) == pytest.approx(3.14159265358979, rel=1e-12)
    with pytest.raises(ExactError):
        _ = a + F(1)


# The normal form of a scalar q * pi**k, as the pair (q, k): zero and
# rational values are Fractions, with k = 0; a PiRat has q != 0 and k != 0.
def _normal(q, k):
    return (q, k) if q and k else (q, 0)


def _parts(x):
    """``(q, k)`` of a result, asserting that it is in normal form."""
    if isinstance(x, PiRat):
        assert type(x.q) is F and type(x.k) is int and x.q != 0 and x.k != 0, (x.q, x.k)
        return x.q, x.k
    assert type(x) is F, type(x)
    return x, 0


def _ref_add(a, b):
    (qa, ka), (qb, kb) = a, b
    if qa and qb and ka != kb:
        return ExactError
    return _normal(qa + qb, ka if qa else kb)


def _ref_div(a, b):
    (qa, ka), (qb, kb) = a, b
    return ZeroDivisionError if not qb else _normal(qa / qb, ka - kb)


_REF_OPS = {
    operator.add: _ref_add,
    operator.sub: lambda a, b: _ref_add(a, (-b[0], b[1])),
    operator.mul: lambda a, b: _normal(a[0] * b[0], a[1] + b[1]),
    operator.truediv: _ref_div,
}

_q = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6))
_k = st.integers(-2, 2)


@st.composite
def _operands(draw):
    """A scalar built by ``PiRat(q, k)``, ``Fraction`` or ``int``, with its
    normal form as the reference."""
    kind = draw(st.sampled_from(["pirat", "fraction", "int"]))
    if kind == "pirat":
        q, k = draw(_q), draw(_k)
        return PiRat(q, k), _normal(q, k)
    if kind == "fraction":
        q = draw(_q)
        return q, (q, 0)
    n = draw(st.integers(-3, 3))
    return n, (F(n), 0)


@settings(max_examples=300, deadline=None)
@given(q=_q, k=_k, other=_operands(), fn=st.sampled_from(list(_REF_OPS)), swap=st.booleans(),
       n=st.integers(0, 3))
def test_every_scalar_result_is_in_normal_form(q, k, other, fn, swap, n):
    x, ref_x = PiRat(q, k), _normal(q, k)
    assert _parts(x) == ref_x and bool(x) == (q != 0)
    assert _parts(-x) == _normal(-q, k)
    assert _parts(x**n) == _normal(q**n, k * n)
    (a, ref_a), (b, ref_b) = (x, ref_x), other
    if swap:  # the reflected operators
        (a, ref_a), (b, ref_b) = (b, ref_b), (a, ref_a)
    expected = _REF_OPS[fn](ref_a, ref_b)
    if expected in (ExactError, ZeroDivisionError):
        with pytest.raises(expected):
            fn(a, b)
        return
    result = fn(a, b)
    assert _parts(result) == expected
    assert bool(result) == (expected[0] != 0)


def test_zero_and_rational_pi_scalars_are_fractions():
    assert not PiRat(0, 1)
    assert type(PiRat(0, 1)) is F and PiRat(0, 1) == 0
    assert type(-PiRat(F(1, 2), 0)) is F and -PiRat(F(1, 2), 0) == F(-1, 2)
    assert type(PiRat(F(3, 4))) is F
    assert PiRat(F(1, 2), 1) != F(1, 2) and PiRat(F(1, 2), 1)


@pytest.mark.parametrize("x", [PiRat(F(1, 2), 1), PiRat(-3, -2)])
def test_a_pi_scalar_survives_deepcopy_and_pickle(x):
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is PiRat and (y.q, y.k) == (x.q, x.k)
        assert y == x and hash(y) == hash(x)


def test_timoshenko_mass_and_stiffness_diagonal():
    p = dict(STEEL)
    p.update({"G": F(10**12, 13), "b": F(1, 2), "h": F(1, 3)})
    model = builtin_model("timoshenko", p)
    area = F(1, 2) * F(1, 3)
    inertia = F(1, 2) * F(1, 3) ** 3 / 12
    assert mass_matrix(model) == [
        [F(7850) * inertia, F(0)],
        [F(0), F(7850) * area],
    ]
    assert stiffness_matrix(model) == [
        [F(200_000_000_000) * inertia, F(0)],
        [F(0), F(5, 6) * F(10**12, 13) * area],
    ]


def test_truss_stiffness_is_axial_rigidity():
    model = builtin_model("truss", {"E": 7, "A": F(1, 4)})
    assert stiffness_matrix(model) == [[F(7, 4)]]


def test_rayleigh_stiffness_quarter_convention():
    model = builtin_model("rayleigh_beam")  # unit square section: I = 1/12
    assert stiffness_matrix(model) == [[F(1, 48)]]


def test_identity_column_mass_is_density_times_area():
    model = builtin_model("string", {"A": 1, "rho": F(3, 2)})
    assert mass_matrix(model) == [[F(3, 2)]]


def test_reddy_beam_mass_matches_moment_formula():
    model = builtin_model("reddy_beam")  # b = h = 1
    i = {k: F(1, 2**k * (k + 1)) for k in (0, 2, 4, 6)}
    alpha = F(4, 3)
    c1 = i[2] - 2 * alpha * i[4] + alpha**2 * i[6]
    c2 = alpha * (i[4] - alpha * i[6])
    c3 = alpha**2 * i[6]
    assert mass_matrix(model) == [
        [c1, F(0), c2],
        [F(0), i[0], F(0)],
        [c2, F(0), c3],
    ]
    assert c1 == F(17, 315) and c2 == F(4, 315) and c3 == F(1, 252)


def test_reddy_plate_matrices_match_block_formulas():
    model = builtin_model("reddy_plate", {"h": 1, "rho": 1, "E": 1, "nu": 0, "G": 1})
    i = {k: F(1, 2**k * (k + 1)) for k in (0, 2, 4, 6)}
    alpha = F(4, 3)
    c1 = i[2] - 2 * alpha * i[4] + alpha**2 * i[6]
    c2 = alpha * (i[4] - alpha * i[6])
    c3 = alpha**2 * i[6]
    c4 = i[0] - 6 * alpha * i[2] + 9 * alpha**2 * i[4]
    mass = mass_matrix(model)
    expected_mass = [
        [c1, 0, 0, c2, 0],
        [0, c1, 0, 0, c2],
        [0, 0, i[0], 0, 0],
        [c2, 0, 0, c3, 0],
        [0, c2, 0, 0, c3],
    ]
    assert mass == [[F(x) for x in row] for row in expected_mass]
    cb = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1, 2)]]
    stiff = stiffness_matrix(model)
    for a in range(3):
        for b in range(3):
            assert stiff[a][b] == c1 * cb[a][b]
            assert stiff[a][5 + b] == c2 * cb[a][b]
            assert stiff[5 + a][b] == c2 * cb[a][b]
            assert stiff[5 + a][5 + b] == c3 * cb[a][b]
    assert stiff[3][3] == c4 and stiff[4][4] == c4
    assert stiff[3][4] == 0


def test_torsion_stiffness_is_polar_rigidity():
    model = builtin_model("torsion", {"G": 1, "R": 1, "rho": 1})
    assert stiffness_matrix(model) == [[PiRat(F(1, 2), 1)]]  # G * I_p


def test_mass_failure_surfaces_with_witness():
    model = builtin_model("timoshenko")
    one = Poly.constant(model.comp, 1)
    zero = Poly.zero(model.comp)
    # linearly dependent displacement columns: singular mass
    model = replace(model, lambda1=PolyMatrix([[one, one], [zero, zero], [zero, zero]]))
    with pytest.raises(BuildError, match="positive definite"):
        mass_matrix(model)


def test_asymmetric_stiffness_weight_is_reported_not_mirrored():
    model = builtin_model("timoshenko")
    one, zero = Poly.constant(model.comp, 1), Poly.zero(model.comp)
    model = replace(model, lambda2=PolyMatrix([[one, zero], [zero, one]]))
    e, kg = model.cmat[0][0], model.cmat[1][1]
    model = replace(model, cmat=[[e, F(1)], [F(0), kg]])  # K = A C, with area A = 1 by default
    with pytest.raises(BuildError, match=r"stiffness matrix .*asymmetric at \(1,2\): 1 vs 0"):
        assemble_phs(model, validate=False)


def test_a_system_reads_its_operator_from_its_model():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    assert len(fields(sys_)) == 6 and sys_.op is sys_.model.op


def _gram_reference(model, factor, weight=None):
    """The section Gram matrix entry by entry: the product polynomial of each
    pair of columns, integrated by ``Section.integrate``.  The reference for
    ``mass_matrix`` and ``stiffness_matrix``."""
    cols = factor.transpose().entries
    right = cols if weight is None else [mat_apply(weight, col) for col in cols]
    return [[model.section.integrate(dot(col, rcol)) for rcol in right] for col in cols]


def _assert_matches_reference(model):
    mass = _gram_reference(model, model.lambda1)
    assert _scalar_kinds(mass_matrix(model, require_spd=False)) == _scalar_kinds(
        [[model.rho * x for x in row] for row in mass])
    stiffness = _gram_reference(model, model.lambda2, model.cmat)
    assert _scalar_kinds(stiffness_matrix(model, require_spd=False)) == _scalar_kinds(stiffness)


@pytest.mark.parametrize("name", [*builtin_names(), "torsion_two_strain", "reddy0"])
def test_mass_and_stiffness_equal_the_entrywise_integrals(name):
    # reddy0 and mindlin_plate are the two sides of the Reddy-to-Mindlin reduction
    if name == "torsion_two_strain":
        model = torsion_two_strain()
    elif name == "reddy0":
        model = builtin_model("reddy_plate", {"alpha": 0})
    else:
        model = builtin_model(name)
    _assert_matches_reference(model)


def test_an_asymmetric_weight_gives_the_entrywise_integrals():
    model = builtin_model("reddy_plate")
    d = model.lambda2.rows
    cmat = [[F(i * d + j + 1, j + 2) if i <= j else F(i - j, 7) for j in range(d)] for i in range(d)]
    model = replace(model, cmat=cmat)
    _assert_matches_reference(model)
    k = stiffness_matrix(model, require_spd=False)
    assert k != [list(col) for col in zip(*k)]
    # W times the first column cancels at z3 in its first row (z3 - z3), so
    # the weighted column holds a term whose coefficient is zero
    model = builtin_model("timoshenko")
    z3 = Poly.variable(model.comp, "z3")
    model = replace(model, lambda2=PolyMatrix([[z3, 1 + z3], [z3, z3**2]]))
    model = replace(model, cmat=[[F(1), F(-1)], [F(2), F(3)]])
    _assert_matches_reference(model)
    assert stiffness_matrix(model, require_spd=False)[0][0] == model.section.integrate(5 * z3**2)


def _random_factor(rng, coords, rows, cols, degree):
    """A random PolyMatrix over ``coords``: sparse, with rational
    coefficients over several denominators."""
    def entry():
        if rng.random() < 0.3:
            return Poly.zero(coords)
        p = random_poly(rng, coords, degree)
        return Poly(coords, {e: F(c, rng.choice([1, 2, 3, 7])) for e, c in p.terms.items()})
    return PolyMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


# section kind: (builtin over the section's coordinates, section, coordinates
# a random factor may use, its top degree)
RANDOM_SECTIONS = {
    "interval": ("mindlin_plate", IntervalSection(F(1, 3)), ("z3",), 3),
    "rectangle": ("timoshenko", RectangleSection(F(2, 5), F(3, 7)), ("z2", "z3"), 2),
    "circle": ("torsion", CircleSection(F(3, 4)), ("z2", "z3"), 2),
    "moments": ("truss", MomentSection({0: F(2), 2: F(1, 9), 4: F(5, 3), 6: F(1, 11)}), ("z3",), 3),
    "none": ("elasticity3d", PointSection(), (), 0),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(RANDOM_SECTIONS))
def test_random_factors_give_the_entrywise_integrals_on_every_section_kind(kind, seed):
    name, section, used, degree = RANDOM_SECTIONS[kind]
    rng = random.Random(seed)
    model = builtin_model(name)
    model = replace(model, section=section)
    d = rng.randint(1, 4)
    # factors over the model's complementary coordinates, in ``used`` only
    model = replace(model, lambda1=_random_factor(rng, used, 3, rng.randint(1, 4), degree).extend(model.comp))
    model = replace(model, lambda2=_random_factor(rng, used, d, rng.randint(1, 4), degree).extend(model.comp))
    model = replace(model, cmat=[[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d)] for _ in range(d)])
    _assert_matches_reference(model)


BEAM = ("z2", "z3")
Z2, Z3 = Poly.variable(BEAM, "z2"), Poly.variable(BEAM, "z3")


def _moment_model(*column):
    """truss on a section known only by its area and fourth moment, with
    lambda1 the one column given."""
    model = builtin_model("truss")
    assert model.comp == BEAM
    model = replace(model, section=MomentSection({0: 1, 4: F(1, 80)}))
    model = replace(model, lambda1=PolyMatrix([[p] for p in column]))
    return model


def test_mass_of_a_moment_section_asks_only_for_surviving_moments():
    # (1 + z3^2)^2 + (1 - z3^2)^2 = 2 + 2 z3^4: the z3^2 terms cancel, so I2 is not needed
    model = _moment_model(1 + Z3**2, 1 - Z3**2, Poly.zero(BEAM))
    assert mass_matrix(model) == [[model.rho * (2 + 2 * F(1, 80))]]


def test_mass_of_a_moment_section_refuses_a_moment_it_was_not_given():
    # (1 + z3^2)^2 + z3^2 = 1 + 3 z3^2 + z3^4
    model = _moment_model(1 + Z3**2, Z3, Poly.zero(BEAM))
    with pytest.raises(ExactError, match="moment of order 2 not supplied"):
        mass_matrix(model)


def test_mass_of_a_moment_section_names_a_term_in_z2_as_integrate_does():
    model = _moment_model(F(1, 3) * Z2 + Z3**2, Poly.constant(BEAM, 1), Poly.zero(BEAM))
    col = model.lambda1.transpose().entries[0]
    with pytest.raises(ExactError) as expected:
        model.section.integrate(dot(col, col))
    with pytest.raises(ExactError) as got:
        mass_matrix(model)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("section moments does not span z2, so it cannot integrate ")


def _ldl_full_update(a):
    """The elimination that updates every trailing entry and every
    multiplier, zero or not: the reference for ``ldl_pivots``."""
    n = len(a)
    work = [row[:] for row in a]
    lower = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        d = work[j][j]
        if scalar_sign(d) <= 0:
            x = [F(0)] * n
            x[j] = F(1)
            for i in range(j - 1, -1, -1):
                x[i] = -sum((lower[r][i] * x[r] for r in range(i + 1, j + 1)), F(0))
            return [work[i][i] for i in range(j + 1)], x
        for i in range(j + 1, n):
            lij = work[i][j] / d
            lower[i][j] = lij
            for k in range(j, n):
                work[i][k] = work[i][k] - lij * work[j][k]
    return [work[i][i] for i in range(n)], None


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices: B B^T + I (definite), B B^T with fewer
    columns than rows (singular), or any symmetric fill (often indefinite);
    entries are often 0, and some matrices are scaled by pi."""
    n = draw(st.integers(1, 5))
    q = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5))
    kind = draw(st.sampled_from(["definite", "singular", "indefinite"]))
    if kind == "indefinite":
        a = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(q)
    else:
        k = n if kind == "definite" else n - 1
        b = [[draw(q) for _ in range(k)] for _ in range(n)]
        a = [[sum((b[i][t] * b[j][t] for t in range(k)), F(int(kind == "definite" and i == j)))
              for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        a = [[PiRat(x, 1) for x in row] for row in a]
    return a


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_ldl_pivots_match_the_full_update(a):
    pivots, witness = ldl_pivots(a)
    ref_pivots, ref_witness = _ldl_full_update(a)
    assert pivots == ref_pivots and list(map(str, pivots)) == list(map(str, ref_pivots))
    assert witness == ref_witness
    if witness is not None:
        n = len(a)
        xax = sum((witness[i] * a[i][j] * witness[j] for i in range(n) for j in range(n)), F(0))
        assert xax == pivots[-1] and scalar_sign(pivots[-1]) <= 0
        assert list(map(str, witness)) == list(map(str, ref_witness))


def is_zero(x) -> bool:
    return scalar_sign(x) == 0


def _row_reduce_every_entry(a, ncols):
    """Gauss-Jordan that scales and updates every entry, zero or not: the
    reference for ``row_reduce``."""
    work = [row[:] for row in a]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(work)) if not is_zero(work[r][col])), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        d = work[rank][col]
        work[rank] = [x / d for x in work[rank]]
        for r in range(len(work)):
            if r != rank and not is_zero(work[r][col]):
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
    return work, pivots


def _scalar_kinds(rows):
    """Each entry as (value, type, power of pi): a Fraction and a PiRat of
    equal value are told apart."""
    return [[(x, type(x), getattr(x, "k", 0)) for x in row] for row in rows]


def _pi(q):
    return PiRat(F(q), 1)


# sparse, with a pi block (rows and columns 0 and 2) and a rational block
SPARSE_PI = [
    [_pi(F(1, 2)), F(0), _pi(F(1, 3)), F(0), F(0)],
    [F(0), F(1), F(0), F(2), F(0)],
    [_pi(F(1, 5)), F(0), _pi(1), F(0), F(0)],
    [F(0), F(3), F(0), F(1), F(0)],
    [F(0), F(0), F(0), F(0), F(7)],
]


@pytest.mark.parametrize("name", ["torsion", "reddy_plate", "sparse_pi"])
def test_inverse_skips_zeros_with_every_value_and_type_unchanged(name):
    a = SPARSE_PI if name == "sparse_pi" else mass_matrix(builtin_model(name))
    n = len(a)
    inv = mat_inverse(a)
    ref, _ = _row_reduce_every_entry([row + e for row, e in zip(a, identity(n))], n)
    assert _scalar_kinds(inv) == _scalar_kinds([row[n:] for row in ref])
    product = [[sum((a[i][k] * inv[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]
    assert product == identity(n)
    if name != "reddy_plate":  # the torsion mass and SPARSE_PI carry pi
        assert any(isinstance(x, PiRat) for row in inv for x in row)


def test_row_reduce_of_a_sparse_matrix_with_zero_rows_matches_the_reference():
    a = [row[:] + [F(i - 2), _pi(i + 1)] for i, row in enumerate(SPARSE_PI)]
    a[1] = [F(0)] * 7
    a[3][:5] = [F(0)] * 5  # a zero row left of the right-hand sides
    work, pivots = row_reduce(a, 5)
    ref, ref_pivots = _row_reduce_every_entry(a, 5)
    assert pivots == ref_pivots == [0, 2, 4]
    assert _scalar_kinds(work) == _scalar_kinds(ref)
    with pytest.raises(ExactError, match="singular"):
        mat_inverse([row[:5] for row in a])


def test_elimination_of_rational_pi_tagged_entries_gives_fractions():
    """Entries entered as ``PiRat(q, 0)`` are Fractions, so ``row_reduce``
    and ``mat_inverse`` return what the dense reference returns: Fractions,
    in the rows elimination leaves alone too."""
    rational = [row[:] for row in SPARSE_PI]
    rational[0][0], rational[0][2], rational[2][0], rational[2][2] = F(1, 2), F(1, 3), F(1, 5), F(1)
    a = [[PiRat(x, 0) for x in row] for row in rational]
    n = len(a)
    inv = mat_inverse(a)
    ref, _ = _row_reduce_every_entry([row + e for row, e in zip(rational, identity(n))], n)
    assert _scalar_kinds(inv) == _scalar_kinds([row[n:] for row in ref])
    a[1] = [PiRat(0, 0)] * n  # a zero row, which no elimination step touches
    work, pivots = row_reduce(a, n)
    ref, ref_pivots = _row_reduce_every_entry(a, n)
    assert pivots == ref_pivots
    assert _scalar_kinds(work) == _scalar_kinds(ref)
    assert all(type(x) is F for row in inv + work for x in row)


def test_timoshenko_interconnection_golden():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    assert sys_.j_block_strings() == [
        ["0", "0", "d1", "1"],
        ["0", "0", "0", "d1"],
        ["d1", "0", "0", "0"],
        ["-1", "d1", "0", "0"],
    ]


def test_euler_bernoulli_interconnection_golden():
    sys_ = assemble_phs(builtin_model("euler_bernoulli"))
    assert sys_.j_block_strings() == [["0", "-d1^2"], ["d1^2", "0"]]


def test_reddy_plate_operator_rows_golden():
    sys_ = assemble_phs(builtin_model("reddy_plate"))
    op = sys_.op
    rows = [[str(op.symbols()[r][c]) for c in range(op.n)] for r in range(op.m)]
    assert rows == [
        ["d1", "0", "0", "0", "0"],
        ["0", "d2", "0", "0", "0"],
        ["d2", "d1", "0", "0", "0"],
        ["-1", "0", "d1", "0", "0"],
        ["0", "-1", "d2", "0", "0"],
        ["0", "0", "0", "d1", "0"],
        ["0", "0", "0", "0", "d2"],
        ["0", "0", "0", "d2", "d1"],
    ]
    assert len(sys_.state_labels) == 13


def test_adjoint_attached_is_formal_adjoint():
    for name in ("timoshenko", "rayleigh_beam", "reddy_plate"):
        sys_ = assemble_phs(builtin_model(name))
        assert sys_.op_adjoint == sys_.op.formal_adjoint()


@pytest.mark.parametrize(
    "name,params",
    [
        ("truss", {"E": 200_000_000_000, "rho": 7850, "b": F(1, 10), "h": F(1, 10)}),
        ("string", {"T": 1000, "rho": 7850, "A": F(1, 100)}),
        ("torsion", {"G": F(10**12, 13), "rho": 7850, "R": F(1, 20)}),
        ("timoshenko", {**STEEL, "G": F(10**12, 13), "b": F(1, 10), "h": F(1, 10)}),
        ("reddy_beam", {"E": 200_000_000_000, "G": F(10**12, 13), "rho": 7850, "b": F(1, 10), "h": F(1, 10)}),
        ("rayleigh_beam", {"E": 200_000_000_000, "rho": 7850, "b": F(1, 10), "h": F(1, 10)}),
        ("euler_bernoulli", {"E": 200_000_000_000, "rho": 7850, "b": F(1, 10), "h": F(1, 10)}),
        ("elasticity2d", {"E": 200_000_000_000, "nu": F(3, 10), "rho": 7850, "h": F(1, 10)}),
        ("elasticity3d", {"E": 200_000_000_000, "nu": F(3, 10), "rho": 7850}),
        ("mindlin_plate", {"E": 200_000_000_000, "nu": F(3, 10), "rho": 7850, "h": F(1, 10)}),
        ("reddy_plate", {"E": 200_000_000_000, "nu": F(3, 10), "rho": 7850, "h": F(1, 10)}),
        ("kirchhoff_rayleigh", {"E": 200_000_000_000, "nu": F(3, 10), "rho": 7850, "h": F(1, 10)}),
    ],
)
def test_spd_with_physical_parameters(name, params):
    model = builtin_model(name, params)
    mass = mass_matrix(model)
    stiff = stiffness_matrix(model)

    assert all(scalar_sign(x) > 0 for x in leading_minors(mass))
    assert all(scalar_sign(x) > 0 for x in leading_minors(stiff))


@pytest.mark.parametrize("name", sorted(__import__("phs_forge").builtin_names()))
def test_mass_and_stiffness_exactly_symmetric(name):
    model = builtin_model(name)
    from phs_forge.exact import is_symmetric

    assert is_symmetric(mass_matrix(model))
    assert is_symmetric(stiffness_matrix(model))


def test_constitutive_presets_spd_over_physical_ranges():
    from phs_forge.models import bending_shear_block, iso3d, plane_stress, shear_pair

    for nu in (F(-1, 2), F(0), F(3, 10), F(45, 100)):
        assert check_spd(plane_stress(F(3), nu))[0], nu
        assert check_spd(iso3d(F(3), nu))[0], nu
        assert check_spd(bending_shear_block(F(3), nu, F(2)))[0], nu
    assert check_spd(shear_pair(F(7)))[0]


@pytest.mark.parametrize(
    "matrix, detail",
    [
        ([[F(1), F(2)]], "not square: 1 x 2"),
        ([[F(1)], [F(2)]], "not square: 2 x 1"),
        ([[F(1), F(0)], [F(0)]], "not square: 2 x 1/2"),
    ],
    ids=["wide", "tall", "ragged"],
)
def test_check_spd_refuses_a_matrix_that_is_not_square(matrix, detail):
    # [[1, 2]] used to pass as symmetric positive definite, [[1], [2]] to
    # end in IndexError
    assert check_spd(matrix) == (False, detail)


def test_a_constitutive_matrix_that_is_not_square_is_refused():
    # the truss with C = [[1, 5]] used to validate, then compile with
    # K = [[1]], its second column dropped
    model = replace(builtin_model("truss"), cmat=[[F(1), F(5)]])
    (spd,) = [c for c in validate_model(model).checks if c.check_id == "constitutive-spd"]
    assert (spd.ok, spd.detail) == (False, "not square: 1 x 2")
    with pytest.raises(BuildError, match=r"\[FAIL\] constitutive-spd: not square: 1 x 2"):
        assemble_phs(model)


@pytest.mark.parametrize("cmat, shape", [([[1, 5]], "1 x 2"), ([[1], [5]], "2 x 1")])
def test_stiffness_matrix_refuses_a_constitutive_matrix_of_the_wrong_shape(cmat, shape):
    # unvalidated, both used to compile as K = [[1]], the extra entry dropped
    model = replace(builtin_model("truss"), cmat=[[F(x) for x in row] for row in cmat])
    message = f"constitutive matrix C of truss is {shape}, but lambda2 is 1 x 1, so C must be 1 x 1"
    with pytest.raises(BuildError, match=re.escape(message)):
        assemble_phs(model, validate=False)


def test_boundary_port_map_timoshenko_endpoints():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    right = boundary_port_map(sys_, (1,))
    left = boundary_port_map(sys_, (-1,))
    assert right.u_matrix == [[F(1), F(0)], [F(0), F(1)]]
    assert left.u_matrix == [[F(-1), F(0)], [F(0), F(-1)]]
    assert right.y_labels == ["e_p1", "e_p2"]
    assert right.u_arg_labels == ["e_eps1", "e_eps2"]


def test_boundary_port_map_rejects_bad_normal():
    sys_ = assemble_phs(builtin_model("mindlin_plate"))
    with pytest.raises(BuildError):
        boundary_port_map(sys_, (1, 1))


def test_jet_port_labels_and_symbol_rows_share_one_layout():
    """Position i of jet(w), y_labels[i] and row i of the monomials that
    ibp_symbol_residual reads name the same derivative."""
    sys_ = assemble_phs(builtin_model("kirchhoff_rayleigh"))  # second order, 2D
    op = sys_.op
    rng = random.Random(3)
    w = [random_poly(rng, op.axes, 4) for _ in range(op.n)]
    stacked = jet(w, op.order, op.axes)
    labels = boundary_port_map(sys_, (1, 0)).y_labels
    assert len(stacked) == len(labels) == sys_.boundary.rows == 3 * op.n
    symbols = ("dw1", "dw2", "dv1", "dv2")
    flux = -(Poly.variable(symbols, "dw1") + Poly.variable(symbols, "dv1"))
    for i, label in enumerate(labels):
        k, j, p = re.fullmatch(r"(?:d(\d)(?:\^(\d))? )?e_p(\d)", label).groups()
        k, j, p = int(k or 0), int(j or (1 if k else 0)), int(p) - 1
        derivative = w[p]
        for _ in range(j):
            derivative = derivative.diff(op.axes[k - 1])
        assert stacked[i] == derivative, label
        # a unit added at Q_1[i][0] (column: the field, component 0) moves
        # symbol entry [p][0] by -(eta_1 + zeta_1) times the row's monomial
        form = BoundaryForm(op)
        form.q_axes = [[row[:] for row in q] for q in form.q_axes]
        form.q_axes[0][i][0] += 1
        eta = Poly(symbols, {tuple(j if s == k - 1 else 0 for s in range(4)): 1})
        residual = ibp_symbol_residual(op, form=form)
        moved = {(r, c): e for r, row in enumerate(residual) for c, e in enumerate(row) if not e.is_zero}
        assert moved == {(p, 0): flux * eta}, label


def test_boundary_port_map_second_order_uses_jets():
    sys_ = assemble_phs(builtin_model("rayleigh_beam"))
    pm = boundary_port_map(sys_, (1,))
    assert pm.y_labels == ["e_p1", "e_p2", "d1 e_p1", "d1 e_p2"]
    assert pm.u_arg_labels == ["e_eps1", "d1 e_eps1"]
    assert len(pm.u_matrix) == 4 and len(pm.u_matrix[0]) == 2

    # second order in 2D: the normal +-e_a gives +-Q_a, jets on both sides
    sys_ = assemble_phs(builtin_model("kirchhoff_rayleigh"))
    for a in range(2):
        q = sys_.boundary.q_axes[a]
        for sign in (1, -1):
            normal = tuple(sign if i == a else 0 for i in range(2))
            pm = boundary_port_map(sys_, normal)
            assert pm.normal == normal
            assert pm.u_matrix == [[sign * x for x in row] for row in q]
            assert len(pm.y_labels) == len(q) == 9 and len(pm.u_arg_labels) == len(q[0]) == 9
            assert pm.y_labels[3:6] == ["d1 e_p1", "d1 e_p2", "d1 e_p3"]


def test_truss_boundary_pairing_sign():
    """Pairing value on constant co-energy fields is e_p e_eps at b minus at a."""
    sys_ = assemble_phs(builtin_model("truss"))
    x1 = ("z1",)
    e_p = [Poly.constant(x1, F(2))]
    e_eps = [Poly.constant(x1, F(5))]
    oracle = IbpOracle(sys_.op, sys_.model.domain, form=sys_.boundary)
    assert oracle.boundary(e_eps, e_p) == F(0)  # b, a cancel
    z1 = Poly.variable(x1, "z1")
    e_p = [z1]
    assert oracle.boundary(e_eps, e_p) == F(5)  # 1*5 - 0*5


def test_lagrangian_form_truss_wave_stiffness():
    sys_ = assemble_phs(builtin_model("truss"))
    z1 = Poly.variable(("z1",), "z1")
    out = e_r(sys_, [z1**3])
    # F*(K F u) = -EA u'' with EA = 1
    assert out == [-6 * z1]


def test_lagrangian_form_timoshenko_expansion():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    z1 = Poly.variable(("z1",), "z1")
    out = e_r(sys_, [z1**2, z1**3])
    ei = F(1, 12)
    kga = F(5, 6)
    # component 1: -d1(EI * 2 z1) - kGA * 2 z1^2 ; component 2: -d1(kGA 2 z1^2)
    assert out[0] == Poly.constant(("z1",), -2 * ei) + (-2 * kga) * z1**2
    assert out[1] == (-4 * kga) * z1


def test_lagrangian_zero_displacement_gives_zero_force():
    sys_ = assemble_phs(builtin_model("mindlin_plate"))
    zeros = [Poly.zero(("z1", "z2")) for _ in range(3)]
    assert all(p.is_zero for p in e_r(sys_, zeros))


# SHA-256 over every builtin's export JSON, float CSVs and model text; a
# change here means `export` or `build --emit-model` output moved.
ARTIFACT_DIGEST = "f3b0c4077e01ef5b71a2be7408eca45d967acaf1b9e4171d2149e6064cf9ce25"


def test_export_and_model_text_digest_of_all_builtins(tmp_path):
    h = hashlib.sha256()
    for name in builtin_names():
        sys_ = assemble_phs(builtin_model(name))
        doc = json.dumps(export_system(sys_), sort_keys=True, separators=(",", ":"))
        h.update(doc.encode())
        for matrix in (sys_.mass, sys_.stiffness):
            path = tmp_path / "m.csv"
            write_matrix_csv(str(path), matrix)
            h.update(path.read_bytes())
        h.update(serialize_model(sys_.model).encode())
    assert len(builtin_names()) == 12
    assert h.hexdigest() == ARTIFACT_DIGEST


def test_write_matrix_csv_refuses_a_value_past_float_range_before_opening(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=re.escape("matrix[1][0] is about 1e-400, outside the range of a float")):
        write_matrix_csv(str(path), [[F(1), F(2)], [F(1, 10**400), F(3)]])
    assert not path.exists()


@pytest.mark.parametrize(
    "value, expected",
    [(PiRat(4 * 10**308, -1), 4 / math.pi * 1e308), (PiRat(F(2, 10**324), 1), math.ldexp(1, -1074))],
    ids=["q-past-the-largest-float", "q-below-the-smallest-subnormal"],
)
def test_a_pi_scalar_converts_where_its_rational_part_would_not(value, expected):
    # float(q) overflows or rounds to 0, yet q * pi**k is a float
    assert to_float(value, "x") == pytest.approx(expected, rel=1e-15)
    assert float(value) == to_float(value, "x") != 0


@pytest.mark.parametrize(
    "value, message",
    [(PiRat(10**400, -1), "x is about 1e+400"), (PiRat(F(1, 10**400), 1), "x is about 1e-400")],
    ids=["overflow", "underflow"],
)
def test_a_pi_scalar_past_float_range_is_refused(value, message):
    with pytest.raises(ValueError, match=re.escape(f"{message}, outside the range of a float")):
        to_float(value, "x")


def test_export_structure_and_rational_pairs():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    doc = export_system(sys_)
    assert doc["mass"][0][0] == [1, 12]
    assert doc["operator"]["terms"][0]["axis"] == 1
    assert doc["boundary"]["p_partial"]["n1"][0][0] == [1, 1]
    assert doc["state_labels"] == ["p1", "p2", "eps1", "eps2"]
    # pi-tagged entries carry a third slot
    tor = export_system(assemble_phs(builtin_model("torsion")))
    assert tor["mass"][0][0] == [1, 2, 1]
