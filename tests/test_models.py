"""Builtin catalogue, validation behaviour, and the model file format."""

import dataclasses
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phs_forge.build import assemble_phs, export_system
from phs_forge.diffop import DiffOpMatrix, DomainSpec
from phs_forge.exact import PiRat
from phs_forge.modelfile import (
    ParseError,
    _parse_operator,
    _poly_rows,
    eval_scalar,
    parse_model,
    serialize_model,
)
from phs_forge.models import (
    ModelError,
    builtin_model,
    builtin_names,
    derive_operator,
    random_poly,
    strain_symbol,
    torsion_two_strain,
    validate_model,
)
from phs_forge.poly import Poly, PolyMatrix

ALL = builtin_names()
Z123 = ("z1", "z2", "z3")
# builtins whose r is free, so that F is derived from lambda1 and lambda2
DERIVED = ["elasticity2d", "elasticity3d", "mindlin_plate", "string", "timoshenko", "torsion", "truss"]


def test_twelve_builtins_present():
    assert ALL == sorted(
        [
            "truss",
            "elasticity2d",
            "elasticity3d",
            "mindlin_plate",
            "string",
            "torsion",
            "reddy_beam",
            "rayleigh_beam",
            "euler_bernoulli",
            "kirchhoff_rayleigh",
            "timoshenko",
            "reddy_plate",
        ]
    )


@pytest.mark.parametrize("name", ALL)
def test_every_builtin_validates(name):
    model = builtin_model(name)
    report = validate_model(model)
    assert report.ok, str(report)


def test_unknown_builtin_rejected():
    with pytest.raises(ModelError):
        builtin_model("kelvin_voigt_sandwich")


def test_unknown_parameter_rejected():
    with pytest.raises(ModelError):
        builtin_model("string", {"youngs": 3})


def test_nonpositive_parameter_rejected():
    with pytest.raises(ModelError):
        builtin_model("truss", {"E": 0})


def test_timoshenko_dimensions():
    m = builtin_model("timoshenko")
    assert (m.n, m.m, m.d, m.order, m.ell) == (2, 2, 2, 1, 1)


def test_reddy_plate_dimensions_and_alpha():
    m = builtin_model("reddy_plate", {"h": F(1, 2)})
    assert (m.n, m.m, m.d) == (5, 8, 5)
    assert m.params["alpha"] == 4 / (3 * F(1, 2) ** 2)


@pytest.mark.parametrize(
    "domain",
    [DomainSpec.interval(0, 1), DomainSpec.rectangle(0, 1, 0, 1, axes=("z2", "z1"))],
    ids=["interval", "swapped-axes"],
)
def test_model_refuses_a_domain_over_other_axes_than_distributed(domain):
    # the pairing kernel integrates fields over dist on the domain's axes
    plate = builtin_model("mindlin_plate")
    with pytest.raises(ModelError, match="are not the distributed coordinates z1 z2"):
        dataclasses.replace(plate, domain=domain)


def test_zero_lambda1_column_fails_validation():
    model = builtin_model("timoshenko")
    zero = Poly.zero(model.comp)
    one = Poly.constant(model.comp, 1)
    model.lambda1 = PolyMatrix([[zero, zero], [zero, zero], [zero, one]])
    report = validate_model(model)
    bad = {c.check_id for c in report.failures()}
    assert "lambda1-columns" in bad


@pytest.mark.parametrize(
    "bd, detail",
    [
        (None, "lambda1 is 3 x n and lambda2 is d x m"),
        ([[F(1), F(0)], [F(0), F(1)]], "lambda1 is 3 x n and lambda2 is d x m"),
        ([[F(1), F(2)], [F(3)]], "Bd has 2 rows of length 1, 2 (want 2 rows of one length >= 1)"),
        ([[F(1)]], "Bd has 1 rows of length 1 (want 2 rows of one length >= 1)"),
        ([[], []], "Bd has 2 rows of length 0 (want 2 rows of one length >= 1)"),
        ([], "Bd has 0 rows of length none (want 2 rows of one length >= 1)"),
    ],
    ids=["none", "square", "ragged", "short", "no-columns", "empty"],
)
def test_shapes_check_reads_the_input_map(bd, detail):
    # a ragged Bd used to pass and end in an IndexError in distributed_input
    model = builtin_model("timoshenko")
    model.bd = bd
    (shapes,) = [c for c in validate_model(model).checks if c.check_id == "shapes"]
    assert (shapes.ok, shapes.detail) == (detail.startswith("lambda1"), detail)


def test_indefinite_constitutive_matrix_fails_with_witness():
    model = builtin_model("timoshenko")
    model.cmat = [[F(1), F(2)], [F(2), F(1)]]  # det = -3
    report = validate_model(model)
    fail = [c for c in report.failures() if c.check_id == "constitutive-spd"]
    assert fail and "witness" in fail[0].detail


def test_perturbed_lambda2_breaks_strain_consistency():
    model = builtin_model("timoshenko")
    z3 = Poly.variable(model.comp, "z3")
    zero = Poly.zero(model.comp)
    one = Poly.constant(model.comp, 1)
    # wrong sign in the bending factor
    model.lambda2 = PolyMatrix([[z3, zero], [zero, one]])
    report = validate_model(model)
    fail = [c for c in report.failures() if c.check_id == "strain-consistency"]
    assert fail and "component 1" in fail[0].detail


def test_torsion_uses_pi_exact_section():
    from phs_forge.build import mass_matrix

    m = builtin_model("torsion", {"R": 1, "rho": 1, "G": 1})
    mass = mass_matrix(m)
    assert mass[0][0] == PiRat(F(1, 2), 1)  # rho * I_p = pi R^4 / 2


def test_torsion_two_strain_fixture_is_consistent():
    two = torsion_two_strain()
    assert validate_model(two).ok
    assert two.m == 2


def test_reddy_alpha_zero_has_vanishing_extra_columns():
    model = builtin_model("reddy_plate", {"alpha": 0})
    assert model.lambda1.col_is_zero(3)
    assert model.lambda1.col_is_zero(4)
    # leading 3x3 block of lambda1 equals the first-order plate's factor
    mindlin = builtin_model("mindlin_plate")
    for i in range(3):
        for j in range(3):
            assert model.lambda1.entries[i][j] == mindlin.lambda1.entries[i][j]


@pytest.mark.parametrize("name", ALL)
def test_serialize_parse_round_trip(name):
    model = builtin_model(name)
    text = serialize_model(model)
    back = parse_model(text)
    assert back == model


@pytest.mark.parametrize("value, expected", [("true", True), ("false", False)])
def test_structure_strain_check_reads_true_and_false(value, expected):
    text = serialize_model(builtin_model("timoshenko"))
    text = text.replace("names = psi, w", f"names = psi, w\nstrain_check = {value}")
    assert parse_model(text).strain_check is expected


def test_parse_rejects_mixed_derivatives():
    model = builtin_model("elasticity2d")
    text = serialize_model(model).replace("d1, 0\n0, d2", "d1*d2, 0\n0, d2")
    with pytest.raises(ParseError, match="mixed"):
        parse_model(text)


@pytest.mark.parametrize(
    "entry, expected",
    [
        ("(1 + d1)*d1 - d1^2", "d1"),
        ("(d1 + d2)*(d1 - d2)", "d1^2 - d2^2"),
        ("(d1 + 1)*(d2 + 1)", None),
    ],
    ids=["constant-times-d1", "difference-of-squares", "shifted-product"],
)
def test_parse_expands_operator_entries_before_the_mixed_check(entry, expected):
    # an entry is a polynomial in d1..dl: products cancel before a monomial
    # in two symbols is refused
    lines = [f"{entry}, 0", "0, d2"]
    if expected is None:
        with pytest.raises(ParseError, match="mixed"):
            _parse_operator(lines, ("z1", "z2"), {})
    else:
        assert str(_parse_operator(lines, ("z1", "z2"), {}).symbols()[0][0]) == expected


@pytest.mark.parametrize("lines", [[], ["d1, 0", "1"]], ids=["empty", "ragged"])
def test_parse_rejects_an_empty_or_ragged_operator(lines):
    # an empty [F] section used to end in an IndexError traceback (exit 1)
    with pytest.raises(ParseError, match="non-empty and not ragged"):
        _parse_operator(lines, ("z1",), {})


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _operators(draw):
    ell = draw(st.integers(1, 3))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix():
        return draw(st.lists(st.lists(_COEFF, min_size=n, max_size=n), min_size=m, max_size=m))

    keys = [(k, i) for k in range(1, ell + 1) for i in range(1, 4)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
    return DiffOpMatrix(m, n, ("z1", "z2", "z3")[:ell], p0=matrix(), pk={key: matrix() for key in chosen})


@settings(max_examples=60, deadline=None)
@given(op=_operators())
@example(op=DiffOpMatrix(1, 1, ("z1", "z2"), p0=[[F(-1, 2)]], pk={(2, 3): [[F(-3, 4)]], (1, 1): [[1]]}))
@example(op=DiffOpMatrix(1, 1, ("z1", "z2"), pk={(1, 2): [[1]], (2, 2): [[-1]]}))
@example(op=DiffOpMatrix(1, 1, ("z1",), p0=[[F(1, 2)]], pk={(1, 1): [[F(-1, 2)]]}).formal_adjoint())
def test_operator_text_round_trip(op):
    # the [F] rows the serializer writes parse back to the same operator
    lines = [", ".join(map(str, row)) for row in op.symbols()]
    assert _parse_operator(lines, op.axes, {}) == op


def test_operator_text_of_two_axis_and_multi_term_entries():
    # one renderer: constant first, then the powers of d1, then those of d2
    assert str(_parse_operator(["d1^2 - d2^2"], ("z1", "z2"), {})) == "[d1^2 - d2^2]"
    assert str(_parse_operator(["2 - d2 + d1"], ("z1", "z2"), {})) == "[2 + d1 - d2]"
    # -F* of a multi-term entry is the negated adjoint symbol, term by term
    sys_ = assemble_phs(_tiny(op="-(d1 - 1)/2"), validate=False)
    assert str(sys_.op_adjoint) == "[1/2 + 1/2*d1]"
    assert sys_.j_block_strings() == [["0", "-1/2 - 1/2*d1"], ["1/2 - 1/2*d1", "0"]]


_DROPPED_INPUT = [
    ("version = 1", "version = 1\nversoin = 2", "unknown key 'versoin' in [header]"),
    ("complementary = z2 z3", "complementary = z2 z3\ndistributd = z9",
     "unknown key 'distributd' in [coords]"),
    ("interval = 0, 1", "interval = 0, 1\nrectangle = 0, 1, 0, 1",
     "[domain] declares interval and rectangle; declare one"),
    ("interval = 0, 1", "interval = 0, 1\nintervall = 0, 1", "unknown key 'intervall' in [domain]"),
    ("[params]", "[bogus]\nx = 1\n\n[params]", "unknown section [bogus]"),
    ("rectangle = 1, 1", "rectangle = 1, 1\ncircle = 1", "[section] declares rectangle and circle"),
    ("rectangle = 1, 1", "rectangle = 1, 1\nradius = 1", "unknown key 'radius' in [section]"),
    ("rectangle = 1, 1", "rectangle = 1, 1\nnone", "expected 'key = value' in [section]"),
    ("name = timoshenko", "name = timoshenko\nname = beam", "duplicate key 'name' in [header]"),
    ("kappa = 5/6", "kappa = 5/6\nkappa = 1", "duplicate parameter 'kappa'"),
]


@pytest.mark.parametrize(
    "old, new, message",
    _DROPPED_INPUT,
    ids=["header-key", "coords-key", "two-domains", "domain-key", "section-name",
         "two-sections", "section-key", "none-and-kind", "duplicate-key", "duplicate-param"],
)
def test_parse_refuses_input_it_would_drop(old, new, message):
    # each of these edits used to parse, the extra line silently ignored
    text = serialize_model(builtin_model("timoshenko"))
    assert old in text
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_model(text.replace(old, new, 1))


def test_model_refuses_r_names_of_the_wrong_length():
    model = builtin_model("timoshenko")
    with pytest.raises(ModelError, match="3 r_names for an operator on 2 fields"):
        dataclasses.replace(model, r_names=("psi", "w", "extra"))


def test_parse_rejects_unknown_coordinate():
    model = builtin_model("string")
    text = serialize_model(model).replace("[lambda1]\n0\n0\n1", "[lambda1]\n0\n0\nz9")
    with pytest.raises(ParseError, match="coordinate"):
        parse_model(text)


def test_parse_rejects_unbound_constant():
    model = builtin_model("string")
    text = serialize_model(model).replace("[lambda2]\n1", "[lambda2]\nq_mystery")
    with pytest.raises(ParseError, match="binding"):
        parse_model(text)


def test_parse_rejects_decimal_literals():
    model = builtin_model("string")
    text = serialize_model(model).replace("T = 1", "T = 0.3")
    with pytest.raises(ParseError, match="rational"):
        parse_model(text)


def test_tokenizer_tokens_and_messages():
    from phs_forge.modelfile import MAX_LITERAL_DIGITS, _tokenize

    assert _tokenize(" E/(2*(1 + nu)) - z3^2") == [
        ("name", "E"), ("op", "/"), ("op", "("), ("num", "2"), ("op", "*"), ("op", "("),
        ("num", "1"), ("op", "+"), ("name", "nu"), ("op", ")"), ("op", ")"), ("op", "-"),
        ("name", "z3"), ("op", "^"), ("num", "2"), ("end", ""),
    ]
    assert _tokenize("  ") == [("end", "")]
    with pytest.raises(ParseError, match=r"^decimal literal '0\.3' is not exact; write a rational like 3/10$"):
        _tokenize("1 + 0.3")
    digits = MAX_LITERAL_DIGITS + 1
    with pytest.raises(ParseError, match=f"^integer literal of {digits} digits exceeds the limit of "
                                         f"{MAX_LITERAL_DIGITS} digits$"):
        _tokenize("1" * digits)
    with pytest.raises(ParseError, match=r"^cannot tokenize ' \$ 2'$"):
        _tokenize("x + $ 2")


_TINY = """
version = 1
name = tiny

[coords]
distributed = z1
complementary = z2 z3

[domain]
interval = 0, 1

[section]
moments = I0: 1, I2: 1

[params]
rho = 1
{param}

[lambda1]
{lam}
0
0

[lambda2]
1

[F]
{op}

[C]
1
"""


def _tiny(param="", lam="1", op="d1"):
    return parse_model(_TINY.format(param=param, lam=lam, op=op))


@pytest.mark.parametrize(
    "section, text, match",
    [
        ("param", "x = 1/(1-1)", "division by zero"),
        ("lam", "1/z3", "divide"),
        ("op", "1/d1", "divide"),
    ],
)
def test_parse_division_errors(section, text, match):
    with pytest.raises(ParseError, match=match):
        _tiny(**{section: text})


def test_parse_nests_parentheses_and_signs_up_to_the_limit():
    from phs_forge.modelfile import MAX_NESTING

    assert MAX_NESTING == 64
    assert _tiny(param="x = " + "(" * 64 + "1" + ")" * 64).params["x"] == 1
    assert _tiny(param="x = " + "-" * 64 + "2").params["x"] == 2
    assert _tiny(param="x = " + "-(" * 32 + "3" + ")" * 32).params["x"] == 3
    for deeper in ("(" * 65 + "1" + ")" * 65, "-" * 65 + "1", "-(" * 32 + "-1" + ")" * 32):
        with pytest.raises(ParseError, match="nest deeper than 64 in parameter x"):
            _tiny(param=f"x = {deeper}")


def test_parse_operator_and_polynomial_arithmetic():
    op = _tiny(op="1 - d1").op
    assert op.p0 == [[F(1)]] and op.pk == {(1, 1): [[F(-1)]]}
    op = _tiny(op="-(d1 - 1)/2").op
    assert op.p0 == [[F(1, 2)]] and op.pk == {(1, 1): [[F(-1, 2)]]}
    op = _tiny(op="2*d1^2 - d1*3/4").op
    assert op.p0 == [[F(0)]] and op.pk == {(1, 1): [[F(-3, 4)]], (1, 2): [[F(2)]]}
    z3 = Poly.variable(("z2", "z3"), "z3")
    lam = _tiny(lam="(z3 - 1/3*z3^3)/2").lambda1
    assert lam.entries[0][0] == F(1, 2) * z3 - F(1, 6) * z3**3
    assert _tiny(param="x = 2 - 3/4*(1 + 1)^2").params["x"] == F(-1)


def test_parse_requires_density():
    text = """
version = 1
name = bare

[coords]
distributed = z1
complementary = z2 z3

[domain]
interval = 0, 1

[section]
moments = I0: 1

[lambda1]
1
0
0

[lambda2]
1

[F]
d1

[C]
1
"""
    with pytest.raises(ParseError, match="rho"):
        parse_model(text)


def test_handwritten_file_matches_builtin_structure():
    text = """
version = 1
name = timoshenko

[coords]
distributed = z1
complementary = z2 z3

[domain]
interval = 0, 1

[section]
rectangle = 1, 1

[params]
E = 1
G = 1
kappa = 5/6
rho = 1

[lambda1]
-z3, 0
0, 0
0, 1

[lambda2]
-z3, 0
0, 1

[F]
d1, 0
-1, d1

[C]
E, 0
0, kappa*G

[structure]
names = psi, w
fields = psi, w
r = psi, w
"""
    model = parse_model(text)
    builtin = builtin_model("timoshenko")
    assert model.op == builtin.op
    assert model.lambda1 == builtin.lambda1
    assert model.lambda2 == builtin.lambda2
    assert model.cmat == builtin.cmat
    assert validate_model(model).ok


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[F]\nd1, 0\n-1, d1", "[F]\nd1, q_bad\nq_bad, d1", "constant 'q_bad' has no binding (in F[0][1])"),
        ("[F]\nd1, 0\n-1, d1", "[F]\nd1, B*B*d1\nB*B*d1, d1",
         "F[0][1] has a numerator of 6001 digits, over the limit of 4000 digits"),
        ("[lambda1]\n-z3, 0\n0, 0\n0, 1", "[lambda1]\n-z3, 0\n0, B*B\n0, B*B",
         "lambda1[1][1] has a numerator of 6001 digits, over the limit of 4000 digits"),
    ],
    ids=["unbound", "long-F", "long-lambda1"],
)
def test_a_repeated_bad_entry_is_refused_at_its_first_position(old, new, message):
    # each distinct entry text is evaluated once, where it first occurs
    text = serialize_model(builtin_model("timoshenko"))
    text = text.replace("[params]\n", "[params]\nB = 1" + "0" * 3000 + "\n", 1)
    assert old in text
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_model(text.replace(old, new, 1))


def test_repeated_mixed_entries_parse_as_entry_by_entry():
    text = serialize_model(builtin_model("truss"))
    for old, new in (
        ("[lambda1]\n1\n0\n0", "[lambda1]\n1 + z2, 0, z3^2, 0\n0, 1 + z2, 0, 1\n1, 0, z3^2, z3^2"),
        ("[lambda2]\n1", "[lambda2]\n1, 0, 0, E/2"),
        ("[F]\nd1", "[F]\nd1, 0, 0, 0"),
        ("[C]\n1", "[C]\nE, 0, 1/2\n0, E, 0\n1/2, 0, E"),
        ("[Bd]\n1", "[Bd]\n1, 0, A\n0, A, 0\nA, 1, 0\n0, 0, 1"),
        ("[structure]\nnames = u1\nfields = u1\nr = u1\n", ""),
    ):
        assert old in text
        text = text.replace(old, new, 1)
    model = parse_model(text)
    params = model.params
    lam1 = [["1 + z2", "0", "z3^2", "0"], ["0", "1 + z2", "0", "1"], ["1", "0", "z3^2", "z3^2"]]
    cmat = [["E", "0", "1/2"], ["0", "E", "0"], ["1/2", "0", "E"]]
    bd = [["1", "0", "A"], ["0", "A", "0"], ["A", "1", "0"], ["0", "0", "1"]]
    assert model.lambda1 == PolyMatrix(
        [[_poly_rows([t], model.comp, params, "lambda1")[0][0] for t in row] for row in lam1]
    )
    assert model.cmat == [[eval_scalar(t, params, "C") for t in row] for row in cmat]
    assert model.bd == [[eval_scalar(t, params, "Bd") for t in row] for row in bd]
    # a repeated text is one value
    assert model.lambda1.entries[0][0] is model.lambda1.entries[1][1]
    assert model.cmat[0][0] is model.cmat[2][2] and model.bd[0][2] is model.bd[2][0]


def test_validation_report_is_reproducible():
    m = builtin_model("reddy_plate")
    r1 = validate_model(m)
    r2 = validate_model(m)
    assert str(r1) == str(r2)


def _strain_check_fails(model) -> bool:
    return any(c.check_id == "strain-consistency" for c in validate_model(model).failures())


def _op_mutants(op):
    """F with one nonzero coefficient (of P0 or a Pk) moved by +1 or -1."""
    blocks = [("p0", None, op.p0)] + [("pk", key, mat) for key, mat in sorted(op.pk.items())]
    for kind, key, mat in blocks:
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                if x == 0:
                    continue
                for step in (1, -1):
                    moved = [list(rw) for rw in mat]
                    moved[r][c] = x + step
                    p0 = moved if kind == "p0" else op.p0
                    pk = op.pk if kind == "p0" else {**op.pk, key: moved}
                    yield f"{kind}{key or ''}[{r}][{c}]{step:+d}", DiffOpMatrix(op.m, op.n, op.axes, p0, pk)


@pytest.mark.parametrize("name", [n for n in ALL if builtin_model(n).strain_check])
def test_strain_proof_kills_every_coefficient_mutation(name):
    model = builtin_model(name)
    assert not _strain_check_fails(model)
    survivors = [
        label
        for label, mutant in _op_mutants(model.op)
        if not _strain_check_fails(dataclasses.replace(model, op=mutant))
    ]
    entries = model.lambda2.entries
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            if p.is_zero:
                continue
            flipped = [list(rw) for rw in entries]
            flipped[i][j] = -p
            if not _strain_check_fails(dataclasses.replace(model, lambda2=PolyMatrix(flipped))):
                survivors.append(f"lambda2[{i}][{j}] negated")
    assert survivors == []


def _full_voigt_strain(u):
    """All six engineering strain components of a 3-vector displacement."""
    u1, u2, u3 = u
    return [
        u1.diff("z1"),
        u2.diff("z2"),
        u3.diff("z3"),
        u1.diff("z2") + u2.diff("z1"),
        u1.diff("z3") + u3.diff("z1"),
        u2.diff("z3") + u3.diff("z2"),
    ]


def _monomial_field_proof(model) -> bool:
    """Reference for the strain proof: voigt(lambda1 r) = lambda2 F r on every
    monomial field e_j z^alpha of each free field, |alpha| <= max(N, 1) + 1.
    Both sides are operators of at most that order in the free fields, with
    coefficients constant in the distributed coordinates, so this decides the
    identity too, from fields instead of symbols."""
    degree = max(model.order, 1) + 1
    zero = Poly.zero(Z123)
    lambda1, lambda2 = model.lambda1.extend(Z123), model.lambda2.extend(Z123)
    samples = []
    for j in range(len(model.free_fields)):
        for alpha in itertools.product(range(degree + 1), repeat=model.ell):
            if sum(alpha) > degree:
                continue
            mono = Poly(model.dist, {alpha: 1}).extend(Z123)
            free = [mono if i == j else zero for i in range(len(model.free_fields))]
            r = [
                free[s[1]] if s[0] == "free" else free[s[1]].diff(model.dist[s[2] - 1])
                for s in model.structure
            ]
            samples.append((_full_voigt_strain(lambda1.apply(r)), lambda2.apply(model.op.apply(r))))
    rows = [i for i in range(6) if any(not voigt[i].is_zero for voigt, _ in samples)]
    return len(rows) == model.d and all(
        voigt[i] == rhs[j] for voigt, rhs in samples for j, i in enumerate(rows)
    )


@pytest.mark.parametrize("name", [n for n in ALL if builtin_model(n).strain_check])
def test_symbol_proof_agrees_with_monomial_field_reference(name):
    model = builtin_model(name)
    variants = [("builtin", model)]
    variants += [(label, dataclasses.replace(model, op=op)) for label, op in _op_mutants(model.op)]
    entries = model.lambda2.entries
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            if not p.is_zero:
                flipped = [list(rw) for rw in entries]
                flipped[i][j] = -p
                lam2 = PolyMatrix(flipped)
                variants.append((f"lambda2[{i}][{j}] negated", dataclasses.replace(model, lambda2=lam2)))
    verdicts = {label: (not _strain_check_fails(v), _monomial_field_proof(v)) for label, v in variants}
    assert verdicts["builtin"] == (True, True)
    assert len(verdicts) > 1
    assert {label: v for label, v in verdicts.items() if v[0] != v[1]} == {}


def test_strain_failure_names_the_field_and_both_symbols():
    model = builtin_model("rayleigh_beam")
    model.lambda2 = PolyMatrix([[Poly.variable(model.comp, "z3") * F(1, 2)]])
    detail = [c for c in validate_model(model).failures() if c.check_id == "strain-consistency"][0].detail
    assert detail == (
        "free field w: strain component 1 (voigt 1) mismatch: "
        "kinematics give -z3*d1^2, factorization gives z3*d1^2"
    )


def test_random_poly_draws_are_pinned():
    # every sampled check draws its fields here; the seed-7 report digest
    # rests on these exact draws
    assert str(random_poly(random.Random("pin"), ("z1", "z2"), 4)) == (
        "-2 + z1 - 2*z1^2 + z1^3 - 3*z1^4 - 2*z1^2*z2 + 2*z1^3*z2 + 3*z1*z2^2 - 2*z1^2*z2^2"
        " + z2^3 + z1*z2^3 - 3*z2^4"
    )
    assert str(random_poly(random.Random("pin3"), Z123, 3)) == (
        "-2*z1^2 - z1^3 + z2 + 2*z1*z2 - 3*z1^2*z2 - 3*z2^2 + 3*z1*z2^2 - 3*z2^3 + 3*z3"
        " + 3*z1*z3 - 2*z1^2*z3 + z2*z3 - z2^2*z3 + z3^2 + 2*z1*z3^2 + z2*z3^2 + z3^3"
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["beam", "plate", "solid"]))
def test_strain_symbol_applies_as_the_voigt_strain(seed, family):
    # lambda1 over all three coordinates, the distributed ones too: the
    # symbol keeps its coefficients on the left, so the product rule is exact
    dist = {"beam": Z123[:1], "plate": Z123[:2], "solid": Z123}[family]
    rng = random.Random(seed)
    lambda1 = PolyMatrix([[random_poly(rng, Z123, 2) for _ in range(2)] for _ in range(3)])
    r = [random_poly(rng, dist, 3).extend(Z123) for _ in range(2)]
    symbol = strain_symbol(dist, lambda1)
    assert symbol.coords == Z123 + tuple(f"d{k}" for k in range(1, len(dist) + 1))

    def apply(entry, field):
        """The operator of one symbol entry on a field: each term
        differentiates first and multiplies by its coefficient after."""
        out = Poly.zero(Z123)
        for e, c in entry.terms.items():
            derivative = field
            for name, k in zip(dist, e[3:]):
                for _ in range(k):
                    derivative = derivative.diff(name)
            out += Poly(Z123, {e[:3]: c}) * derivative
        return out

    got = [sum((apply(p, f) for p, f in zip(row, r)), Poly.zero(Z123)) for row in symbol.entries]
    assert got == _full_voigt_strain(lambda1.apply(r))


@pytest.mark.parametrize("name", DERIVED)
def test_derived_operator_is_unique_and_proved(name):
    model = builtin_model(name)
    op = derive_operator(model.dist, model.lambda1, model.lambda2)
    assert op == model.op and op.order == 1
    assert validate_model(model).ok


@pytest.mark.parametrize("name", ["rayleigh_beam", "reddy_plate"])
def test_constrained_kinematics_do_not_determine_operator(name):
    model = builtin_model(name)
    with pytest.raises(ModelError, match="the kinematics do not determine F; state it"):
        derive_operator(model.dist, model.lambda1, model.lambda2)


def test_derivation_refuses_a_non_unique_operator():
    truss = builtin_model("truss")
    one = Poly.constant(truss.comp, 1)
    with pytest.raises(ModelError, match="rank 1 < m = 2"):
        derive_operator(truss.dist, truss.lambda1, PolyMatrix([[one, one]]))


README_TIMOSHENKO = """
version = 1
name = timoshenko

[coords]
distributed = z1
complementary = z2 z3

[domain]
interval = 0, 1

[section]
moments = I0: 1/100, I2: 1/120000

[params]
E = 200000000000
nu = 3/10
G = E / (2*(1 + nu))
kappa = 5/6
rho = 7850

[lambda1]
-z3, 0
0, 0
0, 1

[lambda2]
-z3, 0
0, 1

[C]
E, 0
0, kappa*G
"""


def test_readme_file_without_operator_derives_the_builtin_one():
    model = parse_model(README_TIMOSHENKO)
    assert model.op == builtin_model("timoshenko").op
    assert validate_model(model).ok
    assert "[F]\nd1, 0\n-1, d1\n" in serialize_model(model)


@pytest.mark.parametrize("name", DERIVED)
def test_model_text_without_operator_serializes_byte_identically(name):
    text = serialize_model(builtin_model(name))
    start = text.index("[F]\n")
    stripped = text[:start] + text[text.index("[C]\n", start):]
    assert serialize_model(parse_model(stripped)) == text


def test_constrained_file_without_operator_is_refused():
    text = serialize_model(builtin_model("rayleigh_beam"))
    assert "r = d1(w), w" in text
    with pytest.raises(ModelError, match="do not determine F"):
        parse_model(text.replace("[F]\nd1, d1^2\n\n", ""))


# moduli, densities and lengths: any positive value keeps a builtin valid
_SCALABLE = ("A", "E", "G", "I", "R", "T", "b", "h", "kappa", "rho")


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ALL),
    scales=st.lists(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000), min_size=10, max_size=10),
)
def test_round_trip_with_scaled_parameters(name, scales):
    defaults = builtin_model(name).params
    params = {
        key: defaults[key] * scale
        for key, scale in zip(_SCALABLE, scales)
        if defaults.get(key, 0) > 0
    }
    model = builtin_model(name, params)
    assert parse_model(serialize_model(model)) == model


# Section and derived-parameter variants; each applies to the builtins whose
# parameters include all of its keys.  Zeroed keys select the section: R
# (circle) wins over A (moments, I optional), which wins over b x h.
PARAM_GRID = [
    ("defaults", {}),
    ("R", {"R": F(1, 5)}),
    ("A+I", {"A": F(1, 10), "I": F(1, 1000), "R": 0}),
    ("bxh", {"A": 0, "R": 0, "b": F(1, 10), "h": F(1, 5)}),
    ("bxh-no-A", {"R": 0, "b": F(1, 10), "h": F(1, 5)}),
    ("G", {"G": F(3, 8)}),
    ("nu", {"nu": F(1, 4)}),
    ("G+nu", {"G": F(3, 8), "nu": F(1, 4)}),
    ("alpha", {"alpha": F(1, 2)}),
    ("h", {"h": F(1, 10)}),
]
# string refuses a circular section: its tension needs a rational area
GRID_EXCLUDED = {("string", "R")}
# SHA-256 over the model text and export JSON of every builtin under PARAM_GRID
PARAM_GRID_DIGEST = "66528c1ba84784e7132f92484cf5b72306c908f19914a65b1988487bdc375640"


def _grid_models():
    for name in ALL:
        keys = set(builtin_model(name).params)
        for label, params in PARAM_GRID:
            if set(params) <= keys and (name, label) not in GRID_EXCLUDED:
                yield name, label, builtin_model(name, params)


def test_parameter_grid_digest_and_round_trip():
    h = hashlib.sha256()
    count = 0
    for name, label, model in _grid_models():
        text = serialize_model(model)
        assert parse_model(text) == model, (name, label)
        doc = json.dumps(export_system(assemble_phs(model)), sort_keys=True, separators=(",", ":"))
        h.update(f"{name} {label}\n{text}{doc}\n".encode())
        count += 1
    assert count == 66
    assert h.hexdigest() == PARAM_GRID_DIGEST
