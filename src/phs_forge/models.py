"""Declarative kinematic models and the builtin catalogue.

A model is the input to the compiler: a displacement-field factor map
(lambda1), a strain factor map (lambda2) together with the matrix
differential operator F it multiplies, a constitutive matrix, parameters
(the density ``rho`` among them), and the geometry (spatial domain plus
cross-section); the frozen record holds each of these facts once, and
``simulation_refusal`` says whether the simulator takes it.  When every
component of r is free, F follows from lambda1 and lambda2
(``derive_operator``); reduced models and those whose r holds a slope of
another component state it.
Both read the strain symbol of ``lambda1 r`` (``strain_symbol``).
Validation enforces the structural conditions the compiler relies on: no
zero columns in lambda1, no zero rows or columns in lambda2 or the operator,
a symmetric positive definite constitutive matrix, and an exact proof that
the factorization reproduces the strain of the kinematics (``V S = lambda2 F S``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .diffop import DiffOpMatrix, DomainSpec, derivative_symbols
from .exact import check_spd, fr, row_reduce
from .poly import Poly, PolyMatrix, _distinct
from .sections import (
    CircleSection,
    IntervalSection,
    MomentSection,
    PointSection,
    RectangleSection,
    Section,
)

ALL_COORDS = ("z1", "z2", "z3")


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Constitutive presets
# ---------------------------------------------------------------------------


def scalar_young(E) -> list:
    return [[fr(E)]]


def shear_pair(G) -> list:
    G = fr(G)
    return [[G, Fraction(0)], [Fraction(0), G]]


def _require_poisson(nu: Fraction, high: Fraction, what: str):
    """Refuse a Poisson ratio outside (-1, high), where ``what`` divides by
    zero or stops being positive definite."""
    if not -1 < nu < high:
        raise ModelError(f"parameter nu must lie in (-1, {high}) for {what}, got {nu}")


def string_tension(T, A) -> list:
    A = fr(A)
    if A <= 0:
        raise ModelError(f"parameter A must be positive, got {A}")
    return [[fr(T) / A]]


def plane_stress(E, nu) -> list:
    E, nu = fr(E), fr(nu)
    _require_poisson(nu, 1, "plane_stress")
    f = E / (1 - nu**2)
    return [
        [f, f * nu, Fraction(0)],
        [f * nu, f, Fraction(0)],
        [Fraction(0), Fraction(0), f * (1 - nu) / 2],
    ]


def iso3d(E, nu) -> list:
    E, nu = fr(E), fr(nu)
    _require_poisson(nu, Fraction(1, 2), "iso3d")
    mu = E / (2 * (1 + nu))
    lam = nu * E / ((1 + nu) * (1 - 2 * nu))
    c = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            c[i][j] = lam + (2 * mu if i == j else Fraction(0))
        c[3 + i][3 + i] = mu
    return c


def bending_shear_block(E, nu, G) -> list:
    """5x5 block diag(plane-stress bending, transverse shear)."""
    cb = plane_stress(E, nu)
    G = fr(G)
    out = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(3):
        for j in range(3):
            out[i][j] = cb[i][j]
    out[3][3] = G
    out[4][4] = G
    return out


CONSTITUTIVE_PRESETS = {
    "scalar_young": (scalar_young, ("E",)),
    "shear_pair": (shear_pair, ("G",)),
    "string_tension": (string_tension, ("T", "A")),
    "plane_stress": (plane_stress, ("E", "nu")),
    "iso3d": (iso3d, ("E", "nu")),
    "bending_shear_block": (bending_shear_block, ("E", "nu", "G")),
}


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

def state_labels(n: int, m: int) -> List[str]:
    """The momenta ``p1..pn``, then the strains ``eps1..epsm``."""
    return [f"p{i + 1}" for i in range(n)] + [f"eps{j + 1}" for j in range(m)]


# How each generalized-displacement component relates to the model's free
# fields: ("free", j) takes free field j as-is, ("d", j, k) differentiates it
# once along axis k.  Needed to generate admissible test displacement fields
# for models whose unknowns include slopes of other unknowns.
RComp = Tuple


@dataclass(frozen=True)
class KinematicModel:
    """Frozen: change a model with ``dataclasses.replace``, which checks it
    again.  ``dist``, ``comp`` and ``rho`` read the domain, lambda1 and params."""

    name: str
    domain: DomainSpec
    section: Section
    lambda1: PolyMatrix
    lambda2: PolyMatrix
    op: Optional[DiffOpMatrix]  # None: derived from lambda1 and lambda2
    cmat: list
    params: Dict[str, Fraction]
    bd: Optional[list] = None
    r_names: Tuple[str, ...] = ()
    free_fields: Tuple[str, ...] = ()
    structure: Tuple[RComp, ...] = ()
    # Reduced models (obtained by deleting momenta/rescaling strains from a
    # parent with more unknowns) have no standalone displacement
    # factorization; their strain check is inherited from the parent.
    strain_check: bool = True

    def __post_init__(self):
        if "rho" not in self.params:
            raise ModelError("density parameter 'rho' is required in params")
        if self.op is None:
            object.__setattr__(self, "op", derive_operator(self.dist, self.lambda1, self.lambda2))
        if self.op.axes != self.dist:
            raise ModelError(f"operator over {' '.join(self.op.axes)} on a domain over {' '.join(self.dist)}")
        if not self.r_names:
            object.__setattr__(self, "r_names", tuple(f"r{i + 1}" for i in range(self.n)))
        elif len(self.r_names) != self.n:
            raise ModelError(f"{len(self.r_names)} r_names for an operator on {self.n} fields")
        labels = state_labels(self.n, self.m)
        for i, name in enumerate(self.r_names):
            if name in self.r_names[:i] or name in labels[:i] + labels[i + 1 :]:
                raise ModelError(f"r_name {name!r} of field p{i + 1} also names another field, by name or label")
        if not self.structure:
            object.__setattr__(self, "free_fields", self.r_names)
            object.__setattr__(self, "structure", tuple(("free", i) for i in range(self.n)))

    @property
    def dist(self) -> Tuple[str, ...]:
        return self.domain.axes

    @property
    def comp(self) -> Tuple[str, ...]:
        return self.lambda1.coords

    @property
    def rho(self) -> Fraction:
        return self.params["rho"]

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def m(self) -> int:
        return self.op.m

    @property
    def d(self) -> int:
        return len(self.cmat)

    @property
    def ell(self) -> int:
        return len(self.dist)

    @property
    def order(self) -> int:
        return self.op.order


def simulation_refusal(model: KinematicModel) -> Optional[str]:
    """Why the discrete stage refuses ``model``, or None when it simulates
    it: 1D models up to second order and 2D first-order models."""
    if model.ell == 3:
        return "3D elasticity is symbolic-stage only; no 3D grids"
    if model.ell == 2 and model.order >= 2:
        return (
            f"{model.name}: second-order operators on 2D domains (e.g. the "
            "fourth-order plate) are supported in the symbolic stage only"
        )
    if model.order > 2:
        return "operators of order greater than two are not discretized"
    return None


def random_poly(rng: random.Random, coords: Sequence[str], degree: int) -> Poly:
    """Random polynomial of total degree <= ``degree`` with integer
    coefficients in {-3..3}, one draw per exponent of ``_exponents_up_to``
    in its order; the constant 1 if every draw is 0.

    A coefficient is ``rng.getrandbits(3) - 3``, a draw of 7 rejected and
    redrawn: the stream of ``rng.randrange(7) - 3``, which CPython's
    ``Random._randbelow`` takes from ``getrandbits(3)`` the same way.
    """
    coords = _distinct(coords)
    if degree < 0:
        raise ValueError(f"random_poly degree must be >= 0, got {degree}")
    draw, num = rng.getrandbits, {}
    for e in _exponents_up_to(len(coords), degree):
        c = draw(3)
        while c == 7:
            c = draw(3)
        if c != 3:
            num[e] = c - 3
    return Poly._raw(coords, num or {(0,) * len(coords): 1})


@lru_cache(maxsize=64)
def _exponents_up_to(arity: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    """The exponent tuples of total degree <= ``degree``, in lexicographic order."""
    if arity == 0:
        return ((),)
    heads = range(degree + 1)
    return tuple((h,) + tail for h in heads for tail in _exponents_up_to(arity - 1, degree - h))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCheck:
    check_id: str
    ok: bool
    detail: str


@dataclass
class ValidationReport:
    model: str
    checks: List[ValidationCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[ValidationCheck]:
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        lines = [f"validation of {self.model}:"]
        for c in self.checks:
            lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.check_id}: {c.detail}")
        return "\n".join(lines)


# Voigt order of the strain components: (a, b) is eps_aa on the diagonal and
# the engineering shear d_b u_a + d_a u_b off it
_VOIGT = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def strain_symbol(dist: Sequence[str], lambda1: PolyMatrix) -> PolyMatrix:
    """The Voigt strain of ``u = lambda1 r`` as a 6 x n symbol over lambda1's
    coordinates and d1..d_ell (lambda2 is over the same coordinates).

    Entry (i, c) is the operator taking r_c to strain component i, with its
    coefficients on the left and ``d_k`` standing for d/d dist[k-1] acting on
    r: the product rule ``d_z (p r_c) = (p.diff(z) + p d_k) r_c`` for a
    distributed z, ``p.diff(z) r_c`` for a complementary one.  The calculus is
    exact whatever coordinates lambda1 depends on.
    """
    # not all of z1..z3: longer exponent tuples filled the interpreter's tuple
    # free lists and raised the verify suite's peak RSS by 0.5 MB
    coords = lambda1.coords + derivative_symbols(len(dist))
    symbol = {z: Poly.variable(coords, d) for z, d in zip(dist, derivative_symbols(len(dist)))}
    zero = Poly.zero(coords)

    def derivative(p: Poly, z: str) -> Poly:
        out = p.diff(z) if z in lambda1.coords else zero
        return out + p * symbol[z] if z in symbol else out

    lam = lambda1.extend(coords).entries
    # g[a][b][c] is the symbol of d_b (lambda1[a][c] r_c)
    g = [[[derivative(p, z) for p in row] for z in ALL_COORDS] for row in lam]
    shear = lambda a, b: [x + y for x, y in zip(g[a][b], g[b][a])]
    return PolyMatrix([g[a][a] if a == b else shear(a, b) for a, b in _VOIGT])


def derive_operator(dist: Sequence[str], lambda1: PolyMatrix, lambda2: PolyMatrix) -> DiffOpMatrix:
    """The constant first-order F with voigt(lambda1 r) = lambda2 F r for every r.

    With r free, the strain symbol (``strain_symbol``) is ``B_0 + sum_k B_k
    d_k`` with B over the complementary coordinates: ``B_0`` and ``B_k`` are
    its d-degree-0 and ``d_k`` coefficients.  Matching the coefficient of every
    complementary monomial in ``lambda2 X = B`` is one exact linear system for
    all the ``X``; F exists and is unique exactly when that system is
    consistent and of rank m.
    """
    dist = tuple(dist)
    n, m, d = lambda1.cols, lambda2.cols, lambda2.rows
    refuse = "the kinematics do not determine F; state it"
    if lambda1.rows != 3:
        raise ModelError(f"{refuse}: lambda1 has {lambda1.rows} rows, not 3")
    symbol = strain_symbol(dist, lambda1)
    rows = [i for i in range(6) if not symbol.row_is_zero(i)]
    if len(rows) != d:
        raise ModelError(
            f"{refuse}: lambda1 r has {len(rows)} nonzero strain components "
            f"(voigt {[i + 1 for i in rows]}), but lambda2 has {d} rows"
        )
    # B_0, then each B_k: the symbol's d-degree-0 and d_k coefficients, by z-exponents
    units = [tuple(int(j == k) for j in range(1, len(dist) + 1)) for k in range(len(dist) + 1)]
    z = len(lambda1.coords)
    strain = {
        i: [{e[:z]: x for e, x in p.terms.items() if e[z:] == u} for u in units for p in row]
        for i, row in enumerate(symbol.entries)
        if i in rows
    }
    # each polynomial's coefficients, read once: terms builds a fresh dict
    lam2 = [[p.terms for p in row] for row in lambda2.extend(lambda1.coords).entries]
    monomials = sorted(
        {e for row in lam2 for t in row for e in t} | {e for i in rows for t in strain[i] for e in t}
    )
    system = [
        [t.get(e, _Z) for t in lam2[a]] + [t.get(e, _Z) for t in strain[i]]
        for a, i in enumerate(rows)
        for e in monomials
    ]
    work, pivots = row_reduce(system, m)
    if any(x != 0 for row in work[len(pivots):] for x in row):
        raise ModelError(f"{refuse}: no constant F solves lambda2 F r = voigt(lambda1 r)")
    if len(pivots) < m:
        raise ModelError(f"{refuse}: lambda2 has coefficient rank {len(pivots)} < m = {m}")
    x = [row[m:] for row in work[:m]]
    pk = {(k, 1): [row[k * n : (k + 1) * n] for row in x] for k in range(1, len(dist) + 1)}
    return DiffOpMatrix(m, n, dist, p0=[row[:n] for row in x], pk=pk)


def validate_model(model: KinematicModel) -> ValidationReport:
    checks: List[ValidationCheck] = []

    def add(check_id: str, ok: bool, detail: str):
        checks.append(ValidationCheck(check_id, ok, detail))

    # coordinate partition; the section spans complementary coordinates only
    overlap = set(model.dist) & set(model.comp)
    known = set(model.dist) | set(model.comp) <= set(ALL_COORDS)
    outside = [c for c in model.section.spans if c not in model.comp]
    if outside:
        detail = f"the {model.section.kind} section spans {' '.join(outside)}, outside comp={model.comp}"
    elif overlap or not known:
        detail = f"bad coordinate split: dist={model.dist} comp={model.comp}"
    else:
        detail = "distributed and complementary sets are disjoint subsets of (z1, z2, z3)"
    add("coordinate-partition", not (overlap or outside) and known, detail)

    # lambda1 columns
    bad_cols = [j + 1 for j in range(model.lambda1.cols) if model.lambda1.col_is_zero(j)]
    add(
        "lambda1-columns",
        not bad_cols,
        "no zero columns" if not bad_cols else f"zero column(s) {bad_cols} in lambda1",
    )

    def rows_cols(what: str, matrix: PolyMatrix):
        bad = [f"row {i + 1}" for i in range(matrix.rows) if matrix.row_is_zero(i)]
        bad += [f"col {j + 1}" for j in range(matrix.cols) if matrix.col_is_zero(j)]
        detail = "no zero rows or columns" if not bad else f"zero {', '.join(bad)} in {what}"
        add(f"{what}-rows-cols", not bad, detail)

    # F as rows in the derivative symbols, shared with the strain proof
    operator = PolyMatrix(model.op.symbols())
    rows_cols("lambda2", model.lambda2)
    rows_cols("operator", operator)

    # shapes; Bd, when given, has one row per component of r and at least
    # one input column
    shape_ok = (
        model.lambda1.rows == 3
        and model.lambda1.cols == model.n
        and model.lambda2.rows == model.d
        and model.lambda2.cols == model.m
    )
    bad = []
    if not shape_ok:
        bad.append(
            f"lambda1 {model.lambda1.rows}x{model.lambda1.cols} (want 3x{model.n}), "
            f"lambda2 {model.lambda2.rows}x{model.lambda2.cols} (want {model.d}x{model.m})"
        )
    if model.bd is not None:
        widths = sorted({len(row) for row in model.bd})
        if len(model.bd) != model.n or len(widths) != 1 or widths[0] < 1:
            bad.append(
                f"Bd has {len(model.bd)} rows of length {', '.join(map(str, widths)) or 'none'} "
                f"(want {model.n} rows of one length >= 1)"
            )
    add("shapes", not bad, ", ".join(bad) or "lambda1 is 3 x n and lambda2 is d x m")

    # constitutive matrix
    ok, detail = check_spd(model.cmat)
    add("constitutive-spd", ok, detail)

    # strain factorization consistency
    if shape_ok:
        if model.strain_check:
            ok, detail = _strain_consistency(model, operator)
            add("strain-consistency", ok, detail)
        else:
            add(
                "strain-consistency",
                True,
                "skipped: reduced model, factorization validated on its parent",
            )

    return ValidationReport(model.name, checks)


def _strain_consistency(model: KinematicModel, operator: PolyMatrix):
    """Prove voigt(lambda1 r) = lambda2 F r on every admissible field r = S f.

    S is the structure matrix, n x (free fields): entry (c, j) is 1 when r_c
    is free field j and ``d_k`` when r_c is its slope ``dk(f_j)``.  As symbols
    in the coordinates and d1..d_ell with coefficients on the left, the strain
    of the kinematics is ``V S`` (V from ``strain_symbol``) and that of the
    factorization ``lambda2 F S`` (F from ``DiffOpMatrix.symbols``).  S and F
    have constant coefficients, so these products compose the operators
    exactly, and an operator's symbol is unique: ``V S == lambda2 F S`` entry
    by entry is a proof for every admissible field.
    """
    symbol = strain_symbol(model.dist, model.lambda1)
    coords = symbol.coords
    one, zero = Poly.constant(coords, 1), Poly.zero(coords)
    entry = lambda s: one if s[0] == "free" else Poly.variable(coords, f"d{s[2]}")
    free = range(len(model.free_fields))
    columns = [[entry(s) if s[1] == j else zero for s in model.structure] for j in free]
    kinematics = [symbol.apply(col) for col in columns]
    rows = [i for i in range(6) if any(not strain[i].is_zero for strain in kinematics)]
    if len(rows) != model.d:
        return False, (
            f"displacement field produces {len(rows)} nonzero strain components "
            f"(voigt indices {[i + 1 for i in rows]}), but d = {model.d}"
        )
    operator, lambda2 = operator.extend(coords), model.lambda2.extend(coords)
    for name, col, strain in zip(model.free_fields, columns, kinematics):
        for j, (i, rhs) in enumerate(zip(rows, lambda2.apply(operator.apply(col)))):
            if strain[i] != rhs:
                return False, (
                    f"free field {name}: strain component {j + 1} (voigt {i + 1}) "
                    f"mismatch: kinematics give {strain[i]}, factorization gives {rhs}"
                )
    return True, (
        f"factorization proved on voigt components {[i + 1 for i in rows]} "
        "(symbol identity V S = lambda2 F S)"
    )


# ---------------------------------------------------------------------------
# Builtin catalogue
# ---------------------------------------------------------------------------


def _beam_section(p: Dict[str, Fraction]) -> Section:
    """Circle when R is given, abstract moments when A is given (I optional),
    otherwise the rectangle b x h; a 0 means not given."""
    for k in ("R", "A", "I"):
        if p.get(k, 0) < 0:
            raise ModelError(f"parameter {k} must be positive, got {p[k]}")
    if p.get("R", 0):
        return CircleSection(p["R"])
    if p.get("A", 0):
        moments = {0: p["A"]}
        if p.get("I", 0):
            moments[2] = p["I"]
        return MomentSection(moments)
    if p["b"] <= 0 or p["h"] <= 0:
        raise ModelError(
            "parameters b and h must be positive when neither A nor R is given, "
            f"got b = {p['b']}, h = {p['h']}"
        )
    return RectangleSection(p["b"], p["h"])


# family -> (complementary coordinates, domain, section of the params)
_FAMILIES = {
    "beam": (("z2", "z3"), lambda: DomainSpec.interval(0, 1), _beam_section),
    "plate": (
        ("z3",),
        lambda: DomainSpec.rectangle(0, 1, 0, 1),
        lambda p: IntervalSection(p["h"]),
    ),
    "solid": (
        (),
        lambda: DomainSpec.box(((0, 1), (0, 1), (0, 1))),
        lambda p: PointSection(),
    ),
}


@dataclass(frozen=True)
class _Builtin:
    """What one builtin states; ``builtin_model`` does the rest.

    ``kinematics(p, z2, z3)`` returns the rows of lambda1 and lambda2 (ints
    or polynomials in the family's complementary coordinates; z2 and z3 are
    None outside them).  ``derived`` names the parameters computed when not
    given: "G" from E and nu (when nu is given or nonzero by default), "alpha"
    as 4/(3 t^2) for the thickness t.
    ``op`` is stated only when r holds a slope or the model is reduced, as
    rows in the derivative symbols (``_operator``).
    Every model built from an entry shares its ``op`` and ``bd``; nothing
    changes them in place.
    """

    family: str
    defaults: Dict[str, object]
    positive: Tuple[str, ...]
    kinematics: Callable
    cmat: Callable
    r_names: Tuple[str, ...]
    derived: Tuple[str, ...] = ()
    op: Optional[DiffOpMatrix] = None
    free_fields: Tuple[str, ...] = ()
    structure: Tuple[RComp, ...] = ()
    strain_check: bool = True
    bd: Optional[list] = None


_Z = Fraction(0)


def _poly_rows(coords, rows) -> PolyMatrix:
    out = []
    for r in rows:
        row = []
        for e in r:
            row.append(e if isinstance(e, Poly) else Poly.constant(coords, e))
        out.append(row)
    return PolyMatrix(out)


def _operator(ell: int, rows: Callable) -> DiffOpMatrix:
    """F over the first ``ell`` axes from ``rows(d1, .., d_ell)``, its rows in
    the derivative symbols."""
    symbols = derivative_symbols(ell)
    d = [Poly.variable(symbols, s) for s in symbols]
    return DiffOpMatrix.from_symbols(_poly_rows(symbols, rows(*d)).entries, ALL_COORDS[:ell])


def _diag(*entries) -> list:
    return [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)]


def _reddy_factors(z3: Poly, alpha: Fraction):
    """Bending factor g, cubic warping and shear factor of third-order kinematics."""
    return -(z3 - alpha * z3**3), -alpha * z3**3, 1 - 3 * alpha * z3**2


def _reddy_beam_kinematics(p, z2, z3):
    g, cubic, shear = _reddy_factors(z3, p["alpha"])
    return [[g, 0, cubic], [0, 0, 0], [0, 1, 0]], [[g, 0, cubic], [0, shear, 0]]


def _reddy_plate_kinematics(p, z2, z3):
    g, cubic, shear = _reddy_factors(z3, p["alpha"])
    lam1 = [[g, 0, 0, cubic, 0], [0, g, 0, 0, cubic], [0, 0, 1, 0, 0]]
    lam2 = [
        [g, 0, 0, 0, 0, cubic, 0, 0],
        [0, g, 0, 0, 0, 0, cubic, 0],
        [0, 0, g, 0, 0, 0, 0, cubic],
        [0, 0, 0, shear, 0, 0, 0, 0],
        [0, 0, 0, 0, shear, 0, 0, 0],
    ]
    return lam1, lam2


def _string_tension(p):
    if p["R"] > 0:
        raise ModelError(
            "string needs a rational section area: give A, or b and h, instead of R "
            "(a circle's area carries a factor of pi)"
        )
    return string_tension(p["T"], _beam_section(p).monomial(0, 0))


_BEAM = {"E": 1, "rho": 1, "b": 1, "h": 1, "A": 0, "I": 0, "R": 0}
_PLATE = {"E": 1, "nu": "3/10", "rho": 1, "h": 1}

BUILTINS = {
    "truss": _Builtin(
        "beam",
        {**_BEAM, "A": 1, "b": 0, "h": 0},
        ("E", "rho"),
        lambda p, z2, z3: ([[1], [0], [0]], [[1]]),
        lambda p: scalar_young(p["E"]),
        ("u1",),
        bd=[[Fraction(1)]],
    ),
    "string": _Builtin(
        "beam",
        {"T": 1, "rho": 1, "A": 1, "b": 0, "h": 0, "R": 0, "I": 0},
        ("T", "rho"),
        lambda p, z2, z3: ([[0], [0], [1]], [[1]]),
        _string_tension,
        ("w",),
    ),
    "torsion": _Builtin(
        "beam",
        {"G": 1, "rho": 1, "R": 1, "b": 0, "h": 0},
        ("G", "rho"),
        lambda p, z2, z3: ([[0], [z3], [-z2]], [[z3], [-z2]]),
        lambda p: shear_pair(p["G"]),
        ("theta",),
    ),
    "timoshenko": _Builtin(
        "beam",
        {**_BEAM, "G": 1, "nu": 0, "kappa": "5/6"},
        ("E", "G", "kappa", "rho"),
        lambda p, z2, z3: ([[-z3, 0], [0, 0], [0, 1]], [[-z3, 0], [0, 1]]),
        lambda p: [[p["E"], _Z], [_Z, p["kappa"] * p["G"]]],
        ("psi", "w"),
        derived=("G",),
    ),
    "rayleigh_beam": _Builtin(
        "beam",
        _BEAM,
        ("E", "rho"),
        lambda p, z2, z3: ([[-z3, 0], [0, 0], [0, 1]], [[-z3 * Fraction(1, 2)]]),
        lambda p: scalar_young(p["E"]),
        ("theta", "w"),
        op=_operator(1, lambda d1: [[d1, d1**2]]),
        free_fields=("w",),
        structure=(("d", 0, 1), ("free", 0)),
    ),
    # Reduction of the slope-augmented bending beam: rotary inertia dropped,
    # shear rigidity imposed.  lambda1 keeps only the transverse motion whose
    # kinetic energy survives, so the generic strain check does not apply.
    "euler_bernoulli": _Builtin(
        "beam",
        _BEAM,
        ("E", "rho"),
        lambda p, z2, z3: ([[0], [0], [1]], [[-z3]]),
        lambda p: scalar_young(p["E"]),
        ("w",),
        op=_operator(1, lambda d1: [[d1**2]]),
        strain_check=False,
    ),
    "reddy_beam": _Builtin(
        "beam",
        {"E": 1, "G": 1, "nu": 0, "rho": 1, "b": 1, "h": 1, "R": 0, "alpha": 0},
        ("E", "G", "rho"),
        _reddy_beam_kinematics,
        lambda p: [[p["E"], _Z], [_Z, p["G"]]],
        ("psi", "w", "theta"),
        derived=("G", "alpha"),
        op=_operator(1, lambda d1: [[d1, 0, 0], [-1, d1, 0], [0, 0, d1]]),
        free_fields=("psi", "w"),
        structure=(("free", 0), ("free", 1), ("d", 1, 1)),
    ),
    "elasticity2d": _Builtin(
        "plate",
        {**_PLATE, "G": 0},
        ("E", "rho", "h"),
        lambda p, z2, z3: ([[1, 0], [0, 1], [0, 0]], _diag(1, 1, 1)),
        lambda p: plane_stress(p["E"], p["nu"]),
        ("u1", "u2"),
    ),
    "elasticity3d": _Builtin(
        "solid",
        {"E": 1, "nu": "3/10", "rho": 1},
        ("E", "rho"),
        lambda p, z2, z3: (_diag(1, 1, 1), _diag(1, 1, 1, 1, 1, 1)),
        lambda p: iso3d(p["E"], p["nu"]),
        ("u1", "u2", "u3"),
    ),
    "mindlin_plate": _Builtin(
        "plate",
        {**_PLATE, "G": 0},
        ("E", "rho", "h", "G"),
        lambda p, z2, z3: (_diag(-z3, -z3, 1), _diag(-z3, -z3, -z3, 1, 1)),
        lambda p: bending_shear_block(p["E"], p["nu"], p["G"]),
        ("psi1", "psi2", "w"),
        derived=("G",),
    ),
    "reddy_plate": _Builtin(
        "plate",
        {**_PLATE, "G": 0, "alpha": 0},
        ("E", "rho", "h", "G"),
        _reddy_plate_kinematics,
        lambda p: bending_shear_block(p["E"], p["nu"], p["G"]),
        ("psi1", "psi2", "w", "theta1", "theta2"),
        derived=("G", "alpha"),
        op=_operator(
            2,
            lambda d1, d2: [
                [d1, 0, 0, 0, 0],
                [0, d2, 0, 0, 0],
                [d2, d1, 0, 0, 0],
                [-1, 0, d1, 0, 0],
                [0, -1, d2, 0, 0],
                [0, 0, 0, d1, 0],
                [0, 0, 0, 0, d2],
                [0, 0, 0, d2, d1],
            ]
        ),
        free_fields=("psi1", "psi2", "w"),
        structure=(("free", 0), ("free", 1), ("free", 2), ("d", 2, 1), ("d", 2, 2)),
    ),
    "kirchhoff_rayleigh": _Builtin(
        "plate",
        _PLATE,
        ("E", "rho", "h"),
        lambda p, z2, z3: ([[0, -z3, 0], [-z3, 0, 0], [0, 0, 1]], _diag(-z3, -z3, -z3)),
        lambda p: plane_stress(p["E"], p["nu"]),
        ("theta2", "theta1", "w"),
        op=_operator(2, lambda d1, d2: [[0, 0, d1**2], [0, 0, d2**2], [d1, d2, 0]]),
        free_fields=("w",),
        structure=(("d", 0, 2), ("d", 0, 1), ("free", 0)),
    ),
}


def builtin_names() -> List[str]:
    return sorted(BUILTINS)


def builtin_model(name: str, params: Optional[Dict] = None) -> KinematicModel:
    """The builtin ``name`` with ``params`` over its defaults.

    Parameters are checked here; the model itself is validated where it is
    compiled (``assemble_phs``), not on every build.
    """
    if name not in BUILTINS:
        raise ModelError(f"unknown builtin model {name!r}; known: {', '.join(builtin_names())}")
    spec = BUILTINS[name]
    params = params or {}
    for k in params:
        if k not in spec.defaults:
            raise ModelError(f"unknown parameter {k!r}; expected one of {sorted(spec.defaults)}")
    p = {k: fr(params.get(k, v)) for k, v in spec.defaults.items()}
    given_g = "G" in params and p["G"] != 0
    if "G" in spec.derived and not given_g and ("nu" in params or p["nu"] != 0):
        if p["nu"] <= -1:
            raise ModelError(f"parameter nu must be greater than -1 to derive G, got {p['nu']}")
        p["G"] = p["E"] / (2 * (1 + p["nu"]))
    if "alpha" in spec.derived and "alpha" not in params:
        thickness = 2 * p["R"] if p.get("R", 0) > 0 else p["h"]
        if thickness <= 0:
            raise ModelError(f"parameter h must be positive, got {p['h']}")
        p["alpha"] = 4 / (3 * thickness**2)
    for k in spec.positive:
        if p[k] <= 0:
            raise ModelError(f"parameter {k} must be positive, got {p[k]}")
    comp, domain, section = _FAMILIES[spec.family]
    z2, z3 = (Poly.variable(comp, c) if c in comp else None for c in ("z2", "z3"))
    lam1, lam2 = spec.kinematics(p, z2, z3)
    return KinematicModel(
        name,
        domain(),
        section(p),
        _poly_rows(comp, lam1),
        _poly_rows(comp, lam2),
        spec.op,
        spec.cmat(p),
        p,
        bd=spec.bd,
        r_names=spec.r_names,
        free_fields=spec.free_fields,
        structure=spec.structure,
        strain_check=spec.strain_check,
    )


def torsion_two_strain(params=None) -> KinematicModel:
    """Reference fixture: torsion with the shear strains kept separate
    (m = 2); aggregates to the reduced builtin through the polar moment."""
    base = builtin_model("torsion", params)
    z2 = Poly.variable(base.comp, "z2")
    z3 = Poly.variable(base.comp, "z3")
    lam2 = PolyMatrix([[z3, Poly.zero(base.comp)], [Poly.zero(base.comp), -z2]])
    return replace(base, name="torsion_two_strain", lambda2=lam2, op=None)
