"""Text format for declarative models: parser and serializer.

The format is line-oriented with bracketed sections; all numeric literals are
rational (`3/10`, never `0.3`).  Matrix rows list comma-separated entries.
The [lambda1] and [lambda2] entries are polynomials in the complementary
coordinates; the [F] entries are polynomials in the derivative symbols
d1..dl, one per distributed coordinate, expanded before a monomial in two
symbols (a mixed partial) is rejected: the supported operator class admits
pure powers of a single axis derivative only (``DiffOpMatrix.from_symbols``).
Every coefficient is held to the digit limit, every expression to the
nesting limit.  [section] is ``none`` or ``kind = values``, the values in
the order of the shape's fields (``sections``).  The [F] section may be left
out when [structure] has no dN(...) entry: the operator is then derived from
lambda1 and lambda2 (``models.derive_operator``), and the serializer still
writes it.

Example::

    # phs-forge model
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

    [F]
    d1, 0
    -1, d1

    [C]
    E, 0
    0, kappa*G
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .diffop import DiffOpMatrix, DomainSpec, derivative_symbols
from .exact import ExactError
from .models import CONSTITUTIVE_PRESETS, KinematicModel, ModelError
from .poly import Poly, PolyMatrix
from .sections import (
    CircleSection,
    IntervalSection,
    MomentSection,
    PointSection,
    RectangleSection,
    Section,
)

FORMAT_VERSION = 1

# largest exponent accepted after '^', counting nested powers as their product
# ((x^8)^8 is x^64); the builtin texts use at most 3, and an unbounded one
# (10^100000000) would stall exact evaluation
MAX_EXPONENT = 64

# deepest nesting of parentheses and prefix signs, far below Python's
# recursion limit (each level is a few parser frames); the builtins nest 3 deep
MAX_NESTING = 64

# most digits in one integer literal, and in the numerator or denominator of
# an evaluated scalar: below Python's 4,300-digit limit on int/str conversion,
# with room for an exponent product quoted in an error
MAX_LITERAL_DIGITS = 4000
# an integer of at most this many bits has at most MAX_LITERAL_DIGITS digits
_MAX_BITS = math.floor(MAX_LITERAL_DIGITS * math.log2(10))


class ParseError(ModelError):
    pass


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*|\+|-|/|\^|\(|\)))"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        kind = m.lastgroup  # the one alternative that matched
        val = m[kind]
        if kind == "num":
            if "." in val:
                raise ParseError(f"decimal literal {val!r} is not exact; write a rational like 3/10")
            if len(val) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(val)} digits exceeds the limit of "
                    f"{MAX_LITERAL_DIGITS} digits"
                )
        out.append((kind, val))
    out.append(("end", ""))
    return out


class _ExprParser:
    """Recursive-descent evaluation of +,-,*,/,^ expressions.

    The environment maps names to Fraction or Poly values (the coordinates,
    or the derivative symbols of [F]); evaluation happens during parsing, so
    type errors surface with the offending name.
    """

    def __init__(self, text: str, env: Dict[str, object], what: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env = env
        self.what = what
        self.text = text
        self.chain = 1  # product of the nested exponents in the last atom
        self.depth = 0  # parentheses and signs open around the current atom

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def parse(self):
        val = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return val

    def expr(self):
        val = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            if op == "*":
                val = val * rhs
            elif not isinstance(rhs, Fraction):
                raise ParseError("can only divide by rational constants")
            elif rhs == 0:
                raise ParseError("division by zero")
            else:
                val = val * (1 / rhs)
        return val

    def nested(self, parse):
        """``parse()`` one level deeper: inside a parenthesis or a sign."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and signs nest deeper than {MAX_NESTING} in {self.what}")
        val = parse()
        self.depth -= 1
        return val

    def unary(self):
        if self.peek() in (("op", "-"), ("op", "+")):
            _, sign = self.take()
            val = self.nested(self.unary)
            return -val if sign == "-" else val
        return self.power()

    def power(self):
        outer, self.chain = self.chain, 1
        base = self.atom()
        chain = self.chain
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            neg = False
            if (kind, val) == ("op", "-"):
                neg = True
                kind, val = self.take()
            if kind != "num":
                raise ParseError(f"exponent must be an integer literal in {self.text!r}")
            if neg:
                raise ParseError("negative exponents are not supported")
            n = int(val)
            chain *= n
            if chain > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {chain} exceeds the limit of {MAX_EXPONENT} in {self.text!r}"
                )
            base = base**n
        self.chain = max(outer, chain)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return Fraction(int(val))
        if kind == "op" and val == "(":
            inner = self.nested(self.expr)
            self.expect_op(")")
            return inner
        if kind == "name":
            if val in self.env:
                return self.env[val]
            if re.fullmatch(r"z[0-9]+", val):
                raise ParseError(f"unknown coordinate {val!r} in {self.what}")
            if re.fullmatch(r"d[0-9]+", val):
                raise ParseError(f"derivative token {val!r} is not allowed in {self.what}")
            raise ParseError(f"constant {val!r} has no binding (in {self.what})")
        raise ParseError(f"unexpected token in {self.text!r}")


def _decimal_digits(n: int) -> int:
    """Digits of a non-negative integer, counted without str(), which refuses
    integers past Python's 4,300-digit limit."""
    digits = max(1, int(n.bit_length() * math.log10(2)))  # exact or one short
    while n >= 10**digits:
        digits += 1
    return digits


def check_digits(value: Fraction, what: str) -> Fraction:
    """``value``, unless its numerator or denominator has more than
    MAX_LITERAL_DIGITS digits: such a value could not be written out."""
    for part, n in (("numerator", abs(value.numerator)), ("denominator", value.denominator)):
        if n.bit_length() <= _MAX_BITS:
            continue
        digits = _decimal_digits(n)
        if digits > MAX_LITERAL_DIGITS:
            raise ParseError(
                f"{what} has a {part} of {digits} digits, over the limit of "
                f"{MAX_LITERAL_DIGITS} digits"
            )
    return value


def eval_scalar(text: str, params: Dict[str, Fraction], what: str) -> Fraction:
    val = _ExprParser(text, params, what).parse()
    if not isinstance(val, Fraction):
        raise ParseError(f"expected a rational value in {what}, got {text!r}")
    return check_digits(val, what)


def _rows(lines, what: str, evaluate) -> list:
    """The rows of the matrix section ``what``: each distinct entry text is
    ``evaluate(text, name)``, once, with ``name`` where it first occurs
    (``F[0][1]``); later copies reuse that (immutable) value."""
    seen: Dict[str, object] = {}
    rows = []
    for r, line in enumerate(lines):
        rows.append(row := _split_entries(line))
        for c, text in enumerate(row):
            if text not in seen:
                seen[text] = evaluate(text, f"{what}[{r}][{c}]")
            row[c] = seen[text]
    return rows


def _poly_rows(lines, coords: Tuple[str, ...], params: Dict[str, Fraction], what: str):
    """The rows of a matrix section whose entries are polynomials over
    ``coords`` (``_rows``); every coefficient is held to the digit limit,
    naming its entry (``F[0][1]``)."""
    env = {**params, **{c: Poly.variable(coords, c) for c in coords}}

    def evaluate(text: str, name: str) -> Poly:
        val = _ExprParser(text, env, name).parse()
        if isinstance(val, Fraction):
            val = Poly.constant(coords, val)
        # a reduced coefficient divides its numerator over the lcm and
        # the lcm itself, so only an entry with a long one needs a look
        if max(map(int.bit_length, (val.den, *val.num.values()))) > _MAX_BITS:
            for coeff in val.terms.values():
                check_digits(coeff, name)
        return val

    return _rows(lines, what, evaluate)


# ---------------------------------------------------------------------------
# File-level parsing
# ---------------------------------------------------------------------------


_SECTIONS = ("coords", "domain", "section", "params", "lambda1", "lambda2", "F", "C", "Bd", "structure")


def _split_sections(text: str):
    """The header lines and the lines of each section; an unknown or
    repeated section is refused."""
    header: List[str] = []
    sections: Dict[str, List[str]] = {}
    current = header
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[([a-zA-Z0-9_]+)\]", line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]; known: {', '.join(_SECTIONS)}")
            if name in sections:
                raise ParseError(f"duplicate section [{name}]")
            current = sections[name] = []
        else:
            current.append(line)
    return _kv_lines(header, "header", ("version", "name")), sections


def _kv_lines(lines: List[str], section: str, known: Tuple[str, ...]) -> Dict[str, str]:
    """``key = value`` lines as a dict; a key outside ``known``, or given
    twice, is refused."""
    out = {}
    for line in lines:
        if "=" not in line:
            raise ParseError(f"expected 'key = value' in [{section}], got {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k not in known:
            raise ParseError(f"unknown key {k!r} in [{section}]; known: {', '.join(known)}")
        if k in out:
            raise ParseError(f"duplicate key {k!r} in [{section}]")
        out[k] = v
    return out


def _one_kind(kv: Dict[str, str], section: str) -> Optional[str]:
    """The one key of ``kv`` (None when it is empty): a [domain] or [section]
    declares a single kind."""
    if len(kv) > 1:
        raise ParseError(f"[{section}] declares {' and '.join(kv)}; declare one")
    return next(iter(kv), None)


def parse_model(text: str) -> KinematicModel:
    header, sections = _split_sections(text)
    version = header.get("version", str(FORMAT_VERSION))
    if version.strip() != str(FORMAT_VERSION):
        raise ParseError(f"unsupported model format version {version!r}")
    name = header.get("name", "model")

    for required in ("coords", "domain", "section", "lambda1", "lambda2", "C"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]")

    coords_kv = _kv_lines(sections["coords"], "coords", ("distributed", "complementary"))
    dist = tuple(coords_kv.get("distributed", "").split())
    comp = tuple(coords_kv.get("complementary", "").split())
    if not dist:
        raise ParseError("no distributed coordinates declared")
    for c in dist + comp:
        if c not in ("z1", "z2", "z3"):
            raise ParseError(f"unknown coordinate {c!r} (coordinates are z1, z2, z3)")
    if set(dist) & set(comp):
        raise ParseError("distributed and complementary coordinate sets overlap")

    # params first: every later section may reference them
    params: Dict[str, Fraction] = {}
    for line in sections.get("params", []):
        if "=" not in line:
            raise ParseError(f"expected 'name = value' in [params], got {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if k in params:
            raise ParseError(f"duplicate parameter {k!r} in [params]")
        params[k] = eval_scalar(v, params, f"parameter {k}")
    if "rho" not in params:
        raise ParseError("density parameter 'rho' is required in [params]")

    domain = _parse_domain(_kv_lines(sections["domain"], "domain", tuple(_DOMAIN_AXES)), dist, params)
    section = _parse_section(sections["section"], params)

    lam1 = PolyMatrix(_poly_rows(sections["lambda1"], comp, params, "lambda1"))
    lam2 = PolyMatrix(_poly_rows(sections["lambda2"], comp, params, "lambda2"))
    op = _parse_operator(sections["F"], dist, params) if "F" in sections else None

    cmat = _parse_cmat(sections["C"], params)
    bd = None
    if "Bd" in sections:
        bd = _rows(sections["Bd"], "Bd", lambda text, _: eval_scalar(text, params, "Bd"))

    r_names, free_fields, structure, strain_check = _parse_structure(
        sections.get("structure"), lam1.cols if op is None else op.n, dist
    )

    return KinematicModel(
        name=name,
        domain=domain,
        section=section,
        lambda1=lam1,
        lambda2=lam2,
        op=op,
        cmat=cmat,
        params=params,
        bd=bd,
        r_names=r_names,
        free_fields=free_fields,
        structure=structure,
        strain_check=strain_check,
    )


def _split_entries(line: str) -> List[str]:
    entries = [e.strip() for e in line.split(",")]
    if any(not e for e in entries):
        raise ParseError(f"empty entry in row {line!r}")
    return entries


_DOMAIN_AXES = {"interval": 1, "rectangle": 2, "box": 3}


def _parse_domain(kv: Dict[str, str], dist, params) -> DomainSpec:
    kind = _one_kind(kv, "domain")
    if kind is None:
        raise ParseError("domain must declare interval, rectangle or box")
    ell = _DOMAIN_AXES[kind]
    if ell != len(dist):
        axes = "axis" if ell == 1 else "axes"
        raise ParseError(f"{kind} has {ell} {axes} but distributed is {' '.join(dist)}")
    vals = [eval_scalar(v, params, "domain") for v in _split_entries(kv[kind])]
    if len(vals) != 2 * ell:
        raise ParseError(f"domain needs {2 * ell} bounds, got {len(vals)}")
    return DomainSpec(tuple(dist), tuple(zip(vals[::2], vals[1::2])))


# [section] kind -> shape; a shape's fields are its values, in order
_SHAPES = {shape.kind: shape for shape in (IntervalSection, RectangleSection, CircleSection, MomentSection)}


def _parse_section(lines: List[str], params) -> Section:
    if lines == ["none"]:
        return PointSection()
    kv = _kv_lines(lines, "section", tuple(_SHAPES))
    kind = _one_kind(kv, "section")
    if kind is None:
        raise ParseError("section must declare interval, rectangle, circle, moments or none")
    entries = _split_entries(kv[kind])
    if kind == "moments":
        moments = {}
        for item in entries:
            m = re.fullmatch(r"I(\d+)\s*:\s*(.+)", item)
            if not m:
                raise ParseError(f"moment entries look like 'I0: value', got {item!r}")
            order = int(m.group(1))
            if order in moments:
                raise ParseError(f"moment order {order} is given twice")
            moments[order] = eval_scalar(m.group(2), params, "section")
        return MomentSection(moments)
    names = [f.name for f in fields(_SHAPES[kind])]
    if len(entries) != len(names):
        raise ParseError(f"[section] {kind} takes the values {', '.join(names)}; got {len(entries)}")
    return _SHAPES[kind](*(eval_scalar(v, params, "section") for v in entries))


def _parse_operator(lines, dist, params) -> DiffOpMatrix:
    rows = _poly_rows(lines, derivative_symbols(len(dist)), params, "F")
    try:
        return DiffOpMatrix.from_symbols(rows, dist)
    except ExactError as exc:
        raise ParseError(str(exc)) from None


def _parse_cmat(lines, params):
    kv_lines = [l for l in lines if l.replace(" ", "").startswith("preset=")]
    if kv_lines:
        if len(lines) > 1:
            raise ParseError("a preset line stands alone in [C]")
        preset = kv_lines[0].split("=", 1)[1].strip()
        if preset not in CONSTITUTIVE_PRESETS:
            raise ParseError(
                f"unknown constitutive preset {preset!r}; known: {sorted(CONSTITUTIVE_PRESETS)}"
            )
        func, needed = CONSTITUTIVE_PRESETS[preset]
        missing = [p for p in needed if p not in params]
        if missing:
            raise ParseError(f"preset {preset!r} needs parameters {missing}")
        return func(*(params[p] for p in needed))
    rows = _rows(lines, "C", lambda text, _: eval_scalar(text, params, "C"))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError("constitutive matrix must be square")
    return rows


def _parse_structure(lines, n, dist):
    if lines is None:
        return (), (), (), True
    kv = _kv_lines(lines, "structure", ("names", "fields", "r", "strain_check"))
    names = tuple(_split_entries(kv["names"])) if "names" in kv else ()
    if names and len(names) != n:
        raise ParseError(f"structure names line has {len(names)} entries, operator expects {n}")
    fields = tuple(_split_entries(kv["fields"])) if "fields" in kv else ()
    for j, f in enumerate(fields):
        if f in fields[:j]:
            raise ParseError(f"free field {f!r} is repeated in the structure fields line")
    strain_check = kv.get("strain_check", "true")
    if strain_check not in ("true", "false"):
        raise ParseError(f"strain_check must be true or false, got {strain_check!r}")
    structure: List[tuple] = []
    if fields and "r" not in kv:
        raise ParseError("[structure] with a fields line needs an r line")
    if "r" in kv:
        if not fields:
            raise ParseError("[structure] with an r line needs a fields line")
        for item in _split_entries(kv["r"]):
            m = re.fullmatch(r"d(\d+)\((\w+)\)", item)
            if m:
                axis = int(m.group(1))
                fname = m.group(2)
                if fname not in fields:
                    raise ParseError(f"unknown free field {fname!r} in structure")
                if not 1 <= axis <= len(dist):
                    raise ParseError(f"axis d{axis} out of range in structure")
                structure.append(("d", fields.index(fname), axis))
            else:
                if item not in fields:
                    raise ParseError(f"unknown free field {item!r} in structure")
                structure.append(("free", fields.index(item)))
        if len(structure) != n:
            raise ParseError(f"structure r line has {len(structure)} entries, operator expects {n}")
        used = {spec[1] for spec in structure}  # the field index of ("free", j) and ("d", j, axis)
        unused = [f for j, f in enumerate(fields) if j not in used]
        if unused:
            raise ParseError(f"free field {unused[0]!r} is used by no r item in structure")
    return names, fields, tuple(structure), strain_check == "true"


def parse_model_file(path: str) -> KinematicModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_model(model: KinematicModel) -> str:
    out: List[str] = []
    out.append(f"version = {FORMAT_VERSION}")
    out.append(f"name = {model.name}")
    out.append("")
    out.append("[coords]")
    out.append(f"distributed = {' '.join(model.dist)}")
    out.append(f"complementary = {' '.join(model.comp)}")
    out.append("")
    out.append("[domain]")
    kind = {1: "interval", 2: "rectangle", 3: "box"}[model.domain.ell]
    bounds = ", ".join(f"{lo}, {hi}" for lo, hi in model.domain.bounds)
    out.append(f"{kind} = {bounds}")
    out.append("")
    out.append("[section]")
    out.append(model.section.descriptor())
    out.append("")
    out.append("[params]")
    out.extend(f"{k} = {model.params[k]}" for k in sorted(model.params))
    out.append("")
    out.append("[lambda1]")
    out.extend(_poly_rows_text(model.lambda1.entries))
    out.append("")
    out.append("[lambda2]")
    out.extend(_poly_rows_text(model.lambda2.entries))
    out.append("")
    out.append("[F]")
    out.extend(_poly_rows_text(model.op.symbols()))
    out.append("")
    out.append("[C]")
    for row in model.cmat:
        out.append(", ".join(str(x) for x in row))
    out.append("")
    if model.bd is not None:
        out.append("[Bd]")
        for row in model.bd:
            out.append(", ".join(str(x) for x in row))
        out.append("")
    out.append("[structure]")
    out.append(f"names = {', '.join(model.r_names)}")
    out.append(f"fields = {', '.join(model.free_fields)}")
    r_items = []
    for comp_spec in model.structure:
        if comp_spec[0] == "free":
            r_items.append(model.free_fields[comp_spec[1]])
        else:
            _, j, axis = comp_spec
            r_items.append(f"d{axis}({model.free_fields[j]})")
    out.append(f"r = {', '.join(r_items)}")
    if not model.strain_check:
        out.append("strain_check = false")
    out.append("")
    return "\n".join(out)


def _poly_rows_text(rows) -> List[str]:
    return [", ".join(map(str, row)) for row in rows]
