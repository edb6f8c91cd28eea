"""Scene generators and the three benchmark workloads.

A workload is a fixed list of checks, each a (scene text, property) pair.
Scene content never depends on the run seed: generated families come from
fixed generator seeds, so every run measures the same work and every check
has an outcome pinned in ``expected.json``.  The run seed only decides the
order in which a pass sends its checks (see ``pass_order``).

- ``fixtures``: the five shipped ``fixtures/*.bsx`` under all five
  properties, plus each fixture's closed twin under ``basic_closed`` and
  ``principal_closed`` (35 checks).  The real reference inputs; every layer
  works on them, and the twins take the closed-side path past its early
  ``NotClosed`` exit, where the sphere model is rebuilt for the reduced or
  complement scene.
- ``blowup``: contact pairs ``y - x^2`` vs ``y - x^2 - x^m`` and the
  osculating pencils ``pencil(k)`` under ``basic_open``, and all but the
  largest pencil under ``principal_open`` too (7 checks).  Resolution and
  classification dominate ``basic_open`` here, while ``principal_open`` on
  the same scenes never blows up, so a resolution change must leave those
  checks flat.  With more ``basic_open`` than ``principal_open`` checks the
  run's median verdict time is the median of one check's samples
  (``contact2/basic_open``), not the midpoint of the gap between two
  checks' samples, which is what made it noisy with equal numbers.
- ``lines``: seeded rational lines in general position, each set under a
  random DNF and as the single clause ``{l0 > 0, ...}``, under
  ``basic_open`` and ``principal_open`` (12 checks).  The arrangement,
  above all the infinity chart where the lines become circles through the
  pole, does most of the work; resolution does almost none.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"

PROPERTIES = ("basic_open", "basic_closed", "generically_basic", "principal_open", "principal_closed")
FIXTURE_NAMES = ("half", "quad", "saddle", "para", "cubic")

CONTACT_ORDERS = (2, 3)
PENCIL_SIZES = (3, 4)
LINE_COUNT = 4
LINE_SCENE_SEEDS = (0, 1, 2)
LINE_HEIGHT = 4  # coefficients are integers in [-LINE_HEIGHT, LINE_HEIGHT]

WORKLOADS = ("fixtures", "blowup", "lines")


@dataclass(frozen=True)
class Check:
    cid: str  # "<scene key>/<property>", unique within the workload
    scene: str  # key into the workload's scene texts
    prop: str
    # outcome known without running the engine, if any
    known_answer: str | None = None
    known_count: int | None = None


# --------------------------------------------------------------- generators


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.bsx").read_text(encoding="utf-8")


def closed_twin(text: str) -> str:
    """Relax strict atoms of the ``set`` statement to non-strict ones and drop
    ``!=`` atoms; the factor declarations are kept verbatim."""
    head, sep, tail = text.partition("set S =")
    if not sep:
        raise ValueError("scene text has no 'set S =' statement")
    body = tail.strip()
    if not body.endswith(";"):
        raise ValueError("set statement does not end with ';'")
    clauses = []
    for clause in body[:-1].split("|"):
        inner = clause.strip()
        if not (inner.startswith("{") and inner.endswith("}")):
            raise ValueError(f"malformed clause {clause!r}")
        atoms = []
        for atom in inner[1:-1].split(","):
            subject, rel, zero = atom.split()
            if rel == "!=":
                continue
            atoms.append(f"{subject} {rel + '=' if rel in '<>' else rel} {zero}")
        if not atoms:
            raise ValueError(f"clause {clause!r} has no atom left")
        clauses.append("{ " + ", ".join(atoms) + " }")
    return f"{head}set S = {' | '.join(clauses)};\n"


def contact(m: int) -> str:
    """Two parabolas with contact of order m at the origin; S = {f*g < 0}."""
    return (
        f"factor f = y - x^2;\nfactor g = y - x^2 - x^{m};\n"
        "set S = { f > 0, g < 0 } | { f < 0, g > 0 };\n"
    )


def pencil(k: int) -> str:
    """The osculating cubics y = x^2 + i*x^3 for i in 0..k with the axis x;
    pencil(3) is fixtures/cubic.bsx."""
    lines = ["factor a = x;"]
    for i in range(k + 1):
        cubic = "" if i == 0 else (" - x^3" if i == 1 else f" - {i}*x^3")
        lines.append(f"factor f{i} = y - x^2{cubic};")
    clauses = ["{ f0 > 0, f1 < 0 }", "{ f0 < 0, f1 > 0 }"]
    clauses += [f"{{ a < 0, f{i} < 0, f{i + 1} > 0 }}" for i in range(2, k)]
    return "\n".join(lines) + "\nset S = " + " | ".join(clauses) + ";\n"


def _line_text(a: int, b: int, c: int) -> str:
    out = ""
    for coef, var in ((a, "x"), (b, "y"), (c, "")):
        if coef == 0:
            continue
        mag = abs(coef)
        term = var if var and mag == 1 else (f"{mag}*{var}" if var else str(mag))
        if not out:
            out = ("-" if coef < 0 else "") + term
        else:
            out += (" - " if coef < 0 else " + ") + term
    return out


def random_lines(k: int, seed: int) -> list[tuple[int, int, int]]:
    """k lines a*x + b*y + c = 0 with small coprime integer coefficients in
    general position: no two parallel (so none proportional) and no three
    through one affine point, checked exactly."""
    rng = random.Random(seed)
    out: list[tuple[int, int, int]] = []
    while len(out) < k:
        a, b, c = (rng.randint(-LINE_HEIGHT, LINE_HEIGHT) for _ in range(3))
        if (a, b) == (0, 0) or gcd(a, b, c) != 1 or any(a * b2 - b * a2 == 0 for a2, b2, _ in out):
            continue
        if any(
            a * x + b * y + c == 0 for x, y in (_meet(out[i], out[j]) for i in range(len(out)) for j in range(i))
        ):
            continue
        out.append((a, b, c))
    return out


def _meet(l1: tuple[int, int, int], l2: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    return Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det)


def lines_scenes(k: int, seed: int) -> tuple[str, str]:
    """(random DNF form, single-clause polygon form) over the same k lines.

    The DNF has two distinct clauses of three strict atoms on distinct lines."""
    ls = random_lines(k, seed)
    rng = random.Random(seed * 7919 + k)
    head = "".join(f"factor l{i} = {_line_text(*ln)};\n" for i, ln in enumerate(ls))

    def clause(idx, rels):
        return "{ " + ", ".join(f"l{i} {r} 0" for i, r in zip(idx, rels)) + " }"

    dnf: list[str] = []
    while len(dnf) < 2:
        c = clause(sorted(rng.sample(range(k), 3)), [rng.choice("<>") for _ in range(3)])
        if c not in dnf:
            dnf.append(c)
    return (
        head + "set S = " + " | ".join(dnf) + ";\n",
        head + "set S = " + clause(range(k), [">"] * k) + ";\n",
    )


# ---------------------------------------------------------------- workloads

# Answers and witness counts asserted in tests/test_checker.py, keyed by
# scene key and property; they do not come from the benchmark's own runs.
_TEST_SUITE_FACTS: dict[tuple[str, str], tuple[str, int | None]] = {
    ("half", "basic_open"): ("Yes", None),
    ("half", "principal_open"): ("Yes", None),
    ("half", "generically_basic"): ("Yes", None),
    ("half", "basic_closed"): ("No", None),
    ("quad", "basic_open"): ("Yes", None),
    ("quad", "principal_open"): ("No", 1),
    ("saddle", "principal_open"): ("Yes", None),
    ("para", "basic_open"): ("No", 3),
    ("para", "generically_basic"): ("No", None),
    ("cubic", "basic_open"): ("No", 3),
    ("para.closed", "basic_closed"): ("No", 3),
    ("quad.closed", "principal_closed"): ("No", 1),
}


def workload(name: str) -> tuple[dict[str, str], list[Check]]:
    """Scene texts by key, and the workload's checks in canonical order."""
    scenes: dict[str, str] = {}
    checks: list[Check] = []

    def add(key: str, text: str, props, known: dict[str, tuple[str, int | None]] | None = None):
        scenes[key] = text
        for p in props:
            ans, cnt = (known or {}).get(p, _TEST_SUITE_FACTS.get((key, p), (None, None)))
            checks.append(Check(f"{key}/{p}", key, p, ans, cnt))

    if name == "fixtures":
        for fx in FIXTURE_NAMES:
            add(fx, fixture_text(fx), PROPERTIES)
        for fx in FIXTURE_NAMES:
            add(f"{fx}.closed", closed_twin(fixture_text(fx)), ("basic_closed", "principal_closed"))
    elif name == "blowup":
        # S = {f*g < 0} is defined by one strict inequality: basic and principal open
        yes = {"basic_open": ("Yes", None), "principal_open": ("Yes", None)}
        for m in CONTACT_ORDERS:
            add(f"contact{m}", contact(m), ("basic_open", "principal_open"), yes)
        for k in PENCIL_SIZES:
            props = ("basic_open",) if k == max(PENCIL_SIZES) else ("basic_open", "principal_open")
            add(f"pencil{k}", pencil(k), props)
    elif name == "lines":
        for s in LINE_SCENE_SEEDS:
            dnf, poly = lines_scenes(LINE_COUNT, s)
            add(f"lines{LINE_COUNT}.s{s}.dnf", dnf, ("basic_open", "principal_open"))
            # an intersection of open half-planes is basic open by definition
            add(f"lines{LINE_COUNT}.s{s}.poly", poly, ("basic_open", "principal_open"), {"basic_open": ("Yes", None)})
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return scenes, checks


def scenes_digest(scenes: dict[str, str]) -> str:
    """sha256 over the workload's scene texts in key order."""
    h = hashlib.sha256()
    for key in sorted(scenes):
        h.update(key.encode() + b"\0" + scenes[key].encode() + b"\0")
    return h.hexdigest()


def pass_order(checks: list[Check], seed: int, pass_index: int) -> list[Check]:
    """The order in which pass ``pass_index`` of a run with ``seed`` sends its checks."""
    order = list(checks)
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order
