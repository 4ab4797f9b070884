"""Every numerical cut is read from ``linalg.Tolerance``, and a value passes
its cut at equality.

``linalg.py`` holds the one table of named cuts; any other module that
compares against a small literal, builds a ``Tolerance`` from a literal, or
scales ``tol.eps`` by a constant has a cut of its own, which this test
rejects.  Ratios of 1e-3 and above (the commutant merge gap's ``1e3`` and the
principal-generator floor's ``1e-3``, both times the commutant cutoff) are
formulas over table values and stay at their site.

A value within a cut is at most the cut, so in every module a comparison
against one reads ``value <= cut`` or ``value > cut`` (mirrored with the cut
on the left, flipped against a negated cut: ``min_eig < -tol.eps``).
"""

import ast
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from bellkit.linalg import _CUTS, Tolerance

SRC = Path(__file__).resolve().parent.parent / "src" / "bellkit"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "linalg.py"]


def _is_constant(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    return isinstance(node, ast.Name) and node.id.isupper()  # a module constant


def _is_eps(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "eps"


def ad_hoc_cuts(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "Tolerance"
              and any(_is_constant(a) for a in [*node.args, *(k.value for k in node.keywords)])):
            found.append(f"line {node.lineno}: Tolerance built from a literal")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            if ((_is_eps(node.left) and _is_constant(node.right))
                    or (_is_eps(node.right) and _is_constant(node.left))):
                found.append(f"line {node.lineno}: eps scaled by a constant")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cut_outside_the_tolerance_table(path):
    assert ad_hoc_cuts(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "if x > 1e-7: pass",
    "t = Tolerance(1e-6)",
    "t = Tolerance(eps=1e-6)",
    "c = tol.eps * 10",
    "c = 100 * tol.eps",
    "c = tol.eps * FACTOR",
    "c = max(tol.eps, -1e-12)",
])
def test_guard_sees_each_kind_of_ad_hoc_cut(snippet):
    assert ad_hoc_cuts(snippet)


@pytest.mark.parametrize("snippet", [
    "gap = max(1e3 * cutoff, tol.cut('dust') * scale / cutoff)",
    "floor = 1e-3 * cutoff",
    "ok = r <= tol.eps * (1 + norm)",
    "t = Tolerance(tol.cut('coarse'))",
])
def test_guard_allows_table_reads_and_uniform_rules(snippet):
    assert ad_hoc_cuts(snippet) == []


# A side mentions a cut when it holds ``.eps``, a ``.cut(...)`` call or one of
# these locals; ``.eps`` and ``.cut`` outrank a local name (``gap > tol.cut(...)``
# compares a measured gap).  Of two sides that mention one equally, the right is the cut.
CUT_NAMES = {"cut", "cutoff", "gap", "floor"}
MIRROR = {ast.Lt: ast.Gt, ast.LtE: ast.GtE, ast.Gt: ast.Lt, ast.GtE: ast.LtE}


def _cut_mention(node) -> tuple[int, int]:
    """(strength, sign) of the cut ``node`` mentions: strength 2 for ``.eps``
    or ``.cut(...)``, 1 for a local cut name, 0 for none; sign -1 if negated."""
    if (isinstance(node, ast.Attribute) and node.attr == "eps"
            or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cut"):
        return 2, 1
    if isinstance(node, ast.Name) and node.id in CUT_NAMES:
        return 1, 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        strength, sign = _cut_mention(node.operand)
        return strength, -sign
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        left, (strength, sign) = _cut_mention(node.left), _cut_mention(node.right)
        return left if left[0] >= strength else (strength, -sign)
    return max((_cut_mention(child) for child in ast.iter_child_nodes(node)),
               key=lambda mention: mention[0], default=(0, 1))


def wrong_way_cuts(source: str) -> list[str]:
    """Comparisons that fail a value equal to its cut (``Tolerance``'s own
    ``self.eps`` checks excepted)."""
    tree = ast.parse(source)
    exempt = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "Tolerance"
              for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in exempt:
            continue
        sides = [node.left, *node.comparators]
        for left, op, right in zip(sides, node.ops, sides[1:]):
            (l_strength, l_sign), (r_strength, r_sign) = _cut_mention(left), _cut_mention(right)
            if type(op) not in MIRROR or not (l_strength or r_strength):
                continue
            cut_left = l_strength > r_strength
            negated = (l_sign if cut_left else r_sign) < 0
            if cut_left != negated:  # mirror into ``value op cut``
                op = MIRROR[type(op)]()
            if not isinstance(op, (ast.LtE, ast.Gt)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_value_passes_its_cut_at_equality(path):
    assert wrong_way_cuts(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "r < tol.eps",
    "r >= tol.eps",
    "tol.eps > r",
    "tol.cut('frame') <= r",
    "abs(a - b) < gap",
    "if norm >= cutoff: pass",
    "min_eig > -tol.eps * scale",
    "min_eig <= -tol.eps",
    "-tol.eps >= min_eig",
    "x > 1 - tol.eps",
    "0 <= r < tol.cut('rank')",
    "gap >= tol.cut('reassembly')",
])
def test_direction_guard_sees_a_cut_failed_at_equality(snippet):
    assert wrong_way_cuts(snippet)


@pytest.mark.parametrize("snippet", [
    "r <= tol.eps",
    "r > tol.eps * (1 + norm)",
    "tol.eps >= r",
    "tol.cut('frame') < r",
    "rank = int(np.sum(svals > cutoff))",
    "min_eig >= -tol.eps * scale",
    "min_eig < -tol.eps",
    "-tol.eps > min_eig",
    "x >= 1 - tol.eps",
    "0 < r <= tol.cut('rank')",
    "gap > tol.cut('reassembly')",
    "r < 1.0",
    "class Tolerance:\n    def check(self):\n        return self.eps <= 0",
])
def test_direction_guard_allows_a_cut_passed_at_equality(snippet):
    assert wrong_way_cuts(snippet) == []


EPS_GRID = [sys.float_info.epsilon, 1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7,
            1e-6, 1e-3, 0.5, 1e300]


@pytest.mark.parametrize("eps", EPS_GRID)
def test_each_cut_equals_the_expression_it_replaced(eps):
    # the literal expressions the table replaced, evaluated the same way
    cut = Tolerance(eps).cut
    assert cut("dust") == 1e-12
    assert cut("rank") == 1e-9
    assert cut("cluster") == 1e-8
    assert cut("coarse") == 1e-6
    assert cut("commutant") == max(eps, 1e-12)
    assert cut("identity") == max(eps, 1e-8)
    assert cut("frame") == eps * 2.0
    assert cut("residual") == eps * 10
    assert cut("intertwiner") == eps * 100.0 == eps * 100
    assert cut("reassembly") == max(100 * eps, 1e-8) == max(eps * 100.0, 1e-8)


def test_tolerance_has_the_one_field_eps():
    assert Tolerance._fields == ("eps",)
    assert set(_CUTS) == {"dust", "rank", "cluster", "coarse", "commutant",
                          "identity", "frame", "residual", "intertwiner", "reassembly"}
    assert len(set(_CUTS.values())) == len(_CUTS)  # one name per rule


def test_readme_cut_table_names_the_cuts():
    """The README's cut table has one row per entry of ``_CUTS``, so a row
    removed from one is removed from the other."""
    lines = (SRC.parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| name | cut | decides |") + 2
    rows = takewhile(lambda line: line.startswith("|"), lines[start:])
    names = [row.split("|")[1].strip(" `") for row in rows]
    assert names == list(_CUTS)


@pytest.mark.parametrize("eps", [0.0, -0.0, -1e-300, float("nan"), float("inf"),
                                 1e-17, 1e-300, 5e-324])
def test_tolerance_must_be_finite_and_positive(eps):
    """And at least float64's resolution, which the message names."""
    with pytest.raises(ValueError, match=r"^tolerance must be finite and at least "
                                         r"2\.220446049250313e-16 \(float64 resolution\), got "):
        Tolerance(eps)
