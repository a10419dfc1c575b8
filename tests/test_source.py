"""Properties of the package source itself; most design choices are rows
of three tables, each read by one checker over parsed modules."""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path

import pytest

import tsk
from tsk.cli import build_parser
from tsk.reflexive import CHERN_ROUTES

SRC = Path(tsk.__file__).resolve().parent
TREES = {
    path.relative_to(SRC).as_posix(): ast.parse(path.read_text("utf-8"))
    for path in sorted(SRC.rglob("*.py"))
}


def _nodes():
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            yield name, node


def test_no_assert_statements():
    # `python -O` strips assert statements; every check must be a raise.
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raise_assertion_error():
    # Internal contradictions raise RuntimeError, which the CLI maps to
    # its documented exit code; AssertionError is reserved for tests.
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError"
        in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []


def _calls_by_scope(node, scope=()):
    """Every call under node, with the names of its enclosing defs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_scope(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls_by_scope(child, scope)


def _named(tree, dotted_strings=False):
    """Identifiers a tree names: variables, attributes and, when asked,
    the parts of dotted-path strings such as "Subspace.meet"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (
            dotted_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
        ):
            out.update(node.value.split("."))
    return out


# Each callee's exact call sites in src/tsk, "module:enclosing defs" with
# the number of calls there.  A bare name counts every call whose callee
# expression names it (`f(...)`, `x.f(...)`, `f.__wrapped__(...)`,
# `partial(f)(...)`), ".f" only `x.f(...)`, and "v.f" the calls `v.f(...)`
# and, where v is the module that defines or imports f, `f(...)`.
CALLS = {
    # What tsk builds is valid by construction: only the constructor,
    # which parsed documents go through, checks a family, by the top-down
    # walk that validate() runs for the tests; no src/ code calls validate().
    ".validate": {},
    "_checked_lists": {
        "multifilt.py:Multifiltration.__init__": 1, "multifilt.py:Multifiltration.validate": 1
    },
    # The drops tsk takes derive their invariants in `drop`; elementary_check
    # is the explicit check for given pairs and for the tests.
    "elementary_check": {},
    # The cache is for the lists the constructor keeps: the walk's top
    # cones and the given lists it must canonicalize.  One-off lists (the
    # walk's projections, `_meet_coface`'s rewrites) bypass it.
    "_canonical_jumps": {"multifilt.py:_checked_lists": 3, "multifilt.py:_meet_coface": 1},
    "_canonical_jumps.__wrapped__": {
        "multifilt.py:_checked_lists": 1, "multifilt.py:_meet_coface": 1
    },
    # Meeting a family with a line is one rule, the coface rewrite's, which
    # the profile walk reuses for the second drop of a FULL -> ZERO cell.
    "_meet_line": {"multifilt.py:_meet_coface": 1, "multifilt.py:drop_profile": 1},
    # A list's grid can be exponentially larger than the document, so
    # multifilt builds none: a coface rewrite is `_meet_coface`, and
    # `_cells` walks two families' lists.  chern_general alone builds a
    # grid, one per top cone, with the kernel's passes run by `_runs`.
    "_grid_flat": {"chern.py:chern_general": 1},
    "_runs": {"chern.py:_grid_flat": 1, "chern.py:chern_general": 2},
    # A rewrite's cofaces depend on (fan, sigma0) alone: multifilt lists them
    # in the memoized `_coface_plan`, and no other src/ code walks them.
    ".cofaces": {"multifilt.py:_coface_plan": 1},
    # One reading of the value at m0 and the join below it.
    "_value_and_below": {"multifilt.py:_checked_drop": 1, "sampling.py:random_drops": 1},
    # drop and apply_elementary share one checked rewrite; only drop derives
    # invariants, factorize steps by drop, and elementary_check reads no cells.
    "_checked_drop": {"multifilt.py:drop": 1, "multifilt.py:apply_elementary": 1},
    # A drop and a run check their class once, with the same two messages.
    "_checked_class": {"multifilt.py:_checked_drop": 1, "multifilt.py:apply_run": 1},
    "drop": {"multifilt.py:factorize": 1},
    "_cells": {"multifilt.py:_checked_cells": 1},
    # The memo holds the unit drops recompose replays after factorize; the
    # boxes of runs and of the profile walk are not replayed.
    "_meet_unit": {"multifilt.py:_checked_drop": 1},
    "_meet_coface": {"multifilt.py:_meet_box": 1},
    # Products of linear factors go through ring.linear_product; int_pow
    # stays a public ring operation, the tests' independent reference.
    "int_pow": {},
    # factorize and drop_counts check E c F on the cells they read.
    "is_contained": {},
    # The normalized sheaf's class and weights are arithmetic on E's
    # (twist_chern, m_Sigma - t): no src/ code builds a twisted family.
    ".twist": {},
    # Q4 reads c(E) up to H^q off the hull's class and p_q; the one call
    # in obstruction_verdict is Q2's independent c_3.
    "chern_general": {
        "obstruct.py:obstruction_verdict": 1, "cli.py:cmd_chern": 1,
        "prescribe.py:build_sequence": 1, "reflexive.py:_klyachko": 1,
    },
    # A stage's Chern ratio has one form, run_factors' telescoped edge,
    # whose log the solve reads with chern's run_log.
    "chern.run_log": {"prescribe.py:solve_p": 2},
}

# What reads where two families differ, off their lists (no grid).
CELL_READERS = {"_cells", "_checked_cells"}
UNIT_DROP = {"_checked_drop", "_meet_unit", "_meet_coface", "_coface_plan"}

# A multifilt root: (names it must reach, names it must not reach).
REACH = {
    # A drop and a run rewrite each coface's list over their box with
    # `_meet_coface` (the drop through its memo, the run through
    # `_meet_box`), with no grid; a drop reads its preconditions off one
    # scan of sigma0's list and evaluates nothing.
    "drop": (
        {"_meet_unit", "_meet_coface", "_meet_line", "_canonical_jumps", "_value_and_below"},
        CELL_READERS | {"eval_jumps"},
    ),
    "apply_run": ({"_meet_box", "_meet_coface", "_meet_line", "_canonical_jumps"}, CELL_READERS),
    # Each cone's hull list is canonical in closed form from its rays' ends.
    "reflexive_hull": (
        {"ray_ends", "hull_of_ends"}, CELL_READERS | {"_canonical_jumps", "_meet_line"}
    ),
    # These keep only the family: drop derives the invariants.
    "apply_elementary": (UNIT_DROP, {"drop"}),
    "recompose": (UNIT_DROP, {"drop"}),
    # The one-step factorization: the drop_counts tally, then the step.
    "elementary_check": ({"drop_counts", "factorize"}, set()),
}

# A module, or "src" for all, and the names it may not define, import
# or read (shell patterns; a name imported from M also reads "M.name").
ABSENT = {
    # One canonicalizer (a list off a grid is the tests' oracle), one
    # factorization loop, one reading of the join below m0; and no
    # `dataclasses`, which costs every tsk process more than the whole
    # record layer (each @dataclass execs its methods).
    "src": {
        "_canonical_flat", "_factorize", "_injection", "join_below", "dataclasses",
        # What only the tests call lives in tests/oracles.py and
        # tests/drop_oracle.py, which src/ never imports: the identities and
        # the conewise form of the saturated ratio, the leading-log check,
        # the schedule's weights and expansion, b_zero sampling, and the
        # delta invariant with its sentinel.
        "identity_*", "ratio_saturated_conewise", "leading_log_check", "weight_schedule",
        "injection_params", "random_b_zero", "Infinity", "INFINITY", "_contained_cells",
        "oracles", "drop_oracle",
        # A line's (p, q) is its slot `pair`, None off lines: no method
        # restates that check.
        "line_pair",
    },
    # A row matches a name whatever it names, so `delta` is kept out of
    # multifilt alone (PrescriptionSolution has a `delta` field).
    "multifilt.py": {"delta"},
    # Every verdict reads the profile and Q2's least weight off one walk:
    # no drops, multifilt through its public names, no normalized data.
    "obstruct.py": {"factorize", "drop", "multifilt._*", "normalize"},
    # One run per stage (the drop-by-drop chain is the tests' oracle), and
    # stage logs through run_log, with no Stirling or power-sum table.
    "prescribe.py": {
        "drop", "apply_elementary", "chern.*stirling*", "chern.*power_sum*", "chern.*binom*"
    },
    # The Chern routes decide which of them apply (reflexive.chern_routes).
    "cli.py": {"in_general_position", "is_locally_free", "is_b_zero"},
}


@lru_cache(maxsize=None)
def _callees(name, tree):
    """(callee key, enclosing defs) of each call in the module, counted."""
    home = {
        a.asname or a.name: f"{n.module}.{a.name}"
        for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module for a in n.names
    }
    home.update(
        (n.name, f"{name[:-3]}.{n.name}")
        for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    )
    found = Counter()
    for scope, call in _calls_by_scope(tree):
        func, keys = call.func, _named(call.func)
        if isinstance(func, ast.Name):
            keys.add(home.get(func.id, func.id))
        elif isinstance(func, ast.Attribute):
            keys |= {"." + func.attr, f"{ast.unparse(func.value)}.{func.attr}"}
        found.update((key, ".".join(scope) or "<module>") for key in keys)
    return found


def check_calls(trees):
    found = {callee: Counter() for callee in CALLS}
    for name, tree in trees.items():
        for (callee, scope), count in _callees(name, tree).items():
            if callee in found:
                found[callee][f"{name}:{scope}"] += count
    return {c: dict(s) for c, s in found.items() if s != Counter(CALLS[c])}


@lru_cache(maxsize=None)
def _called(tree):
    """What each multifilt definition calls: every name in a callee
    expression (`f.__wrapped__` reaches f), and for a module-level alias
    every name in its value (`_meet_unit` reaches `_meet_coface`)."""
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called.setdefault(node.name, set()).update(
                name for c in ast.walk(node) if isinstance(c, ast.Call) for name in _named(c.func)
            )
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    called.setdefault(t.id, set()).update(_named(node.value))
    return called


def check_reach(trees):
    called, found = _called(trees["multifilt.py"]), {}
    for root, (must, must_not) in REACH.items():
        reached, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name in called and name not in reached:
                reached.add(name)
                todo.extend(called[name])
        if must - reached or must_not & reached:
            found[f"reach:{root}"] = {"misses": must - reached, "reaches": must_not & reached}
    return found


@lru_cache(maxsize=None)
def _names(tree):
    """What a module defines, imports or reads."""
    out = _named(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            out |= {module} | {
                n for a in node.names for n in (a.name, a.asname or a.name, f"{module}.{a.name}")
            }
    return out


def check_absent(trees):
    found = {}
    for where, patterns in ABSENT.items():
        for name in sorted(trees) if where == "src" else [where]:
            for hit in sorted(_names(trees[name])):
                for pattern in patterns:
                    if fnmatchcase(hit, pattern):
                        found.setdefault(f"{where}:{pattern}", []).append(f"{name} names {hit}")
    return found


def fence(trees):
    """The rows the trees break, with what breaks them: a row is a CALLS
    callee, "reach:" and a REACH root, or "module:pattern" of ABSENT."""
    return {**check_calls(trees), **check_reach(trees), **check_absent(trees)}


RULES = []


def _rows(rows):
    """A test that src/tsk keeps the given rows, one design rule's."""
    RULES.append(rows.split())

    def test():
        broken = fence(TREES)
        assert {row: broken[row] for row in rows.split() if row in broken} == {}
    return test


# The rules the tables replaced keep their names; each row is in one rule.
test_validate_only_in_the_constructor = _rows(".validate _checked_lists")
test_elementary_check_only_for_given_pairs = _rows("elementary_check")
test_canonical_jumps_only_in_the_constructor = _rows(
    "_canonical_jumps _canonical_jumps.__wrapped__"
)
test_no_canonical_flat_in_src = _rows("src:_canonical_flat")
test_meet_line_only_in_meet_box = _rows("_meet_line")
test_grid_flat_only_in_the_kernels = _rows("_grid_flat")
test_drop_builds_no_grid = _rows("reach:drop reach:apply_run")
test_hull_builds_no_grid = _rows("reach:reflexive_hull")
test_cofaces_only_in_the_coface_plan = _rows(".cofaces")
test_family_only_drops_derive_no_invariants = _rows(
    "_checked_drop drop _cells reach:apply_elementary reach:recompose reach:elementary_check"
    " src:_injection"
)
test_only_unit_drops_fill_the_memo = _rows("_meet_unit _meet_coface")
test_int_pow_only_in_ring = _rows("int_pow")
test_factorize_is_one_checked_walk = _rows("is_contained src:_factorize obstruct.py:multifilt._*")
test_obstruct_takes_no_drops = _rows("obstruct.py:factorize obstruct.py:drop")
test_obstruct_reads_the_normalized_sheaf_in_e_frame = _rows(".twist obstruct.py:normalize")
test_obstruct_builds_one_grid_over_e = _rows("chern_general")
test_prescribe_builds_by_runs_only = _rows("prescribe.py:drop prescribe.py:apply_elementary")
test_prescribe_reads_stage_logs_through_run_log = _rows(
    "chern.run_log prescribe.py:chern.*stirling* prescribe.py:chern.*power_sum*"
    " prescribe.py:chern.*binom*"
)
test_cli_reads_the_route_table = _rows(
    "cli.py:in_general_position cli.py:is_locally_free cli.py:is_b_zero"
)
test_no_dataclasses = _rows("src:dataclasses")
test_test_oracles_stay_in_tests = _rows(
    "src:identity_* src:ratio_saturated_conewise src:leading_log_check src:weight_schedule"
    " src:injection_params src:random_b_zero src:Infinity src:INFINITY src:_contained_cells"
    " src:oracles src:drop_oracle multifilt.py:delta"
)
test_drops_and_runs_share_one_class_check = _rows("_checked_class")
test_a_line_is_read_off_its_pair = _rows("src:line_pair")
_runs_callers = _rows("_runs")
_value_readers = _rows("_value_and_below src:join_below")


def test_loop_order_only_in_runs():
    # Which loop of a grid pass runs outside, the offsets in a block or the
    # blocks, is decided in `_runs` alone; the grid passes iterate its ranges.
    deciders = {
        (name, node.name) for name, node in _nodes() if isinstance(node, ast.FunctionDef)
        for c in ast.walk(node) if isinstance(c, ast.Compare) and "block * block" in ast.unparse(c)
    }
    assert deciders == {("chern.py", "_runs")}
    _runs_callers()


def test_every_unit_drop_runs_the_checks():
    # drop, apply_elementary and factorize's steps share `_checked_drop`,
    # which has no switch to skip its checks, and `_value_and_below` is
    # the one reading of the value at m0 and the join below it.
    defs = {n.name: n for n in TREES["multifilt.py"].body if isinstance(n, ast.FunctionDef)}
    args = defs["_checked_drop"].args
    assert [a.arg for a in args.args] == ["f", "sigma0", "m0", "target"]
    assert (args.vararg, args.kwonlyargs, args.kwarg) == (None, [], None)
    _value_readers()


# Edits of src/tsk, each breaking choices the tables pin: (the rows it
# breaks, text that occurs once in src/tsk, replacement).
MUTATIONS = [
    (".validate", "payload: dict =", "doc.payload.validate(); payload: dict ="),
    ("elementary_check", "cur = apply_", "cur = elementary_check(cur) or apply_"),
    ("_canonical_jumps.__wrapped__", "_jumps.__wrapped__(raw)", "_jumps(raw)"),
    ("_canonical_jumps", "payload: dict =", "partial(_canonical_jumps)(); payload ="),
    ("_canonical_jumps", "payload: dict =", "_canonical_jumps.cache_clear(); payload ="),
    ("src:_canonical_flat", "hull_of_ends(mf.fan", "_canonical_flat(mf.fan"),
    ("_meet_line reach:reflexive_hull", "tuple(jumps)\n", "tuple(_meet_line(jumps, FULL))\n"),
    ("_grid_flat reach:drop reach:apply_run",
     "raw: list[Jump] = []", "raw = list(_grid_flat(jumps, _cells(jumps, jumps, pos)))"),
    ("_runs", "following = [", "list(_runs(1, 1, range(1))); following = ["),
    ("_value_and_below", "m_rho = dict(", "_value_and_below(f, m0); m_rho = dict("),
    ("_value_and_below",
     "_value_and_below(cur.jumps[cone], m0)", "eval_jumps(cur.jumps[cone], m0), ZERO"),
    (".cofaces", "_ in _coface_plan(fan, sigma0)", "_ in fan.cofaces(sigma0)"),
    (".cofaces", "n = mf.fan.n\n", "n = mf.fan.n; mf.fan.cofaces(())\n"),
    ("_checked_drop drop", "step = drop(", "step = _checked_drop("),
    ("_checked_class",
     "m0 = _checked_class(f, sigma0, m0)\n    count", "m0 = tuple(sigma0), tuple(m0)\n    count"),
    ("src:line_pair", "list(w.pair)", "list(w.line_pair())"),
    ("_cells reach:elementary_check", "profile = drop_counts(e, f)", "profile = _cells(e, f)"),
    ("_cells src:_contained_cells", "cells = _cells(e, f, cone)", "cells = _contained_cells()"),
    ("src:_injection", "def drop(", "def _injection(): pass\ndef drop("),
    ("drop reach:recompose", "current = apply_elementary(", "current = drop("),
    ("drop reach:elementary_check", "return factorize(e, f)[0]", "return drop(f, *_locate(e, f))"),
    ("_meet_unit _meet_coface", "boxes[cone] = _meet_coface(", "boxes[cone] = _meet_unit("),
    ("int_pow", "linear_product(n - k, [(m, 2 - k)])", "TruncPoly(n, m).int_pow(2)"),
    ("is_contained", "steps: list[ElementaryInjection] = []", "is_contained(e, f)"),
    ("obstruct.py:multifilt._*",
     "Multifiltration, drop_profile", "Multifiltration, _checked_cells"),
    ("obstruct.py:factorize", "drop_profile, reflexive", "factorize, reflexive"),
    (".twist", "t = hull_f.b_sum", "t = hull_f.b_sum; E = E.twist(t)"),
    ("chern_general", "(E)[3] == 0", "(E)[3] == chern_general(hull)[3]"),
    ("prescribe.py:apply_elementary", "current = apply_run(", "current = apply_elementary("),
    ("prescribe.py:chern.*stirling*", "run_factors, run_log", "run_factors, run_log, stirling_A"),
    ("chern.run_log", "run_factors, run_log\n", "run_factors\ndef run_log(*a): return 0\n"),
    ("cli.py:is_locally_free", "polys = refl.chern_routes(f)", "polys = refl.is_locally_free(f)"),
    ("src:dataclasses",
     "from operator import attrgetter", "import dataclasses\nfrom operator import attrgetter"),
    ("multifilt.py:delta src:Infinity",
     "def is_contained(", "class Infinity: pass\ndef delta(): pass\ndef is_contained("),
    ("src:oracles src:identity_* src:leading_log_check src:INFINITY",
     "from .multifilt import JumpList, Multifiltration, _axes\n",
     "from oracles import INFINITY, identity_product, leading_log_check\n"
     "from .multifilt import JumpList, Multifiltration, _axes\n"),
    ("src:ratio_saturated_conewise",
     "def run_factors(", "def ratio_saturated_conewise(): pass\ndef run_factors("),
    ("src:weight_schedule", "def solve_p(", "def weight_schedule(): pass\ndef solve_p("),
    ("src:injection_params",
     "    def certificate(self)", "    def injection_params(self): pass\n    def certificate(self)"),
    ("src:drop_oracle src:random_b_zero",
     "def random_reflexive(", "def random_b_zero(): import drop_oracle\ndef random_reflexive("),
]


@pytest.mark.parametrize(
    "rows, text, replacement", MUTATIONS, ids=[m[0].replace(" ", "+") for m in MUTATIONS]
)
def test_the_fence_catches_each_mutation(rows, text, replacement):
    # src/tsk keeps every row, and each edit breaks the rows it names.
    assert fence(TREES) == {}
    sources = {name: (SRC / name).read_text("utf-8") for name in TREES}
    (module,) = [name for name, source in sources.items() if text in source]
    assert sources[module].count(text) == 1
    broken = fence({**TREES, module: ast.parse(sources[module].replace(text, replacement))})
    assert set(rows.split()) <= set(broken), broken


def test_each_row_is_in_one_rule_that_a_mutation_breaks():
    rows = [*CALLS, *(f"reach:{root}" for root in REACH)]
    rows += [f"{where}:{pattern}" for where in ABSENT for pattern in ABSENT[where]]
    assert sorted(sum(RULES, [])) == sorted(rows)
    edited = {row for m in MUTATIONS for row in m[0].split()}
    assert [rule for rule in RULES if not edited & set(rule)] == []


RECORDS = {
    "RayDatum", "R2Filtration", "TorsionProfile", "PrescriptionProblem", "TruncPoly",
    "Multifiltration",
}


def test_records_share_one_frozen_base():
    # The value records take immutability, equality and hashing from
    # `record.Frozen`; Multifiltration keeps its own hash, as its jumps
    # dict is unhashable.  Fan and Subspace are interned, so equality is
    # identity there, and they keep only their own __setattr__.
    classes = {node.name: node for _, node in _nodes() if isinstance(node, ast.ClassDef)}
    for name in RECORDS:
        assert [_named(base) for base in classes[name].bases] == [{"Frozen"}], name
    own = {
        (cls.name, node.name)
        for cls in classes.values()
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("__setattr__", "__eq__", "__hash__")
    }
    assert own == {
        ("Frozen", "__setattr__"), ("Frozen", "__eq__"), ("Frozen", "__hash__"),
        ("Multifiltration", "__hash__"), ("Fan", "__setattr__"), ("Subspace", "__setattr__"),
    }


def test_ring_is_the_integer_ring_only():
    # Chern classes are integer vectors: ring.py imports no fractions, and
    # TruncPoly keeps construction, [k], rendering, the product, the
    # inverse of a unit and int_pow (the reference linear_product is held
    # to, and a method the tracer wraps).  Log and exp are the integer
    # ring.log_coeffs and exp_coeffs.
    tree = TREES["ring.py"]
    imported = {
        alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TruncPoly"]
    defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    # an alias such as `__rmul__ = __mul__` is a method too
    defined |= {
        t.id for n in cls.body if isinstance(n, ast.Assign) and isinstance(n.value, ast.Name)
        for t in n.targets
    }
    assert defined == {
        "__init__", "__repr__", "__str__", "__getitem__", "__mul__", "inverse", "int_pow", "render",
    }


def test_no_rank_parameter():
    # Every sheaf has rank 2, so no module takes a rank: no parameter,
    # attribute or name of one, and no rank-1 constructor.
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args + node.kwonlyargs
            params += [a for a in (node.vararg, node.kwarg) if a is not None]
            found += [f"{name}:{a.lineno} {a.arg}" for a in params if a.arg in ("rank", "r")]
        elif isinstance(node, ast.Attribute) and node.attr in ("rank", "r"):
            found.append(f"{name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ("rank", "RANKS"):
            found.append(f"{name}:{node.lineno} {node.id}")
        elif isinstance(node, ast.FunctionDef) and node.name == "line_bundle":
            found.append(f"{name}:{node.lineno} def line_bundle")
    assert found == []


def test_method_choices_are_the_route_table():
    # `tsk chern --method` offers auto and the routes of CHERN_ROUTES, in
    # table order, which keeps the usage and error lines as they were.
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (method,) = [a for a in sub.choices["chern"]._actions if "--method" in a.option_strings]
    assert method.choices == ("auto", *CHERN_ROUTES) == (
        "auto", "resolution", "klyachko", "symmetric"
    )


def test_cli_cold_start_leaves_out_dataclasses():
    # -S: only what tsk.cli imports, not what site hooks bring in
    code = "import sys, tsk.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"


def test_only_main_writes_to_stdout():
    # Every cli command returns (exit code, payload); main is the one
    # boundary that writes the payload and maps errors to exit codes.
    found = []
    for fn in ast.walk(TREES["cli.py"]):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name == "cmd_selftest":
            found.append(f"cli.py:{fn.lineno} def cmd_selftest")
        if fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in ("print", "_emit"):
                found.append(f"cli.py:{node.lineno} {fn.name}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr == "stdout":
                found.append(f"cli.py:{node.lineno} {fn.name}: .stdout")
    assert found == []


def test_no_unused_imports():
    # The package's linter: every name a top-level import binds is read
    # in its module.  __init__.py binds names only to re-export them.
    found = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "annotations" and bound not in read:
                    found.append(f"{name}:{node.lineno} {bound}")
    assert found == []


REPO = Path(__file__).resolve().parents[1]


def _read(tree, names, attrs, dotted_strings=False):
    """Add what a tree reads to names, each Name in Load context, and to
    attrs, each attribute read (`x.f`) and, when asked, each part of a
    dotted-path string such as "Multifiltration.validate"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif (
            dotted_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
        ):
            attrs.update(node.value.split("."))


# The code that calls into src/tsk: the acceptance gate, and the
# benchmark, whose tracer names what it wraps by dotted paths.
ROOTS = [(ast.parse((REPO / "tests" / "test_acceptance.py").read_text("utf-8")), False)] + [
    (ast.parse(path.read_text("utf-8")), True) for path in sorted((REPO / "perfbench").glob("*.py"))
]


def unreached(trees):
    """The top-level functions and classes and the public methods of the
    trees that nothing reaches from the module-level code outside them
    or from ROOTS, directly or through other reached code.  A function
    or class is reached by a name read or an attribute read, a method by
    an attribute read only: a local variable, parameter or assignment
    target that shares its name is no caller."""
    defs, names, attrs = [], set(), set()
    for tree, dotted_strings in ROOTS:
        _read(tree, names, attrs, dotted_strings)
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                _read(node, names, attrs)
                continue
            label = f"{name}:{node.lineno} {node.name}"
            if isinstance(node, ast.FunctionDef):
                defs.append((label, node.name, False, [node]))
                continue
            methods = [
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
            body = [child for child in node.body if child not in methods] + node.bases
            defs.append((label, node.name, False, body))
            for m in methods:
                defs.append((f"{name}:{m.lineno} {node.name}.{m.name}", m.name, True, [m]))
    reached = set()
    while True:
        new = [
            d for d in defs
            if d[0] not in reached and (d[1] in attrs or not d[2] and d[1] in names)
        ]
        if not new:
            return [label for label, _, _, _ in defs if label not in reached]
        for label, _, _, body in new:
            reached.add(label)
            for node in body:
                _read(node, names, attrs)


def test_every_src_function_has_a_caller():
    # What src/tsk defines is reached from its module-level code, the
    # acceptance gate or the benchmark, with no table of exemptions.
    assert unreached(TREES) == []


def test_a_namesake_local_is_no_caller():
    # Fan gains a public method `probe` that nothing calls, and
    # drop_profile's local `facets` is renamed `probe`: the local is no
    # attribute read, so Fan.probe is reported.
    edits = {
        "fan.py": [("    def cofaces(", "    def probe(self):\n        pass\n\n    def cofaces(")],
        "multifilt.py": [("facets = [", "probe = ["), ("p in facets]", "p in probe]")],
    }
    trees = dict(TREES)
    for name, pairs in edits.items():
        source = (SRC / name).read_text("utf-8")
        for text, replacement in pairs:
            assert source.count(text) == 1
            source = source.replace(text, replacement)
        trees[name] = ast.parse(source)
    assert [label.split(" ")[1] for label in unreached(trees)] == ["Fan.probe"]
