"""Properties of the package source itself."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import tsk

SRC = Path(tsk.__file__).resolve().parent


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            yield path, node


def test_no_assert_statements():
    # `python -O` strips assert statements; every check must be a raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_raise_assertion_error():
    # Internal contradictions raise RuntimeError, which the CLI maps to
    # its documented exit code; AssertionError is reserved for tests.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
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


def test_validate_only_in_the_constructor():
    # What tsk builds is valid by construction; only the constructor's
    # validate=True, which parsed documents take, re-checks a family.
    found = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "validate"
        and (path.name, scope) != ("multifilt.py", ("Multifiltration", "__init__"))
    ]
    assert found == []


def test_elementary_check_only_for_given_pairs():
    # The drops tsk takes derive their invariants in `drop`; elementary_check
    # is the explicit check for given pairs and for the tests.
    found = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == "elementary_check"
        and (path.name, scope) != ("multifilt.py", ("elementary_check",))
    ]
    assert found == []


def test_canonical_jumps_only_in_the_constructor():
    # The cached `_canonical_jumps` is for the lists the constructor
    # keeps.  One-off lists, validate()'s projections and the cofaces
    # `_meet_coface` rewrites, go through the uncached `__wrapped__`, so
    # that they do not fill the cache (the unit drops' rewrites have a
    # memo of their own, `_meet_unit`).  The hull's lists are canonical
    # in closed form and need neither.
    allowed = {
        False: {("Multifiltration", "__init__")},
        True: {("Multifiltration", "validate"), ("_meet_coface",)},
    }
    found = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if "_canonical_jumps"
        in {n.id for n in ast.walk(call.func) if isinstance(n, ast.Name)}
        and not (
            path.name == "multifilt.py"
            and scope in allowed[getattr(call.func, "attr", None) == "__wrapped__"]
        )
    ]
    assert found == []


def test_no_canonical_flat_in_src():
    # `_canonical_jumps` is the one canonicalizer: every construction,
    # the hull included, canonicalizes lists, and reading a list off a
    # grid is the tests' oracle (`drop_oracle._canonical_flat`).
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "_canonical_flat"
        or isinstance(node, ast.Name) and node.id == "_canonical_flat"
        or isinstance(node, ast.Attribute) and node.attr == "_canonical_flat"
        or isinstance(node, ast.alias) and node.name == "_canonical_flat"
    ]
    assert found == []


def test_meet_line_only_in_meet_box():
    # Meeting a family with a line is one rule on jump lists, the coface
    # rewrite's (`_meet_coface`), which the profile walk's weight read
    # reuses for the second drop of a FULL -> ZERO cell; the hull's lists
    # come in closed form from the ray ends.
    allowed = {("_meet_coface",), ("drop_profile",)}
    found = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == "_meet_line"
        and not (path.name == "multifilt.py" and scope in allowed)
    ]
    assert found == []


def test_grid_flat_only_in_the_kernels():
    # A coface rewrite (a drop, a run of drops, a per-cone count) is
    # `_meet_coface`, on lists; a grid of one family per coface would be a
    # second rewrite.  Canonicalizing a raw list scans the list: its grid
    # can be exponentially larger than the document.  The cells where two
    # families differ, for the delta invariant, the factorization, the
    # torsion profile and locating or refuting an elementary injection,
    # are read off their joint grid by `_cells` alone.
    allowed = {
        ("multifilt.py", ("_cells",)),
        ("chern.py", ("chern_general",)),
    }
    found = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for scope, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == "_grid_flat"
        and (path.name, scope) not in allowed
    ]
    assert found == []


def test_loop_order_only_in_runs():
    # Which loop of a grid pass runs outside, the offsets in a block or
    # the blocks, is decided in `_runs` alone; the grid passes iterate its
    # ranges.
    deciders, callers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(c, ast.Compare) and "block * block" in ast.unparse(c)
                for c in ast.walk(node)
            ):
                deciders.add((path.name, node.name))
        for scope, call in _calls_by_scope(tree):
            if getattr(call.func, "id", None) == "_runs":
                callers.add((path.name, scope))
    assert deciders == {("multifilt.py", "_runs")}
    assert callers == {("multifilt.py", ("_grid_flat",)), ("chern.py", ("chern_general",))}


GRIDS = {"_grid_flat", "_runs", "_strides", "_cells", "_checked_cells"}


def _reached_in_multifilt(*roots):
    """The multifilt definitions that the roots call, transitively: a
    call reaches every name in its callee expression, so that
    `_canonical_jumps.__wrapped__(...)` reaches `_canonical_jumps`, and
    a module-level alias reaches every name in its value, so that
    `_meet_unit = lru_cache(...)(_meet_coface)` reaches `_meet_coface`."""
    tree = ast.parse((SRC / "multifilt.py").read_text("utf-8"))
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    aliases = {
        target.id: _named(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs and name not in aliases:
            continue
        reached.add(name)
        todo.extend(aliases.get(name, ()))
        for node in defs.get(name, ()):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    todo.extend(_named(call.func))
    return reached


def test_drop_builds_no_grid():
    # A drop and a run rewrite each coface's jump list over the box they
    # change with `_meet_coface`, the drop through its memo `_meet_unit`
    # and the run through `_meet_box`; none of them, nor anything they
    # call in multifilt, builds or reads a grid.  A drop reads its
    # preconditions off one scan of sigma0's list, `_value_and_below`,
    # and evaluates nothing.
    for root in ("drop", "apply_run"):
        reached = _reached_in_multifilt(root)
        assert {"_meet_coface", "_meet_line", "_canonical_jumps"} <= reached, root
        assert reached & GRIDS == set(), root
    reached = _reached_in_multifilt("drop")
    assert {"_meet_unit", "_value_and_below"} <= reached
    assert reached & {"evaluate", "eval_jumps"} == set()
    assert "_meet_box" in _reached_in_multifilt("apply_run")


def test_every_unit_drop_runs_the_checks():
    # drop, apply_elementary and factorize's steps share `_checked_drop`,
    # which has no switch to skip its checks, and `_value_and_below` is
    # the one reading of the value at m0 and the join below it.
    tree = ast.parse((SRC / "multifilt.py").read_text("utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    args = defs["_checked_drop"].args
    assert [a.arg for a in args.args] == ["f", "sigma0", "m0", "target"]
    assert (args.vararg, args.kwonlyargs, args.kwarg) == (None, [], None)
    assert "join_below" not in defs
    assert _callers_in_multifilt("_value_and_below") == {("_checked_drop",)}


RECORDS = {
    "RayDatum",
    "R2Filtration",
    "TorsionProfile",
    "PrescriptionProblem",
    "TruncPoly",
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
        ("Frozen", "__setattr__"),
        ("Frozen", "__eq__"),
        ("Frozen", "__hash__"),
        ("Multifiltration", "__hash__"),
        ("Fan", "__setattr__"),
        ("Subspace", "__setattr__"),
    }


def test_cofaces_only_in_the_coface_plan():
    # What a rewrite at sigma0 reads off its cofaces depends on (fan,
    # sigma0) alone: inside multifilt, only the memoized `_coface_plan`
    # lists them; the rewrite, the drop and the check iterate the plan.
    tree = ast.parse((SRC / "multifilt.py").read_text("utf-8"))
    callers = {
        scope
        for scope, call in _calls_by_scope(tree)
        if getattr(call.func, "attr", None) == "cofaces"
    }
    assert callers == {("_coface_plan",)}


def _callers_in_multifilt(name):
    tree = ast.parse((SRC / "multifilt.py").read_text("utf-8"))
    return {
        scope
        for scope, call in _calls_by_scope(tree)
        if getattr(call.func, "id", None) == name
    }


def test_family_only_drops_derive_no_invariants():
    # drop and apply_elementary share one checked rewrite, and only drop
    # derives invariants; factorize's steps are calls to drop, and
    # neither apply_elementary nor recompose, which keep only the
    # family, reach it.  elementary_check is the one-step factorization:
    # it reads the drop_counts tally and factorize's step, and locates
    # no drop on the cells itself.
    assert _callers_in_multifilt("_checked_drop") == {("drop",), ("apply_elementary",)}
    assert ("factorize",) in _callers_in_multifilt("drop")
    tree = ast.parse((SRC / "multifilt.py").read_text("utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_injection" not in defined
    reached = _reached_in_multifilt("apply_elementary", "recompose")
    assert {"_checked_drop", "_meet_unit", "_meet_coface", "_coface_plan"} <= reached
    assert "drop" not in reached
    assert {"drop_counts", "factorize"} <= _reached_in_multifilt("elementary_check")
    assert ("elementary_check",) not in _callers_in_multifilt("_cells")


def test_only_unit_drops_fill_the_memo():
    # The memo `_meet_unit` holds unit-drop rewrites, which recompose
    # replays after factorize: only `_checked_drop` calls it.  The boxes
    # of runs and of the profile walk are not replayed, so `_meet_box`
    # calls the uncached `_meet_coface`.
    assert _callers_in_multifilt("_meet_unit") == {("_checked_drop",)}
    assert _callers_in_multifilt("_meet_coface") == {("_meet_box",)}


def test_hull_builds_no_grid():
    # Each cone's hull list is canonical in closed form from its rays'
    # ends: no grid, no canonicalization and no facet meet.
    reached = _reached_in_multifilt("reflexive_hull")
    assert {"ray_ends", "hull_of_ends"} <= reached
    assert reached & (GRIDS | {"_canonical_jumps", "_meet_line"}) == set()


def test_int_pow_only_in_ring():
    # Products of linear factors go through ring.linear_product; int_pow
    # stays a public ring operation, the tests' independent reference.
    found = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for _, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == "int_pow"
        and path.name != "ring.py"
    ]
    assert found == []


def test_ring_is_the_integer_ring_only():
    # Chern classes are integer vectors: ring.py imports no fractions, and
    # TruncPoly keeps construction, [k], rendering, the product, the
    # inverse of a unit and int_pow (the reference linear_product is held
    # to, and a method the tracer wraps).  Log and exp are the integer
    # ring.log_coeffs and exp_coeffs.
    tree = ast.parse((SRC / "ring.py").read_text("utf-8"))
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


def test_factorize_is_one_checked_walk():
    # factorize, drop_counts and delta check E c F on the cells they read,
    # so no src/ code runs a separate containment pass, there is one
    # factorization loop, and obstruct factorizes through the public name.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for _, call in _calls_by_scope(tree):
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == "is_contained":
                found.append(f"{path.name}:{call.lineno} calls is_contained")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_factorize":
                found.append(f"{path.name}:{node.lineno} defines _factorize")
            if (
                path.name == "obstruct.py"
                and isinstance(node, ast.ImportFrom)
                and node.module == "multifilt"
            ):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_obstruct_takes_no_drops():
    # Every verdict reads the profile and Q2's least weight off one walk
    # over the cones, so obstruct imports no drop-by-drop walk.
    tree = ast.parse((SRC / "obstruct.py").read_text("utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & {"factorize", "drop"} == set()


def test_obstruct_reads_the_normalized_sheaf_in_e_frame():
    # The normalized sheaf's Chern class and weights are arithmetic on E's
    # (twist_chern, m_Sigma - t): no src/ code builds a twisted family,
    # and obstruct builds no normalized ray data.
    found = [
        f"{path.name}:{call.lineno} calls .twist"
        for path in sorted(SRC.rglob("*.py"))
        for _, call in _calls_by_scope(ast.parse(path.read_text("utf-8")))
        if getattr(call.func, "attr", None) == "twist"
    ]
    tree = ast.parse((SRC / "obstruct.py").read_text("utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    found += [f"obstruct.py names {name}" for name in {"normalize"} & (imported | _named(tree))]
    assert found == []


def test_obstruct_builds_one_grid_over_e():
    # Q4 reads c(E) up to H^q off the hull's class and p_q; the one
    # chern_general call in obstruction_verdict is Q2's independent c_3.
    tree = ast.parse((SRC / "obstruct.py").read_text("utf-8"))
    calls = [
        call.lineno
        for scope, call in _calls_by_scope(tree)
        if scope == ("obstruction_verdict",)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "chern_general"
    ]
    assert len(calls) == 1, calls


def test_no_rank_parameter():
    # Every sheaf has rank 2, so no module takes a rank: no parameter,
    # attribute or name of one, and no rank-1 constructor.
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args + node.kwonlyargs
            params += [a for a in (node.vararg, node.kwarg) if a is not None]
            found += [f"{path.name}:{a.lineno} {a.arg}" for a in params if a.arg in ("rank", "r")]
        elif isinstance(node, ast.Attribute) and node.attr in ("rank", "r"):
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ("rank", "RANKS"):
            found.append(f"{path.name}:{node.lineno} {node.id}")
        elif isinstance(node, ast.FunctionDef) and node.name == "line_bundle":
            found.append(f"{path.name}:{node.lineno} def line_bundle")
    assert found == []


def test_no_dataclasses():
    # Every tsk process imports the record layer before it does any
    # work: `dataclasses` (and the `inspect` it imports) costs more than
    # the rest of that layer, and each @dataclass execs its methods.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Import)
        and any(alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and node.module == "dataclasses"
    ]
    assert found == []


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


def test_cli_reads_the_route_table():
    # Which Chern routes apply is decided by the routes themselves
    # (reflexive.chern_routes); the cli names none of their hypotheses.
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    hypotheses = {"in_general_position", "is_locally_free", "is_b_zero"}
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    found = [
        f"cli.py:{node.lineno} {getattr(node, field[type(node)])}"
        for node in ast.walk(tree)
        if type(node) in field and getattr(node, field[type(node)]) in hypotheses
    ]
    assert found == []


def test_only_main_writes_to_stdout():
    # Every cli command returns (exit code, payload); main is the one
    # boundary that writes the payload and maps errors to exit codes.
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    found = []
    for fn in ast.walk(tree):
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


def test_prescribe_builds_by_runs_only():
    # build_sequence takes one run per stage; the drop-by-drop chain is
    # the tests' oracle and must not come back as a second build path.
    per_drop = {"drop", "apply_elementary"}
    tree = ast.parse((SRC / "prescribe.py").read_text("utf-8"))
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for name in (alias.name, alias.asname)
    }
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert per_drop & (imported | called) == set()


def test_prescribe_reads_stage_logs_through_run_log():
    # A stage's Chern ratio has one form, run_factors' telescoped edge:
    # the solve reads its log coefficients with run_log, so prescribe
    # imports no Stirling table or power-sum helper from chern.
    tree = ast.parse((SRC / "prescribe.py").read_text("utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "chern"
        for alias in node.names
    }
    assert "run_log" in imported
    found = [
        name
        for name in imported
        if any(part in name for part in ("stirling", "power_sum", "binom"))
    ]
    assert found == []


def test_no_unused_imports():
    # The package's linter: every name a top-level import binds is read
    # in its module.  __init__.py binds names only to re-export them.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations" and name not in read:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


REPO = Path(__file__).resolve().parents[1]

# Source definitions that only the tests call, each mapped to a test
# function that reads it: a paper formula held to a second route, the
# reference a faster routine must reproduce, or a sampler of test data.
KEPT = {
    "Multifiltration.twist": "test_chern.py::test_twist_chern_matches_twisted_drop_chains",
    "ratio_saturated_conewise": "test_chern.py::test_ratio_saturated_oracle",
    "weight_schedule": "drop_oracle.py::replay_drops",
    "PrescriptionSolution.injection_params": "drop_oracle.py::replay_drops",
    "family_p5": "test_prescribe.py::test_family_p5",
    "random_b_zero": "test_multifilt.py::test_factorize_k0_monotone_random",
    "delta": "test_multifilt.py::test_delta_invariant",
    "Multifiltration.evaluate": (
        "test_multifilt.py::test_value_and_below_match_evaluate_and_the_join_one_step_below"
    ),
}


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


def _src_definitions():
    """(label, name, names its body reads) for every top-level function
    and class and every public method in src/tsk, and the names read by
    module-level code outside them."""
    defs, module_level = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module_level |= _named(node)
                continue
            label = f"{path.name}:{node.lineno} {node.name}"
            if isinstance(node, ast.FunctionDef):
                defs.append((label, node.name, _named(node)))
                continue
            methods = [
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
            body = set()
            for child in node.body:
                if child not in methods:
                    body |= _named(child)
            body |= {n for base in node.bases for n in _named(base)}
            defs.append((label, node.name, body))
            for m in methods:
                defs.append(
                    (f"{path.name}:{m.lineno} {node.name}.{m.name}", m.name, _named(m))
                )
    return defs, module_level


def test_every_src_function_has_a_caller():
    # What src/tsk defines is reached from the CLI's module-level code,
    # the acceptance gate, the benchmark (its tracer's attribute paths
    # included) or a KEPT oracle, directly or through other reached code.
    defs, live = _src_definitions()
    # Each KEPT entry names a definition and a test function reading it.
    labels = {label.split(" ")[1] for label, _, _ in defs}
    for name, test in KEPT.items():
        module, func = test.split("::")
        tree = ast.parse((REPO / "tests" / module).read_text("utf-8"))
        fn = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
        assert name in labels and fn and name.split(".")[-1] in _named(fn[0]), (name, test)
    live |= _named(ast.parse((REPO / "tests" / "test_acceptance.py").read_text("utf-8")))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        live |= _named(ast.parse(path.read_text("utf-8")), dotted_strings=True)
    live |= {name.split(".")[-1] for name in KEPT}
    reached = set()
    while True:
        new = [d for d in defs if d[0] not in reached and d[1] in live]
        if not new:
            break
        for label, _, body in new:
            reached.add(label)
            live |= body
    assert [label for label, _, _ in defs if label not in reached] == []
