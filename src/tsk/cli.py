"""Command-line front end.

    tsk chern|stability|factorize|prescribe|family|obstruct|validate

JSON documents travel on stdin/stdout or as file paths ("-" = stdin);
all output is canonical JSON (sorted keys, exact integers/rationals,
no floats), so identical input bytes give identical output bytes.

Every `cmd_*` returns (exit code, payload) and writes nothing; `main`
is the one place where a result leaves the process.  It writes the
payload to stdout with `canonical_dumps` and maps what escapes a
command to one line on stderr:

    CliError, ValueError           exit 1, "tsk: error: ..."
    ArithmeticError, RuntimeError  exit 3, "tsk: internal error: ..."

ValueError is how the library rejects input (InvalidFamily and
NotElementary are ValueErrors).  Exit codes: 0 success, 1 invalid
input, 2 infeasible / search exhausted, 3 method disagreement or
internal error, 4 recomposition mismatch (3 and 4 are internal
cross-check sentinels whose disagreement or mismatch payload goes to
stdout).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from . import chern as chern_mod
from . import reflexive as refl
from .documents import SheafDocument, canonical_dumps, load_document
from .multifilt import drop_counts, factorize, is_reflexive, recompose
from .obstruct import obstruction_verdict
from .prescribe import (
    Infeasible,
    PrescriptionProblem,
    family_p4_even,
    family_p4_odd,
    family_p5_candidates,
    family_pn,
    solve_p,
    solve_p_closed_p4,
    solve_p_closed_p5,
)
from .reflexive import R2Filtration

OK, INVALID, INFEASIBLE, DISAGREEMENT, MISMATCH = 0, 1, 2, 3, 4

Result = tuple[int, dict]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    infeasibility, so usage errors are remapped to exit 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(INVALID, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    """Invalid input (exit 1) with a human-readable message."""


def _read_document(path: str) -> SheafDocument:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
        return load_document(text)
    except OSError as e:
        raise CliError(f"cannot read {path!r}: {e}") from e
    except ValueError as e:  # InvalidFamily and UnicodeDecodeError are ValueErrors
        raise CliError(f"invalid document {path!r}: {e}") from e
    except RecursionError as e:
        raise CliError(f"invalid document {path!r}: nested too deeply") from e


# ---------------------------------------------------------------------------
# chern


def cmd_chern(args: argparse.Namespace) -> Result:
    """auto runs every route whose hypothesis holds (the route table of
    `reflexive`; a multifiltration has only klyachko) and compares; a
    named closed route raises a ValueError naming the hypothesis it lacks."""
    doc = _read_document(args.input)
    method = args.method
    if doc.kind == "reflexive":
        f = doc.reflexive()
        if method == "auto":
            polys = refl.chern_routes(f)
        else:
            polys = {method: refl.CHERN_ROUTES[method](f)}
    elif method in ("auto", "klyachko"):
        polys = {"klyachko": chern_mod.chern_general(doc.payload)}
    else:
        raise CliError(f"method {method!r} does not apply to a {doc.kind} document")
    rendered = {name: poly.render() for name, poly in polys.items()}
    if len(set(rendered.values())) > 1:
        return DISAGREEMENT, {"error": "method disagreement", "methods": rendered}
    if method == "auto":
        return OK, {"chern": next(iter(rendered.values())), "methods": rendered}
    return OK, {"chern": rendered[method], "method": method}


# ---------------------------------------------------------------------------
# stability


def _as_reflexive(doc: SheafDocument, what: str) -> R2Filtration:
    """Reflexive ray data from either encoding; errors on genuinely
    non-reflexive multifiltrations."""
    if doc.kind == "reflexive":
        return doc.reflexive()
    if not is_reflexive(doc.payload):
        raise CliError(
            f"{what} is defined for reflexive data; this multifiltration"
            " is not reflexive (factor through its hull first)"
        )
    return refl.from_multifiltration(doc.payload)


def cmd_stability(args: argparse.Namespace) -> Result:
    f = _as_reflexive(_read_document(args.input), "the stability verdict")
    bg = refl.bogomolov_ok(f)
    return OK, {
        "verdict": refl.stability(f).value,
        "slope": str(refl.slope(f)),
        "delta": refl.discriminant(f),
        "bogomolov": "n/a" if bg is None else ("ok" if bg else "violated"),
    }


# ---------------------------------------------------------------------------
# factorize


# The steps are listed one by one, so a pair with more is refused on its
# `drop_counts` tally, which costs what the cones hold, before any drop.
MAX_FACTORIZE_STEPS = 10**5


def cmd_factorize(args: argparse.Namespace) -> Result:
    if args.e == "-" and args.f == "-":
        raise CliError("at most one of E, F can come from stdin")
    e, f = (_read_document(path).as_multifiltration() for path in (args.e, args.f))
    try:
        count = sum(drop_counts(e, f).values())
        if count > MAX_FACTORIZE_STEPS:
            raise ValueError(
                f"{count} elementary steps, more than the limit of {MAX_FACTORIZE_STEPS}"
            )
        steps = factorize(e, f)
    except ValueError as err:
        raise CliError(f"cannot factorize: {err}") from err
    payload = {
        "count": len(steps),
        "steps": [
            {
                "k0": s.k0,
                "sigma0": list(s.sigma0),
                "m0": list(s.m0),
                "m_Sigma": s.m_Sigma,
                "saturated": s.saturated,
            }
            for s in steps
        ],
    }
    if recompose(f, steps) != e:
        return MISMATCH, {**payload, "error": "recomposition mismatch"}
    return OK, {**payload, "recomposition": "ok"}


# ---------------------------------------------------------------------------
# prescribe


def _closed_form_report(problem: PrescriptionProblem) -> dict:
    start = problem.start_chern()
    if problem.n == 4:
        p = solve_p_closed_p4(start.coeffs, problem.c_rho0)
    elif problem.n == 5 and problem.c_rho0 == 1:
        p = solve_p_closed_p5(start.coeffs)
    else:
        raise CliError(
            "--closed-form is available for n=4 (any c_rho0) and n=5"
            " with c_rho0=1"
        )
    return {f"p{k}": str(v) for k, v in zip(range(3, problem.n + 1), p)}


def cmd_prescribe(args: argparse.Namespace) -> Result:
    try:
        c = tuple(int(x) for x in args.start.split(","))
    except ValueError as e:
        raise CliError(f"--start must be a comma-separated integer list: {e}") from e
    problem = PrescriptionProblem(args.n, c)
    closed = _closed_form_report(problem) if args.closed_form else None
    sol = solve_p(problem)
    if isinstance(sol, Infeasible):
        return INFEASIBLE, sol.as_json()
    payload = {**sol.certificate(), "injections": sol.injection_count}
    if closed is None:
        return OK, payload
    payload["closed_form"] = closed
    if any(str(sol.p_k(k)) != closed[f"p{k}"] for k in range(3, problem.n + 1)):
        return DISAGREEMENT, {**payload, "error": "closed form disagrees with the solver"}
    return OK, payload


# ---------------------------------------------------------------------------
# family


_FAMILIES = {"pn": family_pn, "p4-odd": family_p4_odd, "p4-even": family_p4_even}


def cmd_family(args: argparse.Namespace) -> Result:
    """pn takes --n, the others --t; p5 reports both start-data
    candidates and selects c=120t unless it is infeasible."""
    param = "n" if args.which == "pn" else "t"
    value = getattr(args, param)
    if value is None:
        raise CliError(f"--which {args.which} needs --{param}")
    try:
        if args.which == "p5":
            candidates = family_p5_candidates(value)
        else:
            sol = _FAMILIES[args.which](value)
    except RuntimeError as e:
        return INFEASIBLE, {"error": str(e)}
    if args.which == "pn":
        return OK, {**sol.certificate(), "multiplier": sol.problem.c[1]}
    if args.which != "p5":
        return OK, sol.certificate()
    report: dict = {
        "candidates": {
            label: s.as_json() if isinstance(s, Infeasible) else s.certificate()
            for label, s in candidates.items()
        }
    }
    if isinstance(candidates["c=120t"], Infeasible):
        return INFEASIBLE, {**report, "error": "the c=120t recipe is infeasible"}
    return OK, {**report, "selected": "c=120t"}


# ---------------------------------------------------------------------------
# obstruct / validate


def cmd_obstruct(args: argparse.Namespace) -> Result:
    doc = _read_document(args.input)
    return OK, obstruction_verdict(doc.as_multifiltration()).as_json()


def cmd_validate(args: argparse.Namespace) -> Result:
    doc = _read_document(args.input)
    payload: dict = {"valid": True, "kind": doc.kind, "n": doc.n, "rank": 2}
    if doc.label is not None:
        payload["label"] = doc.label
    return OK, payload


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tsk",
        description=(
            "Equivariant rank-2 sheaves on P^n: Chern classes, stability,"
            " elementary factorizations, and Chern-prescribing families."
        ),
    )
    sub = parser.add_subparsers(
        dest="command",
        metavar="{chern,stability,factorize,prescribe,family,obstruct,validate}",
    )

    p = sub.add_parser("chern", help="Chern polynomial of a sheaf document")
    p.add_argument("input", help="document path or - for stdin")
    p.add_argument(
        "--method",
        choices=("auto", "resolution", "klyachko", "symmetric"),
        default="auto",
        help="formula to use; auto runs every applicable one and compares",
    )
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("stability", help="slope stability verdict")
    p.add_argument("input", help="document path or - for stdin")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser(
        "factorize", help="factor an equal-rank injection E c F into elementary steps"
    )
    p.add_argument("e", help="document for E (subsheaf)")
    p.add_argument("f", help="document for F (ambient)")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser(
        "prescribe", help="solve for drop counts realizing a Chern prescription"
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument(
        "--start",
        required=True,
        help="start data c_rho0,...,c_rhon as a comma-separated list",
    )
    p.add_argument(
        "--closed-form",
        action="store_true",
        help="cross-check against the closed-form solutions (n=4, n=5)",
    )
    p.set_defaults(func=cmd_prescribe)

    p = sub.add_parser("family", help="reproduce the verified stable families")
    p.add_argument(
        "--which",
        choices=("p4-odd", "p4-even", "p5", "pn"),
        required=True,
    )
    p.add_argument("--t", type=int, help="family parameter (p4-odd, p4-even, p5)")
    p.add_argument("--n", type=int, help="ambient dimension (pn)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("obstruct", help="smoothability obstruction verdict")
    p.add_argument("input", help="document path or - for stdin")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("validate", help="parse and validate a sheaf document")
    p.add_argument("input", help="document path or - for stdin")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return INVALID
    try:
        code, payload = args.func(args)
        text = canonical_dumps(payload)
    except (CliError, ValueError) as e:
        print(f"tsk: error: {e}", file=sys.stderr)
        return INVALID
    except (ArithmeticError, RuntimeError) as e:
        print(f"tsk: internal error: {e}", file=sys.stderr)
        return DISAGREEMENT
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
