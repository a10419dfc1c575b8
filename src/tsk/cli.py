"""Command-line front end.

    tsk chern|stability|factorize|prescribe|family|obstruct|validate

JSON documents travel on stdin/stdout or as file paths ("-" = stdin);
all output is canonical JSON (sorted keys, exact integers/rationals,
no floats), so identical input bytes give identical output bytes.

Exit codes: 0 success, 1 invalid input, 2 infeasible / search
exhausted, 3 method disagreement or internal error, 4 recomposition
mismatch (3 and 4 are internal cross-check sentinels; a disagreement or
mismatch payload goes to stdout, an internal error -- an ArithmeticError
or RuntimeError escaping a command -- is one line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from . import chern as chern_mod
from . import reflexive as refl
from .documents import SheafDocument, canonical_dumps, load_document
from .multifilt import (
    InvalidFamily,
    Multifiltration,
    factorize,
    recompose,
    reflexive_hull,
)
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
from .reflexive import R2Filtration, to_multifiltration
from .ring import TruncPoly

OK, INVALID, INFEASIBLE, DISAGREEMENT, MISMATCH = 0, 1, 2, 3, 4


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
    except (ValueError, InvalidFamily) as e:  # UnicodeDecodeError is a ValueError
        raise CliError(f"invalid document {path!r}: {e}") from e
    except RecursionError as e:
        raise CliError(f"invalid document {path!r}: nested too deeply") from e


def _emit(payload: dict) -> None:
    sys.stdout.write(canonical_dumps(payload))


# ---------------------------------------------------------------------------
# chern


def _chern_methods(doc: SheafDocument) -> dict[str, TruncPoly]:
    """All methods applicable to the document, in fixed order."""
    out: dict[str, TruncPoly] = {}
    if doc.kind == "reflexive":
        f = doc.reflexive()
        out["resolution"] = refl.chern_total(f)
        out["klyachko"] = chern_mod.chern_general(to_multifiltration(f))
        if f.is_b_zero():
            out["symmetric"] = refl.chern_symmetric(f)
    else:
        out["klyachko"] = chern_mod.chern_general(doc.payload)
    return out


def cmd_chern(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    methods = _chern_methods(doc)
    if args.method != "auto":
        if args.method not in methods:
            why = (
                "the symmetric-function formula needs b_zero reflexive data"
                if args.method == "symmetric" and doc.kind == "reflexive"
                else f"method {args.method!r} does not apply to a {doc.kind} document"
            )
            raise CliError(why)
        _emit({"chern": methods[args.method].render(), "method": args.method})
        return OK
    rendered = {name: poly.render() for name, poly in methods.items()}
    if len(set(rendered.values())) > 1:
        _emit({"error": "method disagreement", "methods": rendered})
        return DISAGREEMENT
    _emit({"chern": next(iter(rendered.values())), "methods": rendered})
    return OK


# ---------------------------------------------------------------------------
# stability


def _as_reflexive(doc: SheafDocument, what: str) -> R2Filtration:
    """Reflexive ray data from either encoding; errors on genuinely
    non-reflexive multifiltrations."""
    if doc.kind == "reflexive":
        return doc.reflexive()
    mf = doc.payload
    if reflexive_hull(mf) != mf:
        raise CliError(
            f"{what} is defined for reflexive data; this multifiltration"
            " is not reflexive (factor through its hull first)"
        )
    return refl.from_multifiltration(mf)


def cmd_stability(args: argparse.Namespace) -> int:
    f = _as_reflexive(_read_document(args.input), "the stability verdict")
    verdict = refl.stability(f)
    bg = refl.bogomolov_ok(f)
    _emit(
        {
            "verdict": verdict.value,
            "slope": str(refl.slope(f)),
            "delta": refl.discriminant(f),
            "bogomolov": "n/a" if bg is None else ("ok" if bg else "violated"),
        }
    )
    return OK


# ---------------------------------------------------------------------------
# factorize


def cmd_factorize(args: argparse.Namespace) -> int:
    if args.e == "-" and args.f == "-":
        raise CliError("at most one of E, F can come from stdin")
    e_doc = _read_document(args.e)
    f_doc = _read_document(args.f)
    e, f = e_doc.as_multifiltration(), f_doc.as_multifiltration()
    try:
        steps = factorize(e, f)
    except (ValueError, InvalidFamily) as err:
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
        payload["error"] = "recomposition mismatch"
        _emit(payload)
        return MISMATCH
    payload["recomposition"] = "ok"
    _emit(payload)
    return OK


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


def cmd_prescribe(args: argparse.Namespace) -> int:
    try:
        c = tuple(int(x) for x in args.start.split(","))
    except ValueError as e:
        raise CliError(f"--start must be a comma-separated integer list: {e}") from e
    try:
        problem = PrescriptionProblem(args.n, c)
    except ValueError as e:
        raise CliError(str(e)) from e
    closed = _closed_form_report(problem) if args.closed_form else None
    sol = solve_p(problem)
    if isinstance(sol, Infeasible):
        _emit(sol.as_json())
        return INFEASIBLE
    payload = sol.certificate()
    payload["injections"] = sol.injection_count
    if closed is not None:
        payload["closed_form"] = closed
        agrees = all(
            str(sol.p_k(k)) == closed[f"p{k}"] for k in range(3, problem.n + 1)
        )
        if not agrees:
            payload["error"] = "closed form disagrees with the solver"
            _emit(payload)
            return DISAGREEMENT
    _emit(payload)
    return OK


# ---------------------------------------------------------------------------
# family


def cmd_family(args: argparse.Namespace) -> int:
    which = args.which
    if which == "pn":
        if args.n is None:
            raise CliError("--which pn needs --n")
        try:
            sol = family_pn(args.n)
        except ValueError as e:
            raise CliError(str(e)) from e
        except RuntimeError as e:
            _emit({"error": str(e)})
            return INFEASIBLE
        payload = sol.certificate()
        payload["multiplier"] = sol.problem.c[1]
        _emit(payload)
        return OK
    if args.t is None:
        raise CliError(f"--which {which} needs --t")
    try:
        if which == "p4-odd":
            _emit(family_p4_odd(args.t).certificate())
            return OK
        if which == "p4-even":
            _emit(family_p4_even(args.t).certificate())
            return OK
        # p5: report both start-data candidates, select the feasible recipe
        candidates = family_p5_candidates(args.t)
        report: dict = {"candidates": {}}
        selected = None
        for label, sol in candidates.items():
            if isinstance(sol, Infeasible):
                report["candidates"][label] = sol.as_json()
            else:
                report["candidates"][label] = sol.certificate()
                if label == "c=120t":
                    selected = label
        if selected is None:
            report["error"] = "the c=120t recipe is infeasible"
            _emit(report)
            return INFEASIBLE
        report["selected"] = selected
        _emit(report)
        return OK
    except ValueError as e:
        raise CliError(str(e)) from e
    except RuntimeError as e:
        _emit({"error": str(e)})
        return INFEASIBLE


# ---------------------------------------------------------------------------
# obstruct / validate


def cmd_obstruct(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    try:
        verdict = obstruction_verdict(doc.as_multifiltration())
    except ValueError as e:
        raise CliError(str(e)) from e
    _emit(verdict.as_json())
    return OK


def cmd_validate(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    payload: dict = {"valid": True, "kind": doc.kind, "n": doc.n, "rank": 2}
    if doc.label is not None:
        payload["label"] = doc.label
    _emit(payload)
    return OK


# ---------------------------------------------------------------------------
# selftest (hidden): deterministic randomized sweeps for CI


def cmd_selftest(args: argparse.Namespace) -> int:
    import random

    from . import sampling

    rng = random.Random(args.seed)
    checks: dict[str, int] = {}

    # Chern oracle triple agreement on random reflexive data.
    for _ in range(25):
        n = rng.choice((3, 4))
        f = sampling.random_reflexive(rng, n, max_c=4)
        res = refl.chern_total(f)
        kly = chern_mod.chern_general(to_multifiltration(f))
        b0 = refl.normalize(f, "b_zero")
        sym = refl.chern_symmetric(b0)
        twist = refl.chern_total(b0)
        if not (res == kly and sym == twist):
            _emit({"error": "chern method disagreement", "seed": args.seed})
            return DISAGREEMENT
    checks["chern_triple"] = 25

    # Factorize/recompose roundtrips over random drop sequences.
    for _ in range(10):
        n = rng.choice((3, 4))
        start = to_multifiltration(sampling.random_b_zero(rng, n, max_c=3))
        dropped, _ = sampling.random_drops(rng, start, rng.randint(1, 3), (2, n))
        steps = factorize(dropped, start)
        if recompose(start, steps) != dropped:
            _emit({"error": "recomposition mismatch", "seed": args.seed})
            return MISMATCH
    checks["factorize_roundtrip"] = 10

    # Combinatorial identity spot checks.
    for _ in range(20):
        a, m = rng.randint(-3, 3), rng.randint(-3, 3)
        d, n = rng.randint(2, 4), 4
        if not chern_mod.identity_product(a, m, d, n):
            _emit({"error": "identity_product failed", "seed": args.seed})
            return DISAGREEMENT
    checks["identity_product"] = 20

    _emit({"selftest": "ok", "seed": args.seed, "checks": checks})
    return OK


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

    p = sub.add_parser("selftest")  # hidden: not in the metavar list
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return INVALID
    try:
        return args.func(args)
    except CliError as e:
        print(f"tsk: error: {e}", file=sys.stderr)
        return INVALID
    except (ArithmeticError, RuntimeError) as e:
        print(f"tsk: internal error: {e}", file=sys.stderr)
        return DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
