"""The five benchmark workloads.

Each workload turns its frozen inputs into prepared items (`setup`, the
part a user pays before any work starts: parse and check the
documents), runs one item (`run`, the timed part) and renders an item's
result as the canonical text that is compared with the recorded
expected output (`render`, untimed).

Everything goes through tsk's public functions; nothing in `src/` is
touched.  Set-up and item functions raise on any cross-check failure,
which the worker counts as a failed item.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

# Called through their modules, so that the tracer's rebinding is seen.
from tsk import chern, documents, multifilt, obstruct, prescribe, reflexive
from tsk.documents import canonical_dumps


class Mismatch(Exception):
    """An item's own cross-check failed (the routes or the roundtrip disagree)."""


class Workload(NamedTuple):
    setup: Callable[[dict, Path, list[str]], list[Any]]
    run: Callable[[Any], Any]
    render: Callable[[Any], str]


# ---------------------------------------------------------------------------
# chern-oracle: the three Chern routes on criterion-1 data


def _chern_setup(data: dict, data_dir: Path, cli: list[str]) -> list[Any]:
    return [documents.load_document(item["doc"]).reflexive() for item in data["items"]]


def _chern_run(f):
    c_res = reflexive.chern_total(f)
    c_gen = chern.chern_general(reflexive.to_multifiltration(f))
    if c_res != c_gen:
        raise Mismatch(f"resolution {c_res} != general {c_gen}")
    g = reflexive.normalize(f, "b_zero")
    c_b = reflexive.chern_total(g)
    for k in range(1, f.n + 1):
        if c_b[k] != reflexive.elementary_symmetric(g, k):
            raise Mismatch(f"c_{k} != s_{k} on the b_zero normalization")
    return c_res, c_b


def _chern_render(result) -> str:
    c_res, c_b = result
    return canonical_dumps({"chern": c_res.render(), "chern_b_zero": c_b.render()})


# ---------------------------------------------------------------------------
# factorize-chain: factorize then recompose on criterion-8 drop chains


def _factorize_setup(data: dict, data_dir: Path, cli: list[str]) -> list[Any]:
    return [
        (
            documents.load_document(item["e"]).as_multifiltration(),
            documents.load_document(item["f"]).as_multifiltration(),
        )
        for item in data["items"]
    ]


def _factorize_run(pair):
    e, f = pair
    steps = multifilt.factorize(e, f)
    if multifilt.recompose(f, steps) != e:
        raise Mismatch("recomposition mismatch")
    return steps


def _factorize_render(steps) -> str:
    return canonical_dumps(
        {
            "steps": [
                {
                    "k0": s.k0,
                    "sigma0": list(s.sigma0),
                    "m0": list(s.m0),
                    "m_Sigma": s.m_Sigma,
                    "saturated": s.saturated,
                }
                for s in steps
            ]
        }
    )


# ---------------------------------------------------------------------------
# obstruct-mix: one obstruction verdict per criterion-10 draw


def _obstruct_setup(data: dict, data_dir: Path, cli: list[str]) -> list[Any]:
    return [documents.load_document(item["doc"]).as_multifiltration() for item in data["items"]]


def _obstruct_run(E):
    return obstruct.obstruction_verdict(E)


def _obstruct_render(verdict) -> str:
    return canonical_dumps(verdict.as_json())


# ---------------------------------------------------------------------------
# prescribe-build: solve and build the paper's families drop by drop


def _prescribe_setup(data: dict, data_dir: Path, cli: list[str]) -> list[Any]:
    out = []
    for item in data["items"]:
        f = documents.load_document(item["doc"]).reflexive()
        problem = prescribe.PrescriptionProblem(f.n, f.c_vec)
        if problem.start_filtration() != f:
            raise ValueError(f"{item['id']}: not the default b_zero start data")
        out.append((problem, item["limit"]))
    return out


def _prescribe_run(task):
    problem, limit = task
    sol = prescribe.solve_p(problem)
    if isinstance(sol, prescribe.Infeasible):
        raise Mismatch(str(sol))
    return sol, prescribe.build_sequence(problem, sol, limit=limit)


def _prescribe_render(result) -> str:
    sol, res = result
    final = canonical_dumps(documents.multifilt_to_doc(res.final)).encode("utf-8")
    return canonical_dumps(
        {
            "p": list(sol.p),
            "chern": sol.chern.render(),
            "built": res.built,
            "total": res.total,
            "chern_final": res.chern_final.render(),
            "final_sha256": hashlib.sha256(final).hexdigest(),
        }
    )


# ---------------------------------------------------------------------------
# cli-docs: fixed `tsk` invocations, one process each


def _cli_setup(data: dict, data_dir: Path, cli: list[str]) -> list[Any]:
    for name, valid in sorted(data["documents"].items()):
        text = (data_dir / name).read_text("utf-8")
        try:
            documents.load_document(text)
        except ValueError:
            if valid:
                raise
        else:
            if not valid:
                raise ValueError(f"{name} was expected to be rejected")
    return [
        cli + [arg.replace("{data}", str(data_dir)) for arg in item["argv"]]
        for item in data["items"]
    ]


def _cli_run(argv):
    proc = subprocess.run(argv, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def _cli_render(result) -> str:
    code, stdout = result
    return canonical_dumps({"exit": code, "stdout": stdout.decode("utf-8")})


WORKLOADS: dict[str, Workload] = {
    "chern-oracle": Workload(_chern_setup, _chern_run, _chern_render),
    "factorize-chain": Workload(_factorize_setup, _factorize_run, _factorize_render),
    "obstruct-mix": Workload(_obstruct_setup, _obstruct_run, _obstruct_render),
    "prescribe-build": Workload(_prescribe_setup, _prescribe_run, _prescribe_render),
    "cli-docs": Workload(_cli_setup, _cli_run, _cli_render),
}

# How the untraced worker starts the command-line tool.
CLI = [sys.executable, "-m", "tsk.cli"]
