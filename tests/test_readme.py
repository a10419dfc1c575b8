"""The README's command-line examples, run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from tsk import cli
from tsk.documents import SheafDocument, dump_document, load_document
from tsk.linalg import ZERO
from tsk.multifilt import apply_elementary

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def readme_examples():
    """(argv, stdout, exit code) for every `$ tsk ...` line: its output
    is the next line, and an `# exit code N` note gives a nonzero code."""
    lines = README.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ tsk "):
            output = lines[i + 1]
            note = re.fullmatch(r"(.*?)\s+# exit code (\d+)", output)
            code = 0
            if note:
                output, code = note.group(1), int(note.group(2))
            out.append((shlex.split(line)[2:], output + "\n", code))
    return out


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # start.json is the block under "Documents"; dropped.json is its drop
    # at sigma0 = (0,1,2), m0 = (-1,0,0) to ZERO, as the README says.
    start = README.split("### Documents", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "start.json").write_text(start)
    e = apply_elementary(
        load_document(start).as_multifiltration(), (0, 1, 2), (-1, 0, 0), ZERO
    )
    (tmp_path / "dropped.json").write_text(
        dump_document(SheafDocument("multifiltration", e))
    )
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == 9 and [c for _, _, c in examples].count(2) == 1
    for argv, stdout, code in examples:
        assert (cli.main(argv), capsys.readouterr().out) == (code, stdout), argv
