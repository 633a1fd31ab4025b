"""README's code must keep running against the package it documents."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_block_runs_verbatim(monkeypatch, capsys):
    """The Python block of README's Library section runs as written, from the
    repository root, so a name that leaves the package fails here first."""
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(block, str(ROOT / "README.md"), "exec"), {"__name__": "readme"})
    assert len(capsys.readouterr().out.splitlines()) == 1     # the block's one print
