"""The README's library sketch runs, and trains as the command it names; the
package's public names all resolve."""

import re
from pathlib import Path

from mole.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> tuple[str, str]:
    """The sketch's code block and the `mole train` command its text names."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    command = re.search(r"`(mole train [^`]+)`", section).group(1)
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return code, command


def test_library_sketch_prints_what_mole_train_prints(tmp_path, capsys):
    code, command = library_sketch()
    exec(compile(code, str(README), "exec"), {})
    sketch = capsys.readouterr().out
    assert main(command.split()[1:] + ["--out", str(tmp_path / "runs")]) == 0
    cli = capsys.readouterr().out.splitlines()
    assert sketch.splitlines() == [line for line in cli if "accuracy" in line]
    assert len(sketch.splitlines()) == 2


def test_public_names_resolve():
    """Every name in `mole.__all__` exists, no name is listed twice, and
    `from mole import *` runs, so a deleted name left in the list fails here."""
    import mole

    assert len(mole.__all__) == len(set(mole.__all__))
    assert [name for name in mole.__all__ if not hasattr(mole, name)] == []
    namespace = {}
    exec("from mole import *", namespace)
    assert set(mole.__all__) <= set(namespace)
