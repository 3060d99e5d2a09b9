"""The README's library section names only things the package exports, and
its example runs."""

import contextlib
import io
import re
from pathlib import Path

import bootbayes

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def library_section():
    text = README.read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_names():
    prose = re.sub(r"```.*?```", "", library_section(), flags=re.S)
    names = []
    for span in re.findall(r"`([^`]+)`", prose):
        # a call such as `Prior.from_values(...)` names its callee
        name = re.sub(r"\(.*\)$", "", span)
        if IDENTIFIER.fullmatch(name):
            names.append(name)
    return names


def test_library_section_names_resolve_in_the_package():
    names = library_names()
    assert len(names) >= 10  # the section was found and parsed
    missing = []
    for name in names:
        obj = bootbayes
        for part in name.split("."):
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
    assert not missing, f"README names unknown exports: {missing}"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", library_section(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), namespace)
    # the block ran to its last line: a run of 4000 rows and one summary line
    assert namespace["run"].B == 4000
    assert namespace["run"].t["identity"].shape == (4000,)
    mean, lo, hi, cv = map(float, re.fullmatch(
        r"(\S+)  \((\S+), (\S+)\)  cv (\S+)\n", out.getvalue()).groups())
    assert lo < mean < hi and cv > 0.0
