"""The README's library section names only things the package exports."""

import re
from pathlib import Path

import bootbayes

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def library_names():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
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
