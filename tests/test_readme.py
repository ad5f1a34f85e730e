"""README statements that can go stale when the package changes shape."""

import pkgutil
import re
from pathlib import Path

import qetchain

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_layout_lists_every_module():
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `qetchain\.(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(module.name for module in pkgutil.iter_modules(qetchain.__path__))
