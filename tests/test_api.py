import re
from pathlib import Path

import bibdea

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library entry points", 1)[1].split("```python", 1)[1]
    imported = block.split("from bibdea import (", 1)[1].split(")", 1)[0]
    names = re.findall(r"\b[A-Za-z_]\w*\b", re.sub(r"#.*", "", imported))
    assert len(names) >= 15
    for name in names:
        assert name in bibdea.__all__, name
        assert callable(getattr(bibdea, name)), name
