import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Tests that run `python -m bibdea.cli` in a subprocess import this checkout too.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from benchmarks import pharm_chem_dataset  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def pharm_chem():
    return pharm_chem_dataset()


@pytest.fixture(scope="session")
def pharm_chem_scores(pharm_chem):
    from bibdea import evaluate_sds

    return evaluate_sds(pharm_chem)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
