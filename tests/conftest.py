import pathlib
from itertools import zip_longest

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the committed golden CLI outputs instead of comparing",
    )


def _first_difference(name, produced, committed):
    """Name the first line where the produced bytes leave the golden copy."""
    pairs = zip_longest(produced.splitlines(keepends=True),
                        committed.splitlines(keepends=True),
                        fillvalue=b"<end of file>")
    for number, (new, old) in enumerate(pairs, start=1):
        if new != old:
            return (f"{name} drifted from its golden copy at line {number}:\n"
                    f"  produced:  {new!r}\n"
                    f"  committed: {old!r}")
    return f"{name} drifted from its golden copy"


@pytest.fixture
def golden(request, tmp_path):
    """Compare a produced artifact against its committed golden copy."""
    regen = request.config.getoption("--regen-golden")

    def check(produced_path, name):
        produced = pathlib.Path(produced_path).read_bytes()
        ref = GOLDEN_DIR / name
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            ref.write_bytes(produced)
            return
        assert ref.exists(), f"golden file {name} missing; run with --regen-golden"
        committed = ref.read_bytes()
        if produced != committed:
            pytest.fail(_first_difference(name, produced, committed), pytrace=False)

    return check
