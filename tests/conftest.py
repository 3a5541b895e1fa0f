import pathlib
import re
from itertools import zip_longest

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
# a number, split out of the text around it (a capture group keeps both)
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


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


def _drift(produced, committed):
    """Largest absolute and relative change over the numeric fields, and
    the number of integer or text fields that changed.

    A field is numeric when either side is written as a float (with a
    point or an exponent); a float printed as "0" is then still numeric
    once it moves.
    """
    largest_abs = largest_rel = 0.0
    exact = 0
    for new, old in zip_longest(NUMBER.split(produced), NUMBER.split(committed)):
        if new == old:
            continue
        numeric = (new is not None and old is not None
                   and NUMBER.fullmatch(new) and NUMBER.fullmatch(old)
                   and any(c in new + old for c in b".eE"))
        if not numeric:
            exact += 1
            continue
        a, b = float(new), float(old)
        if a != b:
            largest_abs = max(largest_abs, abs(a - b))
            largest_rel = max(largest_rel, abs(a - b) / max(abs(a), abs(b)))
    return largest_abs, largest_rel, exact


def _drift_report(name, produced, committed):
    largest_abs, largest_rel, exact = _drift(produced, committed)
    return (f"{_first_difference(name, produced, committed)}\n"
            f"  largest numeric change: {largest_abs:.3g} absolute, "
            f"{largest_rel:.3g} relative\n"
            f"  integer or text fields changed: {exact}")


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
            pytest.fail(_drift_report(name, produced, committed), pytrace=False)

    return check
