"""Run the tier-1 test suite and check that exactly the known-red tests fail.

Usage, from any directory:

    python tools/check_tier1.py [extra pytest arguments]

The four known-red tests (README, "Testing") record a measured property of
the model and fail on purpose.  The script runs pytest with `src` on
PYTHONPATH and a JUnit XML report, then exits 0 only when the set of failing
tests is exactly those four: a new failure fails the check, and so does a
known-red test that passes or is no longer collected.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNOWN_RED = frozenset({
    "tests.test_acceptance::test_criterion_04_stationary_density_cap",
    "tests.test_hierarchy::test_density_cap_order2[zero-third-cumulant]",
    "tests.test_hierarchy::test_density_cap_order2[kirkwood]",
    "tests.test_hierarchy::test_density_cap_order2[mean-field]",
})


def failing_tests(junit: Path) -> tuple[set, int]:
    """Ids (`classname::name`) of the failed or errored test cases, and the
    number of test cases in the report."""
    failing, total = set(), 0
    for case in ET.parse(junit).iter("testcase"):
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(f"{case.get('classname')}::{case.get('name')}")
    return failing, total


def main(argv: list) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={junit}", *argv],
            cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not junit.is_file():
            print(f"check_tier1: pytest exited {code} without a full report",
                  file=sys.stderr)
            return 1
        failing, total = failing_tests(junit)
    new = sorted(failing - KNOWN_RED)
    passing_red = sorted(KNOWN_RED - failing)
    for name in new:
        print(f"check_tier1: unexpected failure: {name}", file=sys.stderr)
    for name in passing_red:
        print(f"check_tier1: known-red test did not fail: {name}",
              file=sys.stderr)
    print(f"check_tier1: {total} tests, {len(failing)} failing, "
          f"{len(new)} unexpected, {len(passing_red)} known-red not failing")
    return 1 if new or passing_red else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
