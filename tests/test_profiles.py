"""The hypothesis profiles of conftest.py, and how a run selects one."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings


def test_active_profile_is_the_selected_one(request):
    """settings.default is the profile that --hypothesis-profile names, or
    the derandomized tier-1 profile where no profile is named."""
    name = request.config.getoption("--hypothesis-profile") or "ybgates"
    derandomize, max_examples = {"ybgates": (True, 100), "deep": (False, 1500)}[name]
    assert settings.default.derandomize is derandomize
    assert settings.default.max_examples == max_examples
    assert settings.default.deadline is None and settings.default.database is None


def test_profile_option_wins_over_the_loaded_profile():
    """--hypothesis-profile deep replaces the profile conftest.py loads."""
    here = Path(__file__)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile", "deep",
         f"{here}::test_active_profile_is_the_selected_one"],
        capture_output=True, text=True, cwd=here.parents[1], timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
