import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failure in
# CI reproduces locally under the same profile.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

HERE = os.path.dirname(__file__)


def golden_path(name: str) -> str:
    return os.path.join(HERE, "golden", name)


def example_path(name: str) -> str:
    return os.path.join(HERE, os.pardir, "examples", name)
