"""Hypothesis profiles: `ci` derandomizes every property test, so a
failure seen in CI reproduces locally with HYPOTHESIS_PROFILE=ci."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
