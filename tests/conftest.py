"""Hypothesis budgets, chosen by the HYPOTHESIS_PROFILE environment
variable: "tier1" (the default) runs 40 examples per test that does not
set its own count, "fuzz" runs 2000 (CI runs the config fuzz alone under
it)."""

import os

from hypothesis import settings

settings.register_profile("tier1", max_examples=40)
settings.register_profile("fuzz", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
