"""Shared test settings.

Differential tests compare fast kernels with their oracles on drawn inputs;
their run time depends on the drawn sizes and on how busy the host is, so
hypothesis's per-example deadline is off for every test.  An explicit
@settings on a test still overrides the other fields of this profile.
"""

from hypothesis import settings

settings.register_profile("pinlab", deadline=None)
settings.load_profile("pinlab")
