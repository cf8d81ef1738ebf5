"""Test-session setup shared by every test module.

hypothesis' pytest plugin imports its patch writer (`hypothesis.extra._patching`, which
imports libcst) the first time a `@given` test fails. libcst warns a DeprecationWarning on
import, and under `python -W error` that warning ends the session with an INTERNALERROR,
so the failure is never reported and no later test runs. Importing the writer here, once,
with only that warning category ignored, lets a failing example report as an ordinary
failure; every warning raised by kbitq or its tests is still an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst is not installed: no patch is written
        pass
