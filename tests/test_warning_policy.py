"""The test suite's warning policy, pinned by behaviour.

``pyproject.toml`` promotes ``DeprecationWarning`` and ``RuntimeWarning``
to errors in every test, so the plain tier-1 command enforces it: the
repository's code never leans on a deprecated calling convention, and its
numeric paths (batched sampling, clock math, timeline binning) never
divide by zero or overflow silently.  If the policy falls out of the ini
list, this test fails.  The one message ignored is third-party:
``mypy_extensions.TypedDict is deprecated``, which libcst raises when
hypothesis imports it to print a failing example.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest


def test_deprecation_and_runtime_warnings_are_errors():
    with pytest.raises(DeprecationWarning, match="old calling convention"):
        warnings.warn("old calling convention", DeprecationWarning)
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.float64(1.0) / np.float64(0.0)



def test_only_the_mypy_extensions_message_is_ignored():
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed",
                  DeprecationWarning)
    with pytest.raises(DeprecationWarning, match="typing_extensions"):
        warnings.warn("typing_extensions.TypedDict is deprecated", DeprecationWarning)
    with pytest.raises(DeprecationWarning, match="TypedDict"):
        warnings.warn("the mypy_extensions.TypedDict is deprecated", DeprecationWarning)
