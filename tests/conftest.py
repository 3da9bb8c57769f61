"""Suite-wide collection checks."""

import pytest


def pytest_collection_modifyitems(items):
    # a test id is one token: it names the test in -k, in --deselect and
    # in every list of test ids, one per line, so a parametrization whose
    # values hold whitespace needs ids of its own
    blank = [item.nodeid for item in items if any(ch.isspace() for ch in item.nodeid)]
    if blank:
        raise pytest.UsageError(
            "test ids must hold no whitespace; give these parametrizations ids=:\n  "
            + "\n  ".join(blank)
        )
