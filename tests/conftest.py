"""Shared fixtures."""
import functools

import pytest

from nss import ModelParams, gates, search_low_leakage


@pytest.fixture(scope="session")
def searched():
    """searched(alpha, max_len, threshold): search_low_leakage(..., jobs=1)
    as (the raw hits in the order _search_range made them, the results).

    Each input is searched once a session, so criterion 9, the L11 pin and
    the dedupe test share one 12/5, L11 search.
    """
    @functools.cache
    def run(alpha, max_len, threshold):
        real, raw = gates._search_range, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gates, "_search_range", lambda *args: raw.extend(real(*args)) or list(raw))
            results = search_low_leakage(ModelParams.from_string(alpha), max_len, threshold, jobs=1)
        return tuple(raw), tuple(results)

    return run
