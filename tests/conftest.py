"""Shared fixtures."""
import functools

import numpy as np
import pytest

from nss import ModelParams, gates, search_low_leakage
from nss.anyon import mp_namespace
from nss.braids import evaluate_word
from nss.gates import D_WORD, PSI_LEAVES, _diag_phases, reichardt_step, step_word


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


@pytest.fixture(scope="session")
def full_precision_recursion():
    """full_precision_recursion(params, word, k, dps): the recursion from
    ``word`` with the word, D and every step at ``dps`` digits, as (word,
    su2, su11, (theta1, theta2), len) for k = 0..k.

    The oracle for reichardt_iterate(extended=True), which works at fewer
    digits before its last step.
    """
    def run(params, word, k, dps):
        ns = mp_namespace(dps)
        cur = evaluate_word(params, PSI_LEAVES, word, ns=ns)
        d = evaluate_word(params, PSI_LEAVES, D_WORD, ns=ns)
        out = []
        for step in range(k + 1):
            out.append((word, float(abs(cur[0, 1])), float(abs(cur[2, 3])),
                        _diag_phases(np.diag(cur)), len(word)))
            if step < k:
                cur, word = reichardt_step(cur, d), step_word(word)
        return out

    return run
