"""The QLabel contract: text forms, pickling, ordering, hashing, validation."""
import pickle

import pytest

from nss import ALPHA, P2, PSI, S32, SIGMA, VACUUM
from nss.labels import QLabel, alpha_label

LABELS = [ALPHA, alpha_label(-2), alpha_label(1), SIGMA, PSI, VACUUM, S32, P2]


def test_repr_and_str():
    assert repr(alpha_label(-1)) == "QLabel(kind='alpha', shift=-1)"
    assert repr(SIGMA) == "QLabel(kind='sigma', shift=0)"
    assert [str(l) for l in LABELS] == ["a", "a-2", "a+1", "s", "psi", "1", "s32", "p2"]
    assert [l.token() for l in LABELS] == [str(l) for l in LABELS]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for label in LABELS:
        back = pickle.loads(pickle.dumps(label, protocol))
        assert type(back) is QLabel
        assert back == label and hash(back) == hash(label)
        assert (back.kind, back.shift, back.is_alpha) == (label.kind, label.shift,
                                                          label.is_alpha)


def test_sorted_by_kind_then_shift():
    assert sorted(LABELS) == sorted(LABELS, key=lambda l: (l.kind, l.shift))
    assert sorted(LABELS)[:3] == [alpha_label(-2), ALPHA, alpha_label(1)]


def test_equal_labels_hash_equal():
    assert QLabel("alpha", 1) == ALPHA.shifted(1) == alpha_label(1)
    assert hash(QLabel("alpha", 1)) == hash(ALPHA.shifted(1))
    assert QLabel("sigma") == SIGMA and hash(QLabel("sigma")) == hash(SIGMA)
    assert {ALPHA.shifted(1): "up"}[QLabel("alpha", 1)] == "up"
    assert len(set(LABELS) | {QLabel("psi"), alpha_label(-2)}) == len(LABELS)


def test_fields_are_read_only():
    with pytest.raises(AttributeError):
        ALPHA.kind = "sigma"
    with pytest.raises(AttributeError):
        ALPHA.shift = 1
    with pytest.raises(AttributeError):
        ALPHA.note = "no instance dict"


def test_constructor_errors():
    with pytest.raises(ValueError, match="unknown label kind 'beta'"):
        QLabel("beta")
    with pytest.raises(ValueError, match="only alpha-type labels carry a shift"):
        QLabel("sigma", 1)
    with pytest.raises(ValueError, match="only alpha-type labels shift"):
        SIGMA.shifted(1)
