"""Every rule of errors.SETTINGS: NaN and a value past a bound fail with the
row's message, a value on an inclusive bound passes, and a value that is not
a real number fails every row as such."""

from math import inf, nan, nextafter

import numpy as np
import pytest

from opcausal.errors import SETTINGS, InvalidLambda, check

# name -> (values just past a bound, values on an inclusive bound)
BOUNDS = {
    "lambda": ([0.0, nextafter(1.0, 2.0)], [1.0]),
    "delta": ([nextafter(0.0, -1.0)], [0.0]),
    "T": ([0, 2.0, 1.5, True], [1]),
    "lead_in": ([-1, 2.0, True], [0]),
    "M": ([1, 9, 3.0, True], [2, 8]),
    "d": ([0, 2.0, 1.5, True], [1]),
    "NL": ([nextafter(0.0, -1.0)], [0.0]),
    "K": ([nextafter(0.0, -1.0), nextafter(100.0, 200.0)], [0.0, 100.0]),
    "c": ([nextafter(0.0, -1.0)], [0.0]),
    "sample_rate": ([0.0, inf], []),
    "window_s": ([0.0, inf], []),
    "overlap": ([nextafter(0.0, -1.0), 1.0], [0.0]),
    "n_realizations": ([0, 2.0, 1.5, True], [1]),
    "max_workers": ([0, 2.0, 1.5, True], [1]),
}


def test_every_setting_is_probed():
    assert list(BOUNDS) == list(SETTINGS)


@pytest.mark.parametrize("name", list(SETTINGS))
def test_check_enforces_the_row(name):
    _, message = SETTINGS[name]
    past, on = BOUNDS[name]
    for value in [nan, *past]:
        with pytest.raises(ValueError) as info:
            check(name, value)
        assert str(info.value) == message.format(value)
        assert (info.type is InvalidLambda) == (name == "lambda")
    for value in on:
        check(name, value)


# the rows whose rule asks for an integer, and so names a bool with the row's message
INTEGER_ROWS = {"T", "lead_in", "M", "d", "n_realizations", "max_workers"}


@pytest.mark.parametrize("name", list(SETTINGS))
def test_check_rejects_what_is_not_a_real_number(name):
    for value in [None, "1", np.True_, *([] if name in INTEGER_ROWS else [True, False])]:
        with pytest.raises(ValueError) as info:
            check(name, value)
        assert str(info.value) == f"{name} must be a number, got {value!r}"
        assert (info.type is InvalidLambda) == (name == "lambda")
