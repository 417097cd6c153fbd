"""Rates held to tests/golden.json, which make_golden.py writes: every
per-user LB and UB rate and UB standard error of 2 drops x 10 trials on
five scenarios, to rtol 1e-9. A change that moves any of them, by design or
not, fails here first."""

import json

import numpy as np
import pytest

from make_golden import CONFIGS, FIELDS, GOLDEN, campaign


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rates_match_golden(golden, name):
    got = campaign(CONFIGS[name])
    for field in FIELDS:
        np.testing.assert_allclose(got[field], golden[name][field],
                                   rtol=1e-9, atol=0, err_msg=field)
