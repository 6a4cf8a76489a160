import pytest

import run


def test_end_to_end_uses_each_slots_median_over_the_run():
    jobs = [
        {"slot": 0, "s": 1.0, "problems": []},
        {"slot": 1, "s": 3.0, "problems": [("check:norm-monotone", False)]},
        {"slot": 0, "s": 2.0, "problems": []},
        {"slot": 1, "s": 4.0, "problems": [("check:norm-monotone", False)]},
        {"slot": 0, "s": 9.0, "problems": []},  # a slow spell moves no median
        {"slot": 1, "s": 3.5, "problems": []},
    ]
    metrics = run.end_to_end(jobs, [0.5, 0.4, 0.6])
    assert metrics["jobs_per_s"] == (pytest.approx(4 / 6 * 2 / (2.0 + 3.5)), "1/s")
    assert metrics["job_p50_s"] == (pytest.approx((2.0 + 3.5) / 2), "s")
    assert metrics["certified_frac"] == (pytest.approx(4 / 6), "ratio")
    assert metrics["setup_s"] == (0.5, "s")
