"""Speed factors of the machine-speed sampler.

    python3 -m pytest perfbench/test_speed.py
"""

from __future__ import annotations

import speed


def _sampler(times_ns):
    sampler = speed.Sampler()
    sampler.at = [1000 * t for t in range(len(times_ns))]
    sampler.ns = list(times_ns)
    return sampler


def test_factor_is_the_trimmed_mean_over_the_interval():
    # 40 samples at the reference speed, then 40 at twice its loop time
    sampler = _sampler([speed.REFERENCE_NS] * 40 + [2 * speed.REFERENCE_NS] * 40)
    assert sampler.factor(0, 39_000) == 1.0
    assert sampler.factor(40_000, 79_000) == 2.0
    # one interrupted sample among 40 is trimmed away
    sampler.ns[5] = 100 * speed.REFERENCE_NS
    assert sampler.factor(0, 39_000) == 1.0


def test_short_interval_is_widened_around_its_middle():
    sampler = _sampler([speed.REFERENCE_NS] * 40 + [2 * speed.REFERENCE_NS] * 40)
    # holds 2 samples; widened to MIN_SAMPLES, all of them on the slow side
    assert sampler.factor(70_000, 71_000) == 2.0
    assert sampler.factor(10**12, 10**12 + 1) == 2.0  # after the last sample


def test_no_samples_yet_takes_one():
    sampler = speed.Sampler()
    assert sampler.factor(0, 1) > 0 and len(sampler.at) == 1
