"""Shared fixtures."""

import dataclasses

import pytest

from relaysel import experiments


@pytest.fixture
def auction_law_on_skip_episodes(monkeypatch):
    """Simulate the idle-skip auction wherever the plain auction's law is checked.

    The two laws differ by a TV of 0.078-0.125 at n = 2..5, so every agreement
    check of the plain auction must fail: a power test of the derived gates.
    """
    real = experiments.run_episode_batch

    def skip_episodes(config, *args, **kwargs):
        if config.protocol == "auction":
            config = dataclasses.replace(config, protocol="auction_skip")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_episode_batch", skip_episodes)
