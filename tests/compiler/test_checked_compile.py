"""Every compile is held to the checks a decoded artifact passes.

``freeze_lowered`` runs ``check_config`` on the mapping it just made,
so a mapper that breaks a rule fails the compile with a typed
:class:`ConfigError` naming the rule, instead of handing the simulator
a configuration no Plasticine could hold.  The mapper is wrapped here to
break one rule at a time.
"""

import pytest

from repro.apps import get_app
from repro.compiler import artifact
from repro.compiler.artifact import freeze_program
from repro.compiler.place_route import site_kinds
from repro.errors import ConfigError


def _shared_site(config):
    """Move one scratchpad's first site onto another's."""
    kinds = site_kinds(config.params)
    first, second = [name for name, sites in config.sites.items()
                     if kinds[sites[0]] == "pmu"][:2]
    config.sites[second] = (config.sites[first][0],
                            *config.sites[second][1:])


def _pcus_off_by_one(config):
    config.pcus_used += 1


@pytest.mark.parametrize("breaks,rule", [
    (_shared_site, "share site"),
    (_pcus_off_by_one, r"pcus_used=\d+, pmus_used=\d+ but the sites hold"),
], ids=["shared_site", "pcus_used"])
def test_a_bad_mapping_fails_the_compile(monkeypatch, breaks, rule):
    map_program = artifact.map_program

    def breaking(*args, **kwargs):
        config = map_program(*args, **kwargs)
        breaks(config)
        return config

    monkeypatch.setattr(artifact, "map_program", breaking)
    with pytest.raises(ConfigError, match=rule):
        freeze_program(get_app("gemm").build("tiny"), "gemm", "tiny")
