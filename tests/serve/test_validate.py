"""The shared spec validator: every generator spec passes; malformed
documents fail with field-level paths instead of deep compiler errors."""

import pytest

from repro.errors import PatternError
from repro.fuzz import (InvalidSpecError, build_program, check_spec,
                        gen_spec, validate_spec)
from repro.fuzz.shrink import _candidates

GOOD = {"version": 1, "seed": 1, "n": 48,
        "steps": [{"kind": "map", "reads": 1, "depth": 1,
                   "expr_seed": 2, "data_seed": 3, "par": 4}]}


def test_generated_specs_all_validate():
    for seed in range(40):
        spec = gen_spec(seed)
        assert validate_spec(spec) == [], f"seed {seed}"


def test_shrink_candidates_stay_valid():
    """Every shrinker mutation of a valid spec remains schema-valid."""
    for seed in (0, 7, 23):
        spec = gen_spec(seed)
        for cand in _candidates(spec):
            assert validate_spec(cand) == [], cand


def test_valid_spec_passes_and_builds():
    check_spec(GOOD)
    program, outputs = build_program(GOOD)
    assert outputs == ["out0"]


@pytest.mark.parametrize("mutate, path_fragment", [
    (lambda s: s.update(version=9), "version"),
    (lambda s: s.update(n=0), "n"),
    (lambda s: s.update(n="big"), "n"),
    (lambda s: s.pop("steps"), "steps"),
    (lambda s: s.update(steps=[]), "steps"),
    (lambda s: s.update(surprise=1), "surprise"),
    (lambda s: s["steps"][0].update(kind="warp"), "steps[0].kind"),
    (lambda s: s["steps"][0].update(par=0), "steps[0].par"),
    (lambda s: s["steps"][0].update(par=True), "steps[0].par"),
    (lambda s: s["steps"][0].pop("reads"), "steps[0].reads"),
    (lambda s: s["steps"][0].update(typo=1), "steps[0].typo"),
])
def test_field_level_error_paths(mutate, path_fragment):
    import copy
    spec = copy.deepcopy(GOOD)
    mutate(spec)
    errors = validate_spec(spec)
    assert errors, "expected a validation failure"
    assert any(e.path == path_fragment for e in errors), \
        [str(e) for e in errors]


def test_error_collects_multiple_findings():
    spec = {"version": 2, "n": -1, "steps": "nope"}
    errors = validate_spec(spec)
    assert {e.path for e in errors} == {"version", "n", "steps"}


def test_invalid_spec_error_is_a_pattern_error():
    with pytest.raises(PatternError) as excinfo:
        check_spec({"version": 1, "n": 16, "steps": [{"kind": "x"}]})
    assert isinstance(excinfo.value, InvalidSpecError)
    finding = excinfo.value.errors[0].to_dict()
    assert finding["path"] == "steps[0].kind"
    assert "message" in finding


def test_scatter_bijection_is_enforced():
    spec = {"version": 1, "seed": 0, "n": 16, "steps": [
        {"kind": "scatter", "m": 32, "stride": 4, "offset": 0,
         "depth": 1, "expr_seed": 1, "data_seed": 2}]}
    errors = validate_spec(spec)
    assert any("coprime" in e.message for e in errors)
    spec["steps"][0]["stride"] = 5
    assert validate_spec(spec) == []


def test_build_program_rejects_before_the_compiler_sees_it():
    spec = {"version": 1, "seed": 0, "n": 16,
            "steps": [{"kind": "map", "reads": 1, "depth": 1,
                       "expr_seed": 1, "data_seed": 2, "par": -4}]}
    with pytest.raises(InvalidSpecError, match=r"steps\[0\].par"):
        build_program(spec)
