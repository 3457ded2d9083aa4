import pytest

from delsub import (
    SCENARIOS,
    apply_del_sub,
    classify_case,
    is_codeword,
    params_of,
    predicted_suffix_profile,
    replay,
    sign_segments_ok,
    suffix_diff,
)
from oracles import vt_syndrome


def test_three_scenarios_bundled():
    assert len(SCENARIOS) == 3
    assert [s.case for s in SCENARIOS] == ["i", "ii", "iii"]


@pytest.mark.parametrize("s", SCENARIOS, ids=lambda s: s.name)
def test_corruptions_reach_the_received_word(s):
    assert apply_del_sub(s.x, s.witness1) == s.received
    assert apply_del_sub(s.x_prime, s.witness2) == s.received


@pytest.mark.parametrize("s", SCENARIOS, ids=lambda s: s.name)
def test_difference_vectors_are_frozen(s):
    assert suffix_diff(s.x, s.x_prime) == s.u


@pytest.mark.parametrize("s", SCENARIOS, ids=lambda s: s.name)
def test_closed_form_profile_matches(s):
    assert classify_case(s.witness1.d, s.witness1.e, s.witness2.d, s.witness2.e) == s.case
    assert predicted_suffix_profile(s.x, s.x_prime, s.witness1, s.witness2) == s.u


@pytest.mark.parametrize("s", SCENARIOS, ids=lambda s: s.name)
def test_sign_split_and_magnitude_claims(s):
    breakpoints = [] if s.split_point is None else [s.split_point]
    assert sign_segments_ok(s.u, breakpoints)
    assert max(abs(v) for v in s.u) == s.max_abs_u


def test_first_scenario_words_sit_in_different_classes():
    s = SCENARIOS[0]
    assert vt_syndrome(s.x, 1) == 72
    assert vt_syndrome(s.x_prime, 1) == 73
    assert not is_codeword(s.x_prime, params_of(s.x))


def test_replay_is_clean():
    checks = replay()
    assert [c.name for c in checks] == [s.name for s in SCENARIOS]
    for check in checks:
        assert check.ok, check.failures
        assert check.failures == []


def test_replay_catches_tampering(monkeypatch):
    import delsub.scenarios as scenarios_module

    broken = SCENARIOS[0].__class__(
        **{
            **SCENARIOS[0].__dict__,
            "u": tuple(-v for v in SCENARIOS[0].u),
            "split_point": None,
        }
    )
    monkeypatch.setattr(scenarios_module, "SCENARIOS", (broken,))
    checks = scenarios_module.replay()
    assert not checks[0].ok
    assert checks[0].failures
