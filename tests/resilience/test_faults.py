"""Fault-injection harness unit tests: determinism, matching, actions."""

import multiprocessing

import pytest

from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    fault_point,
    install_fault_plan,
)


@pytest.fixture(autouse=True)
def _clean_plan():
    install_fault_plan(None)
    yield
    install_fault_plan(None)


class TestFaultRule:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="x", action="explode")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="x", probability=1.5)

    def test_matching(self):
        rule = FaultRule(site="exec.task.pre", indices=(3,), attempts=(0,))
        assert rule.matches("exec.task.pre", None, 3, 0)
        assert not rule.matches("exec.task.pre", None, 3, 1)  # retry exempt
        assert not rule.matches("exec.task.pre", None, 4, 0)
        assert not rule.matches("exec.task.post", None, 3, 0)

    def test_key_matching(self):
        rule = FaultRule(site="io.atomic.truncate", key="manifest.json",
                         action="flag", attempts=None)
        assert rule.matches("io.atomic.truncate", "manifest.json", None, 0)
        assert not rule.matches("io.atomic.truncate", "table2.csv", None, 0)

    def test_attempts_none_matches_every_attempt(self):
        rule = FaultRule(site="s", attempts=None)
        assert all(rule.matches("s", None, 0, a) for a in range(5))


class TestFaultPlan:
    def test_times_caps_firings(self):
        plan = FaultPlan(rules=(
            FaultRule(site="s", action="flag", attempts=None, times=2),
        ))
        fired = [plan.fire("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_probability_is_deterministic(self):
        plan = lambda: FaultPlan(seed=42, rules=(
            FaultRule(site="s", action="flag", attempts=None, probability=0.5),
        ))
        pattern = [plan().fire("s", index=i) is not None for i in range(64)]
        assert pattern == [plan().fire("s", index=i) is not None for i in range(64)]
        assert 0 < sum(pattern) < 64  # thinned, not all-or-nothing

    def test_fire_returns_matching_rule(self):
        rule = FaultRule(site="s", action="delay", param=0.25)
        plan = FaultPlan(rules=(rule,))
        assert plan.fire("s", attempt=0) == rule
        assert plan.fire("s", attempt=1) is None


class TestFaultPoint:
    def test_no_plan_is_noop(self):
        assert fault_point("exec.task.pre", index=0) is False

    def test_uninstall_restores_noop(self):
        install_fault_plan(FaultPlan(rules=(FaultRule(site="s", action="flag",
                                                      attempts=None),)))
        assert fault_point("s") is True
        install_fault_plan(None)
        assert fault_point("s") is False

    def test_fork_child_inherits_installed_plan(self):
        install_fault_plan(FaultPlan(rules=(FaultRule(site="s", action="flag",
                                                      attempts=None),)))
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(fault_point, ("s",)) is True

    def test_raise_action(self):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="raise", indices=(1,)),
        )))
        assert fault_point("exec.task.pre", index=0) is False
        with pytest.raises(FaultInjected) as info:
            fault_point("exec.task.pre", index=1)
        assert info.value.site == "exec.task.pre"

    def test_flag_action(self):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="serve.conn.drop", action="flag",
                      attempts=None, times=1),
        )))
        assert fault_point("serve.conn.drop") is True
        assert fault_point("serve.conn.drop") is False  # times=1 spent

    def test_fault_injected_pickles_cleanly(self):
        import pickle

        exc = FaultInjected("exec.task.post", key="k0")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.site == "exec.task.post" and clone.key == "k0"
        assert str(clone) == str(exc)
