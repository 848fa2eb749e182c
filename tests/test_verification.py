"""Unit tests for shortcut verification."""

from __future__ import annotations

from repro.analysis.experiments import make_workload
from repro.graphs import cycle_graph, path_graph
from repro.shortcuts import (
    Partition,
    Shortcut,
    build_kogan_parter_shortcut,
    is_valid_shortcut,
    verify_shortcut,
)


def make_simple_shortcut():
    g = cycle_graph(10)
    p = Partition(g, [set(range(6))])
    return Shortcut(p, [[]])


class TestVerifyShortcut:
    def test_valid_shortcut_passes(self):
        sc = make_simple_shortcut()
        result = verify_shortcut(sc)
        assert result.valid
        assert result.violations == []
        assert result.dilation == 5
        assert result.congestion == 1

    def test_congestion_budget_violation(self):
        g = cycle_graph(10)
        p = Partition(g, [{0, 1}, {3, 4}, {6, 7}])
        all_edges = list(g.edges())
        sc = Shortcut(p, [all_edges, all_edges, all_edges])
        result = verify_shortcut(sc, max_congestion=2)
        assert not result.valid
        assert any("congestion" in v for v in result.violations)

    def test_dilation_budget_violation(self):
        sc = make_simple_shortcut()
        result = verify_shortcut(sc, max_dilation=3)
        assert not result.valid
        assert any("dilation" in v for v in result.violations)

    def test_disconnected_part_detected(self):
        g = path_graph(6)
        p = Partition(g, [{0, 5}], validate=False)
        sc = Shortcut(p, [[]])
        result = verify_shortcut(sc)
        assert not result.valid
        assert any("disconnected" in v for v in result.violations)

    def test_budgets_satisfied(self):
        sc = make_simple_shortcut()
        result = verify_shortcut(sc, max_congestion=5, max_dilation=10)
        assert result.valid

    def test_approximate_dilation_mode(self):
        sc = make_simple_shortcut()
        result = verify_shortcut(sc, exact_dilation=False)
        assert result.valid
        assert result.dilation <= 5

    def test_sampled_dilation_is_reproducible_from_a_seed(self):
        w = make_workload("hub", 400, 6, seed=2)
        sc = build_kogan_parter_shortcut(w.graph, w.partition, diameter_value=6, rng=2).shortcut
        first = verify_shortcut(sc, exact_dilation=False, rng=11)
        second = verify_shortcut(sc, exact_dilation=False, rng=11)
        assert first.dilation == second.dilation
        assert first.dilation == max(
            sc.part_dilation(i, exact=False, rng=11) for i in range(sc.num_parts)
        )
        assert is_valid_shortcut(sc, exact_dilation=False, rng=11)

    def test_one_kernel_call_and_one_violation_per_disconnected_part(self, monkeypatch):
        g = path_graph(12)
        p = Partition(g, [{0, 2}, {4, 5}, {7, 10}], validate=False)
        sc = Shortcut(p, [[], [], [(7, 8)]])

        def per_part(*args, **kwargs):
            raise AssertionError("verify_shortcut must not loop over part_dilation")

        monkeypatch.setattr(Shortcut, "part_dilation", per_part)
        for exact in (True, False):
            result = verify_shortcut(sc, exact_dilation=exact, rng=3)
            assert result.violations == [
                "part 0 is disconnected inside its augmented subgraph",
                "part 2 is disconnected inside its augmented subgraph",
            ]
            assert result.dilation == float("inf")


class TestIsValidShortcut:
    def test_true_case(self):
        assert is_valid_shortcut(make_simple_shortcut())

    def test_false_case(self):
        assert not is_valid_shortcut(make_simple_shortcut(), max_dilation=2)

    def test_exact_dilation_threaded_through(self):
        # The knob must reach verify_shortcut (the seed wrapper dropped it,
        # so large-instance callers could not opt into the cheap
        # 2-approximation).
        sc = make_simple_shortcut()
        calls = {}
        import repro.shortcuts.verification as verification

        original = verification.verify_shortcut

        def spy(shortcut, **kwargs):
            calls.update(kwargs)
            return original(shortcut, **kwargs)

        verification.verify_shortcut, saved = spy, verification.verify_shortcut
        try:
            assert is_valid_shortcut(sc, exact_dilation=False, rng=7)
        finally:
            verification.verify_shortcut = saved
        assert calls["exact_dilation"] is False
        assert calls["rng"] == 7

    def test_exact_dilation_default_still_exact(self):
        assert is_valid_shortcut(make_simple_shortcut(), exact_dilation=True)
