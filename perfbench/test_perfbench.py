"""Tests of the benchmark's own arithmetic: spans, self time, the tail rule.

Run with ``python3 -m pytest perfbench`` from the checkout root; they need
neither numpy nor reachcert.
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import stats
import tracing


def span(sid, parent, name, start, end, value=0):
    return (sid, parent, name, start, end, value)


class TestCoveredLength:
    def test_disjoint_and_overlapping_intervals_merge(self):
        assert tracing.covered_length([(1, 2), (1.5, 3), (4, 5)], 0, 10) == pytest.approx(3.0)

    def test_nested_interval_counts_once(self):
        assert tracing.covered_length([(1, 5), (2, 3)], 0, 10) == pytest.approx(4.0)

    def test_clipped_to_the_parent(self):
        assert tracing.covered_length([(-1, 1), (9, 12), (20, 30)], 0, 10) == pytest.approx(2.0)

    def test_empty(self):
        assert tracing.covered_length([], 0, 10) == 0.0


class TestSelfTime:
    def test_children_subtract_from_parent_only(self):
        spans = [
            span(1, 0, "outer", 0.0, 10.0),
            span(2, 1, "mid", 1.0, 6.0),
            span(3, 2, "leaf", 2.0, 5.0),
        ]
        selfs = tracing.self_times(spans)
        assert selfs == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0})

    def test_concurrent_children_on_two_threads_are_merged(self):
        # Two workers step at once: the parent was busy only outside the union.
        spans = [
            span(1, 0, "ensemble", 0.0, 10.0),
            span(2, 1, "step", 1.0, 5.0),
            span(3, 1, "step", 2.0, 6.0),
            span(4, 1, "step", 8.0, 9.0),
        ]
        assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_summarize_sums_per_name(self):
        spans = [
            span(1, 0, "run", 0.0, 4.0, 1),
            span(2, 1, "step", 1.0, 2.0, 10),
            span(3, 1, "step", 2.5, 3.0, 20),
            span(4, 0, "run", 5.0, 6.0, 0),
        ]
        s = tracing.summarize(spans)
        assert s["run"]["calls"] == 2
        assert s["run"]["total_s"] == pytest.approx(5.0)
        assert s["run"]["self_s"] == pytest.approx(3.5)
        assert s["run"]["value"] == 1
        assert s["step"] == pytest.approx({"calls": 2, "total_s": 1.5, "self_s": 1.5, "value": 30})

    def test_direct_children_skip_grandchildren(self):
        spans = [
            span(1, 0, "verify", 0.0, 5.0),
            span(2, 1, "drift", 1.0, 2.0, 100),
            span(3, 2, "drift", 1.2, 1.5, 7),
            span(4, 0, "drift", 6.0, 7.0, 50),
        ]
        assert tracing.direct_children(spans, "verify", "drift") == (1, 100)


@pytest.fixture
def fake_package():
    """A package 'fakepkg' whose function is re-exported by a second module."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def step(rows):
        return list(range(rows))

    def fail():
        raise ValueError("boom")

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda k: len(user.step(k)), range(1, n + 1)))

    class Model:
        def values(self, rows):
            return core.step(rows)

    core.step, core.fail, core.Model = step, fail, Model
    user.step, user.fan_out = step, fan_out
    pkg.step = step
    names = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(names)
    yield pkg, core, user
    for n in names:
        sys.modules.pop(n, None)


class TestRecorder:
    def test_every_reference_is_traced_then_restored(self, fake_package):
        pkg, core, user = fake_package
        original = core.step
        rec = tracing.Recorder()
        targets = [tracing.Target(core, "step", "core.step", len)]
        with rec.installed(targets, "fakepkg"):
            assert core.step is not original and user.step is core.step and pkg.step is core.step
            pkg.step(3)
            user.step(5)
        assert core.step is original and user.step is original and pkg.step is original
        assert [(s[2], s[5]) for s in rec.spans] == [("core.step", 3), ("core.step", 5)]
        pkg.step(2)
        assert len(rec.spans) == 2

    def test_nesting_and_methods(self, fake_package):
        _, core, _ = fake_package
        rec = tracing.Recorder()
        targets = [
            tracing.Target(core, "step", "core.step", len),
            tracing.Target(core.Model, "values", "Model.values"),
        ]
        with rec.installed(targets, "fakepkg"):
            core.Model().values(4)
        assert "values" in vars(core.Model) and not hasattr(vars(core.Model)["values"], "__wrapped__")
        outer = next(s for s in rec.spans if s[2] == "Model.values")
        inner = next(s for s in rec.spans if s[2] == "core.step")
        assert outer[1] == 0 and inner[1] == outer[0]
        assert outer[3] <= inner[3] <= inner[4] <= outer[4]

    def test_raising_call_is_recorded_with_zero_value(self, fake_package):
        _, core, _ = fake_package
        rec = tracing.Recorder()
        with rec.installed([tracing.Target(core, "fail", "core.fail", len)], "fakepkg"):
            with pytest.raises(ValueError):
                core.fail()
        assert [(s[2], s[5]) for s in rec.spans] == [("core.fail", 0)]

    def test_worker_thread_spans_take_the_submitting_span_as_parent(self, fake_package):
        _, core, user = fake_package
        rec = tracing.Recorder()
        targets = [
            tracing.Target(core, "step", "core.step", len),
            tracing.Target(user, "fan_out", "user.fan_out"),
        ]
        with rec.installed(targets, "fakepkg"):
            assert user.fan_out(6) == [1, 2, 3, 4, 5, 6]
        fan = next(s for s in rec.spans if s[2] == "user.fan_out")
        steps = [s for s in rec.spans if s[2] == "core.step"]
        assert len(steps) == 6 and all(s[1] == fan[0] for s in steps)
        assert tracing.summarize(rec.spans)["user.fan_out"]["self_s"] >= 0.0

    def test_recorder_created_off_the_main_thread_roots_its_own_spans(self, fake_package):
        _, core, _ = fake_package
        box = {}

        def work():
            rec = tracing.Recorder()
            with rec.installed([tracing.Target(core, "step", "core.step", len)], "fakepkg"):
                core.step(1)
            box["spans"] = rec.spans

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert [s[1] for s in box["spans"]] == [0]


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, percentile, beyond",
        [(20, 50.0, 10), (40, 75.0, 10), (100, 90.0, 10), (200, 95.0, 10), (1000, 99.0, 10), (10_000, 99.9, 10)],
    )
    def test_highest_ladder_step_with_ten_beyond(self, n, percentile, beyond):
        p, value, got_beyond, count = stats.tail_percentile(range(1, n + 1))
        assert (p, got_beyond, count) == (percentile, beyond, n)
        assert value == n - beyond

    def test_too_few_samples(self):
        assert stats.tail_percentile(range(19)) is None
        assert stats.tail_percentile([]) is None

    def test_order_of_samples_does_not_matter(self):
        assert stats.tail_percentile([5, 1, 4, 2, 3] * 8) == stats.tail_percentile(sorted([5, 1, 4, 2, 3] * 8))

    def test_nearest_rank_has_no_float_rounding(self):
        # 99.9 % of 1000 is rank 999 exactly; float arithmetic gives 999.0000000000001.
        assert stats.nearest_rank(list(range(1, 1001)), 999) == (999, 999)
