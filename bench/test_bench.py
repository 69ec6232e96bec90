"""Self-tests for the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py
"""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pace  # noqa: E402
import spinframes.composite  # noqa: E402
import workloads  # noqa: E402
from spinframes import TwiceSpin, cli  # noqa: E402
from stats import (  # noqa: E402
    HEADROOM_CAP,
    Checks,
    blocked_tail,
    headroom,
    quartile_spread,
    round_median,
    self_times,
    tail_latency,
)
from tracing import COUNTED, ROOT, SPANNED, SpanSummary, Tracer  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    tail = tail_latency(samples)
    assert tail.value == 90
    assert sum(1 for x in samples if x > tail.value) == 10
    assert tail.percentile == 90.0
    assert (tail.samples, tail.beyond) == (100, 10)


def test_tail_at_the_edge_and_below_it():
    assert tail_latency(list(range(11))).value == 0
    short = tail_latency([3.0, 1.0, 2.0])
    assert short.value == 3.0 and short.beyond == 0 and short.percentile == 100.0
    with pytest.raises(ValueError):
        tail_latency([])


def test_blocked_tail_sits_at_a_fixed_percentile():
    # rounds of 7 ops; a block is 15 rounds = 105 ops, so p90.48
    rounds = [[float(k) for k in range(7)] for _ in range(150)]
    tail = blocked_tail(rounds, block_ops=100)
    assert (tail.samples, tail.blocks, tail.beyond) == (105, 10, 10)
    assert tail.percentile == pytest.approx(100 * 95 / 105)
    assert tail.value == 6.0  # the 11th largest of 15 sixes
    rounds[0][6] = rounds[20][6] = 1e9  # one outlier per block cannot move it
    assert blocked_tail(rounds, block_ops=100).value == 6.0
    for r in rounds[90:]:  # nor can four slower blocks
        r[:] = [2 * x for x in r]
    assert blocked_tail(rounds, block_ops=100).value == 6.0
    short = blocked_tail(rounds[:3], block_ops=100)  # fewer rounds than a block
    assert (short.samples, short.blocks) == (21, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild, inside the child
        (5.0, 9.0, 0),  # second child
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0  # self times tile the root


def test_span_summary_unattributed_share():
    tracer = Tracer()
    tracer.spans = [
        [ROOT, 0.0, 10.0, -1, 0, None],
        ["states.x", 1.0, 4.0, 0, 0, None],
        ["wigner.wigner_D", 2.0, 3.0, 1, 0, 4],
        [ROOT, 10.0, 20.0, -1, 1, None],
        ["states.x", 10.0, 19.0, 3, 1, None],
    ]
    summary = SpanSummary(tracer)
    assert summary.ops == 2 and summary.op_s == 20.0
    assert summary.unattributed_share == pytest.approx(8.0 / 20.0)
    assert summary.layer("states.") == (2, pytest.approx(11.0))
    assert summary.notes["wigner.wigner_D"] == [(4, 1.0)]


def test_headroom_cap_and_failures():
    assert headroom(1e-9, 0.0) == HEADROOM_CAP
    assert headroom(1e-12, 1e-40) == HEADROOM_CAP
    assert headroom(1e-9, 1e-12) == pytest.approx(3.0)
    assert headroom(1e-12, 1e-11) == pytest.approx(-1.0)
    assert headroom(1e-9, math.nan) == -HEADROOM_CAP
    checks = Checks()
    checks.within(math.nan, 1e-9, "nan residual")
    assert checks.failures and checks.headroom == -HEADROOM_CAP


def test_round_median_is_the_median_of_round_medians():
    fast = [[1.0, 2.0, 3.0]] * 6
    slowed = [[2.0, 4.0, 6.0]] * 5
    assert round_median(fast + slowed) == 2.0
    assert round_median([[1.0, 5.0, 9.0]]) == 5.0
    assert quartile_spread([1.0] * 10) == 0.0


def test_pace_scale_takes_times_to_the_reference_pace():
    # a machine running at half the reference pace takes twice the time
    slow = [2 * pace.REFERENCE_S, 2 * pace.REFERENCE_S, 9 * pace.REFERENCE_S]
    assert pace.scale(slow) == pytest.approx(0.5)
    assert pace.scale([pace.REFERENCE_S]) == 1.0
    assert pace.probe() > 0.0


def test_tracer_wraps_cross_layer_names_and_restores_them():
    original = spinframes.composite.wigner_D
    tracer = Tracer()
    tracer.install(SPANNED, COUNTED)
    try:
        assert spinframes.composite.wigner_D is not original
        from spinframes import IDENTITY, FrameTag, ParticleDescriptor, Vec3
        from spinframes import assemble_pair_canonical_orderfree, project_composite

        s = TwiceSpin(1)
        da = ParticleDescriptor("a", Vec3(1.0, 0.0, 1.0), s, s.component(1),
                                FrameTag.CANONICAL, IDENTITY)
        db = ParticleDescriptor("b", Vec3(-1.0, 0.0, 1.0), s, s.component(-1),
                                FrameTag.CANONICAL, IDENTITY)
        root = tracer.begin(ROOT)
        state = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
        project_composite(state, 1)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert spinframes.composite.wigner_D is original
    names = [span[0] for span in tracer.spans]
    assert "composite.project_composite" in names
    assert "wigner.CGTable" in names
    proj = names.index("composite.project_composite")
    children = [s[0] for s in tracer.spans if s[3] == proj]
    assert children.count("wigner.wigner_D") == 2 and "wigner.CGTable" in children
    summary = SpanSummary(tracer)
    assert summary.unattributed_share < 0.5


@pytest.mark.parametrize("name", ["rotate-highspin", "pairs-desk", "proofs"])
def test_library_workload_warmup_passes(name):
    workload = workloads.make(name, Path("src"))
    inputs = workload.warmup_inputs(random.Random("warmup-1"))
    assert inputs == workload.warmup_inputs(random.Random("warmup-1"))
    for inp in inputs:
        checks = Checks()
        workload.op(inp, checks)
        assert checks.failures == []
        assert checks.headroom > 0


def test_cli_claims_match_in_process_reports():
    import contextlib
    import io

    rounds = workloads.CliReports(Path("src")).make_round(random.Random(7))
    assert sorted(argv[0] for argv in rounds) == [
        "dmatrix", "exchange", "exclusion", "frames", "impossibility",
    ]
    for argv in rounds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(argv)) == 0
        assert workloads._claims_hold(argv, buf.getvalue()), argv
    assert not workloads._claims_hold(
        ["exclusion", "--s2", "3"], "allowed_S2: 0 2 4\n"
    )


def test_parity_sign():
    assert [workloads.parity_sign(k) for k in range(-2, 3)] == [1, -1, 1, -1, 1]
