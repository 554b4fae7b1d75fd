"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import collections
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402


def make_span(sid, start, end, parent=None, name="x", rid=0):
    span = spans.Span(sid, name, parent, rid)
    span.start, span.end = start, end
    return span


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tree = [
        make_span(1, 0.0, 10.0),
        make_span(2, 1.0, 3.0, parent=1),
        make_span(3, 2.0, 5.0, parent=1),     # overlaps its sibling
        make_span(4, 9.0, 12.0, parent=1),    # clipped to the parent's end
        make_span(5, 1.5, 2.5, parent=2),     # a grandchild
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_self_times_of_a_properly_nested_tree_sum_to_the_top_level_time():
    tree = [
        make_span(1, 0.0, 4.0, name="a"),
        make_span(2, 0.5, 1.5, parent=1, name="b"),
        make_span(3, 2.0, 3.5, parent=1, name="c"),
        make_span(4, 2.5, 3.0, parent=3, name="b"),
        make_span(5, 5.0, 6.0, name="a"),
    ]
    seconds, _ = spans.layer_totals(tree)
    assert sum(seconds.values()) == pytest.approx(spans.top_level_seconds(tree))
    assert seconds == pytest.approx({"a": 2.5, "b": 1.5, "c": 1.0})


def test_layer_metrics_are_per_operation_and_zero_for_idle_layers():
    lex = make_span(1, 0.0, 2.0, name="lang.lex")
    lex.counts = {"tokens": 1000}
    metrics = spans.layer_metrics([lex], ops=2)
    assert metrics["lang.lex_s"] == pytest.approx(1.0)
    assert metrics["lang.tokens"] == pytest.approx(500)
    assert metrics["lang.tokens_per_s"] == pytest.approx(500)
    assert metrics["incremental.load_s"] == 0.0
    assert metrics["filter.drop_ratio"] == 0.0


# -- tail percentile ---------------------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert spans.tail([1.0] * 10) is None


@pytest.mark.parametrize("n, percentile, value", [(11, 100 / 11, 1.0),
                                                  (20, 50.0, 10.0),
                                                  (100, 90.0, 90.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile, value):
    values = [float(i) for i in range(n, 0, -1)]
    got_percentile, got_value = spans.tail(values)
    assert got_percentile == pytest.approx(percentile)
    assert got_value == value
    assert sum(v > got_value for v in values) == 10


# -- seeded inputs --------------------------------------------------------------------


def test_same_seed_gives_byte_identical_tree_and_schedule():
    first = inputs.make_corpus("tencentos", 7).compiled_sources()
    again = inputs.make_corpus("tencentos", 7).compiled_sources()
    assert first == again
    assert inputs.schedule(first, 7) == inputs.schedule(again, 7)
    other = inputs.make_corpus("tencentos", 8).compiled_sources()
    assert other != first
    assert inputs.schedule(first, 8) != inputs.schedule(first, 7)


def test_default_seed_is_the_profile_seed():
    from repro.corpus import PROFILES_BY_NAME, generate

    profile = PROFILES_BY_NAME["tencentos"].scaled(1.0)
    assert (inputs.make_corpus("tencentos", None).compiled_sources()
            == generate(profile).compiled_sources())


def test_schedule_mix_replays_and_reverts_take_their_intended_path():
    sources = inputs.make_corpus("tencentos", None).compiled_sources()
    plan = inputs.schedule(sources, 3, length=200)
    warm = inputs.warmup_length(plan)
    assert warm % len(inputs.CYCLE) == 0
    cycles = (200 - warm) // len(inputs.CYCLE)
    assert [r.cls for r in plan[warm:warm + cycles * len(inputs.CYCLE)]] == list(inputs.CYCLE) * cycles
    memo = collections.OrderedDict(root=None)
    edits = set()
    for index, request in enumerate(plan):
        if request.cls == "edit":
            assert request.state not in edits and request.state not in memo
            edits.add(request.state)
        elif request.cls == "replay":
            assert request[1:] == plan[index - 1][1:]
        else:
            assert request.state not in memo
        memo[request.state] = None
        memo.move_to_end(request.state)
        while len(memo) > inputs.MEMO_SIZE:
            memo.popitem(last=False)
    assert any(r.cls == "revert" and r.state == "root" for r in plan)


def test_edits_change_one_line_and_compile():
    from repro.lang import compile_program

    sources = dict(inputs.make_corpus("tencentos", None).compiled_sources())
    plan = inputs.schedule(list(sources.items()), 5, length=40)
    for request in plan:
        overlay = inputs.state_overlay(sources, request)
        if overlay is None:
            continue
        (path, text), = overlay.items()
        before, after = sources[path].split("\n"), text.split("\n")
        assert len(before) == len(after)
        assert sum(a != b for a, b in zip(before, after)) == 1
        compile_program([(path, text)])


# -- wrappers ---------------------------------------------------------------------------


BUGGY = """
struct s { int v; };
int f(struct s *p) {
    if (!p) {
        return p->v;
    }
    return 0;
}
int g(struct s *q) { if (q) return q->v; return 1; }
"""


@pytest.fixture
def traced():
    tracer = spans.Tracer()
    undo = tracer.install(spans.PATCHES)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def test_wrappers_keep_isinstance_checks_and_reports(traced):
    from repro.cli import check_output_text
    from repro.incremental.engine import IncrementalContext
    from repro.presolve import RelevancePreAnalysis
    from repro.serve import Session

    assert isinstance(RelevancePreAnalysis, type)
    assert isinstance(IncrementalContext, type)
    sources = [("a.c", BUGGY)]
    first = Session(checker_spec="all").analyze(sources)
    names = {span.name for span in traced.spans}
    assert {"serve.session", "incremental.commit", "presolve", "core.explore",
            "lang.lex", "lang.parse", "lang.lower"} <= names
    presolve = next(s for s in traced.spans if s.name == "presolve" and s.counts)
    assert presolve.counts["analyzed"] >= 1
    # IncrementalContext.commit ran isinstance(relevance,
    # RelevancePreAnalysis) above; a class replaced by a wrapper function
    # would have raised TypeError there.  The cache tier still works:
    session = Session(checker_spec="all")
    session.analyze(sources)
    session._memo.clear()
    rerun = session.analyze(sources)
    assert rerun.stats.entries_reanalyzed == 0
    assert check_output_text(first) == check_output_text(rerun)


def test_wrapped_run_matches_unwrapped_run():
    from repro import PATA, AnalysisConfig
    from repro.cli import check_output_text

    def run():
        return check_output_text(PATA(config=AnalysisConfig(), checker_spec="all")
                                 .analyze_sources([("a.c", BUGGY)]))

    plain = run()
    tracer = spans.Tracer()
    undo = tracer.install(spans.PATCHES)
    try:
        wrapped = run()
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    assert wrapped == plain
    assert all(s.parent is None or s.parent < s.sid for s in tracer.spans)


# -- processes -----------------------------------------------------------------------


def test_spawned_child_reports_its_own_peak_rss(tmp_path):
    import run

    ballast = bytearray(96 << 20)  # lift this process's high-water RSS
    ballast[::4096] = b"\1" * len(ballast[::4096])
    child = run.Child([sys.executable, "-I", "-S", "-c", "pass"], tmp_path,
                      None, None, tmp_path / "result.json")
    assert child.wait(30.0)
    assert child.returncode == 0
    assert 0 < child.seconds < 30.0
    # a bare interpreter peaks near 10 MB; its ru_maxrss, had it been
    # spawned from here, would be at least this process's ~100 MB
    assert 0 < child.maxrss_mb < 48
    del ballast
