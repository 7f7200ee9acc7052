"""Tests for the tracing/profiling layer (:mod:`repro.obs`).

Covers the ISSUE 2 acceptance points: span nesting/ordering, IOStats
delta correctness against raw (observer-counted) page reads, the no-op
tracer changing nothing about an untraced query, JSONL round-tripping
through the provided loader, and the ``explain`` CLI golden output.
"""

from __future__ import annotations

import copy
import io
import json
import random
import re

import numpy as np
import pytest

from repro import bulk_load, k_closest_pairs
from repro.core.api import CPQRequest
from repro.cli import main
from repro.datasets.io import save_points
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    load_trace_jsonl,
    render_trace,
    write_trace_jsonl,
)
from repro.service import CPQRequest as ServiceRequest
from repro.service import QueryService


@pytest.fixture(scope="module")
def trees():
    rng = random.Random(0xCAFE)
    tree_p = bulk_load([(rng.random(), rng.random()) for __ in range(600)])
    tree_q = bulk_load([(rng.random(), rng.random()) for __ in range(550)])
    return tree_p, tree_q


# ---------------------------------------------------------------------------
# Span mechanics
# ---------------------------------------------------------------------------

class TestSpanNesting:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("first") as first:
                with tracer.span("inner"):
                    tracer.add("ticks", 2)
            with tracer.span("second"):
                pass
            assert tracer.current() is root
        assert tracer.current() is None
        (trace,) = tracer.traces()
        assert trace is root
        assert [s.name for s in trace.children] == ["first", "second"]
        assert [s.name for s in trace.walk()] == [
            "root", "first", "inner", "second",
        ]
        inner = trace.find("inner")
        assert inner.parent_id == first.span_id
        assert inner.attrs == {"ticks": 2}

    def test_durations_and_offsets_monotone(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (trace,) = tracer.traces()
        a, b = trace.children
        assert trace.duration_ms >= a.duration_ms
        assert b.offset_ms >= a.offset_ms >= 0.0

    def test_counters_accumulate_and_annotate_overwrites(self):
        span = Span("s")
        span.add("n", 3)
        span.add("n", 4)
        span.annotate(label="x")
        span.annotate(label="y")
        assert span.attrs == {"n": 7, "label": "y"}

    def test_total_and_leaves(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            root.add("io", 1)
            with tracer.span("child") as child:
                child.add("io", 2)
        (trace,) = tracer.traces()
        assert trace.total("io") == 3
        assert [s.name for s in trace.leaves()] == ["child"]

    def test_max_traces_bound(self):
        tracer = Tracer(max_traces=2)
        for i in range(5):
            with tracer.span(f"t{i}"):
                pass
        assert [t.name for t in tracer.traces()] == ["t3", "t4"]

    def test_threads_do_not_share_span_stacks(self):
        import threading

        tracer = Tracer()
        seen = {}

        def work(name):
            with tracer.span(name):
                seen[name] = tracer.current().name

        with tracer.span("main"):
            thread = threading.Thread(target=work, args=("worker",))
            thread.start()
            thread.join()
            assert tracer.current().name == "main"
        # The worker's span was a root of its own, not a child of main.
        assert seen["worker"] == "worker"
        names = sorted(t.name for t in tracer.traces())
        assert names == ["main", "worker"]


# ---------------------------------------------------------------------------
# Traced queries: I/O attribution
# ---------------------------------------------------------------------------

class TestTracedQuery:
    @pytest.mark.parametrize("algorithm", ["exh", "sim", "std", "heap"])
    def test_io_leaf_deltas_match_query_stats(self, trees, algorithm):
        tree_p, tree_q = trees
        tracer = Tracer()
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=3, algorithm=algorithm, buffer_pages=32),
            tracer=tracer,
        )
        (trace,) = tracer.pop_traces()
        leaf_reads = sum(
            span.attrs.get("disk_reads", 0) for span in trace.leaves()
        )
        leaf_hits = sum(
            span.attrs.get("buffer_hits", 0) for span in trace.leaves()
        )
        assert leaf_reads == result.stats.disk_accesses
        assert leaf_hits == result.stats.buffer_hits

    def test_observer_counts_vs_iostats_delta(self, trees):
        """The buffer observer's raw per-read counts agree with the
        IOStats delta-snapshots, minus exactly the two root reads done
        during query setup (before the traversal collectors start)."""
        tree_p, tree_q = trees
        tracer = Tracer()
        k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=2, algorithm="heap", buffer_pages=16),
            tracer=tracer,
        )
        (trace,) = tracer.pop_traces()
        for label in ("io.p", "io.q"):
            span = trace.find(label)
            assert span is not None
            assert span.attrs["observed_reads"] == span.attrs["reads"] - 1
            assert span.attrs["distinct_pages"] <= span.attrs["reads"]

    def test_traverse_counters_present(self, trees):
        tree_p, tree_q = trees
        tracer = Tracer()
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=2, algorithm="heap"),
            tracer=tracer,
        )
        (trace,) = tracer.pop_traces()
        traverse = trace.find("traverse")
        assert traverse.attrs["algorithm"] == "HEAP"
        assert (traverse.attrs["node_pairs_visited"]
                == result.stats.node_pairs_visited)
        assert traverse.attrs["pairs_pruned_minmin"] >= 0
        heap_span = trace.find("heap")
        assert heap_span.attrs["inserts"] == result.stats.queue_inserts
        assert heap_span.attrs["max_size"] == result.stats.max_queue_size
        assert heap_span.attrs["pops"] <= heap_span.attrs["inserts"] + 1

    def test_std_annotates_sort_and_ties(self, trees):
        tree_p, tree_q = trees
        tracer = Tracer()
        k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=2, algorithm="std"),
            tracer=tracer,
        )
        (trace,) = tracer.pop_traces()
        traverse = trace.find("traverse")
        assert "TieBreak" in traverse.attrs["tie_break"]
        assert traverse.attrs["sorts"] >= 1


# ---------------------------------------------------------------------------
# The no-op tracer changes nothing
# ---------------------------------------------------------------------------

class TestNoopTracer:
    def test_default_is_null_tracer(self, trees):
        from repro.core.engine import CPQContext

        tree_p, tree_q = trees
        ctx = CPQContext(tree_p, tree_q, k=1)
        assert ctx.tracer is NULL_TRACER
        assert not ctx.tracer.enabled

    def test_untraced_query_leaves_no_observer(self):
        rng = random.Random(5)
        tree_p = bulk_load([(rng.random(), rng.random())
                            for __ in range(100)])
        tree_q = bulk_load([(rng.random(), rng.random())
                            for __ in range(100)])
        k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=1, algorithm="heap"),
        )
        assert tree_p.file.buffer.on_read is None
        assert tree_q.file.buffer.on_read is None

    def test_identical_results_and_stats_with_and_without_tracer(
        self, trees
    ):
        tree_p, tree_q = trees
        plain = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=5, algorithm="std", buffer_pages=32),
        )
        traced = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=5, algorithm="std", buffer_pages=32),
            tracer=Tracer(),
        )
        assert plain.pairs == traced.pairs
        for field in ("disk_accesses", "buffer_hits",
                      "distance_computations", "node_pairs_visited",
                      "max_queue_size", "queue_inserts"):
            assert (getattr(plain.stats, field)
                    == getattr(traced.stats, field)), field

    def test_null_tracer_api_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything") as span:
            span.add("x", 1)
            span.annotate(y=2)
            tracer.add("z")
            tracer.annotate(w=3)
        assert span.attrs == {}
        assert tracer.traces() == []
        assert tracer.pop_traces() == []
        assert tracer.current() is None


# ---------------------------------------------------------------------------
# JSONL export round-trip
# ---------------------------------------------------------------------------

class TestJsonlRoundTrip:
    def build_trace(self):
        tracer = Tracer()
        with tracer.span("request", kind="cpq", pair="default") as root:
            with tracer.span("plan") as plan:
                plan.annotate(algorithm="heap", estimated_accesses=12.5)
            with tracer.span("traverse", algorithm="HEAP", k=3):
                tracer.add("node_pairs_visited", 7)
                with tracer.span("io.p") as io_span:
                    io_span.annotate(disk_reads=4, buffer_hits=2, reads=6)
        del root
        return tracer.pop_traces()

    def test_round_trip_preserves_structure_and_attrs(self, tmp_path):
        traces = self.build_trace()
        path = str(tmp_path / "trace.jsonl")
        lines = write_trace_jsonl(path, traces)
        assert lines == 4
        loaded = load_trace_jsonl(path)
        assert len(loaded) == len(traces) == 1
        original, restored = traces[0], loaded[0]
        assert ([s.name for s in original.walk()]
                == [s.name for s in restored.walk()])
        assert ([s.attrs for s in original.walk()]
                == [s.attrs for s in restored.walk()])
        assert ([s.parent_id for s in original.walk()]
                == [s.parent_id for s in restored.walk()])
        for old, new in zip(original.walk(), restored.walk()):
            assert new.duration_ms == pytest.approx(
                old.duration_ms, abs=1e-3
            )

    def test_lines_are_plain_json_objects(self):
        traces = self.build_trace()
        sink = io.StringIO()
        write_trace_jsonl(sink, traces)
        sink.seek(0)
        records = [json.loads(line) for line in sink if line.strip()]
        assert all(r["trace"] == records[0]["span"] for r in records)
        assert records[0]["parent"] is None
        assert {r["name"] for r in records} == {
            "request", "plan", "traverse", "io.p",
        }

    def test_loader_rejects_orphan_spans(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps({
            "trace": 1, "span": 2, "parent": 99, "name": "orphan",
            "offset_ms": 0, "duration_ms": 0, "attrs": {},
        }) + "\n")
        with pytest.raises(ValueError, match="unknown parent"):
            load_trace_jsonl(str(path))


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------

class TestServiceTracing:
    def test_request_trace_and_metrics_rollup(self, trees):
        tree_p, tree_q = trees
        tracer = Tracer()
        with QueryService(workers=1, tracer=tracer) as service:
            service.register_pair("default", tree_p, tree_q)
            response = service.execute(ServiceRequest(pair="default", k=2))
            assert response.ok
            cached = service.execute(ServiceRequest(pair="default", k=2))
            assert cached.cached
            snapshot = service.snapshot()
        first, second = tracer.pop_traces()
        assert [s.name for s in first.walk()] == [
            "request", "plan", "traverse", "heap", "io.p", "io.q",
        ]
        assert first.attrs["status"] == "ok"
        # Cache hits skip planning and traversal entirely.
        assert [s.name for s in second.walk()] == ["request"]
        assert second.attrs["cached"] is True
        rollup = snapshot["spans"]
        assert rollup["request"]["count"] == 2
        assert rollup["traverse"]["count"] == 1
        assert rollup["plan"]["count"] == 1

    def test_untraced_service_snapshot_has_empty_rollup(self, trees):
        tree_p, tree_q = trees
        with QueryService(workers=1) as service:
            service.register_pair("default", tree_p, tree_q)
            assert service.execute(ServiceRequest(pair="default", k=1)).ok
            snapshot = service.snapshot()
        assert snapshot["spans"] == {}


# ---------------------------------------------------------------------------
# CLI `explain`
# ---------------------------------------------------------------------------

GOLDEN_EXPLAIN = """\
request  kind=cpq k=N algorithm=HEAP pairs=N
|-- plan  algorithm=heap reason=R estimated_accesses=N \
estimated_distance=N buffer_pages=N heights="[3, 3]" k=N workers=N \
estimated_speedup=N
`-- traverse  algorithm=HEAP k=N tie_break=TieBreak(T1) \
height_strategy=fix-at-root candidates_generated=N \
pairs_pruned_minmin=N node_pairs_visited=N distance_computations=N
    |-- heap  inserts=N pops=N max_size=N leftover=N
    |-- io.p  disk_reads=N buffer_hits=N reads=N observed_reads=N \
observed_disk_reads=N distinct_pages=N
    `-- io.q  disk_reads=N buffer_hits=N reads=N observed_reads=N \
observed_disk_reads=N distinct_pages=N"""


def _normalise(tree_text: str) -> str:
    text = re.sub(r'reason="[^"]*"', "reason=R", tree_text)
    text = re.sub(r"=-?\d+(\.\d+)?(e-?\d+)?", "=N", text)
    return text


class TestExplainCli:
    @pytest.fixture(scope="class")
    def point_files(self, tmp_path_factory):
        rng = np.random.default_rng(23)
        directory = tmp_path_factory.mktemp("explain")
        left = directory / "left.npy"
        right = directory / "right.npy"
        save_points(str(left), rng.random((400, 2)))
        save_points(str(right), rng.random((380, 2)))
        return str(left), str(right)

    def run_explain(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    def test_golden_span_tree(self, point_files, capsys):
        left, right = point_files
        out = self.run_explain(capsys, [
            "explain", left, right, "--k", "3", "--buffer", "16",
            "--no-times",
        ])
        tree_text = out.split("\n\n", 1)[1].rsplit("\n#", 1)[0]
        assert _normalise(tree_text) == GOLDEN_EXPLAIN

    def test_leaf_reads_sum_to_reported_disk_accesses(
        self, point_files, capsys
    ):
        left, right = point_files
        out = self.run_explain(capsys, [
            "explain", left, right, "--k", "2", "--algorithm", "std",
            "--buffer", "8", "--no-times",
        ])
        reported = int(
            re.search(r"# STD: (\d+) disk accesses", out).group(1)
        )
        leaf_reads = [
            int(m) for m in re.findall(r"io\.[pq].*?disk_reads=(\d+)", out)
        ]
        assert len(leaf_reads) == 2
        assert sum(leaf_reads) == reported

    def test_trace_file_round_trips_through_loader(
        self, point_files, capsys, tmp_path
    ):
        left, right = point_files
        trace_path = str(tmp_path / "explain.jsonl")
        self.run_explain(capsys, [
            "explain", left, right, "--k", "2", "--trace", trace_path,
        ])
        (trace,) = load_trace_jsonl(trace_path)
        assert trace.name == "request"
        names = [s.name for s in trace.walk()]
        assert "traverse" in names and "io.p" in names
        # Rendering the reloaded trace works too.
        assert "traverse" in render_trace(trace)


class TestParallelNoTimes:
    """``--no-times`` output of a parallel query is deterministic.

    Workers share a tightening bound, so how the work splits between
    them -- and so every work and I/O count -- varies from run to run.
    """

    def _traced(self, trees):
        tracer = Tracer()
        k_closest_pairs(*trees, request=CPQRequest(
            k=5, algorithm="heap", workers=2), tracer=tracer)
        return tracer.pop_traces()[-1]

    def test_other_worker_split_renders_identically(self, trees):
        first = self._traced(trees)
        second = copy.deepcopy(first)
        one, two = second.find_all("worker")
        # Another split: the workers trade their shares and the
        # totals move with the pruning.
        for key in one.timed:
            one.attrs[key], two.attrs[key] = two.attrs[key], one.attrs[key]
        second.find("traverse").attrs["node_pairs_visited"] += 3
        for name in ("io.p", "io.q"):
            second.find(name).attrs["disk_reads"] += 2
        assert render_trace(second) != render_trace(first)
        text = render_trace(first, show_durations=False)
        assert render_trace(second, show_durations=False) == text
        assert "worker  worker=0\n" in text + "\n"
        assert "workers=2" in text

    def test_serial_trace_marks_nothing_timed(self, trees):
        tracer = Tracer()
        k_closest_pairs(*trees, request=CPQRequest(k=5, algorithm="heap"),
                        tracer=tracer)
        trace = tracer.pop_traces()[-1]
        assert all(not span.timed for span in trace.walk())
