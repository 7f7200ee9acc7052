"""CLI coverage for the service subcommands (``batch`` and ``serve``)."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.io import save_points


@pytest.fixture(scope="module")
def point_files(tmp_path_factory):
    rng = np.random.default_rng(17)
    directory = tmp_path_factory.mktemp("cli-service")
    left = directory / "left.npy"
    right = directory / "right.npy"
    save_points(str(left), rng.random((120, 2)))
    save_points(str(right), rng.random((110, 2)))
    return str(left), str(right)


def write_jsonl(path, objects):
    with open(path, "w") as handle:
        for obj in objects:
            handle.write(json.dumps(obj) + "\n")


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_batch_mixed_requests(point_files, tmp_path, capsys):
    left, right = point_files
    requests_path = tmp_path / "requests.jsonl"
    out_path = tmp_path / "responses.jsonl"
    stats_path = tmp_path / "stats.json"
    write_jsonl(requests_path, [
        {"op": "cpq", "k": 3},
        {"op": "cpq", "k": 3},  # identical: second wave may hit cache
        {"op": "cpq", "k": 2, "algorithm": "heap"},
        {"op": "knn", "point": [0.5, 0.5], "k": 4},
        {"op": "range", "lo": [0.2, 0.2], "hi": [0.6, 0.6]},
    ])

    code = main([
        "batch", left, right, str(requests_path),
        "--workers", "2",
        "--out", str(out_path),
        "--stats-json", str(stats_path),
    ])
    captured = capsys.readouterr()
    assert code == 0

    responses = read_jsonl(out_path)
    assert len(responses) == 5
    assert all(r["status"] == "ok" for r in responses)

    cpq = responses[0]
    assert cpq["kind"] == "cpq"
    assert len(cpq["pairs"]) == 3
    distances = [p["distance"] for p in cpq["pairs"]]
    assert distances == sorted(distances)
    # Responses stay aligned with request order.
    assert responses[1]["pairs"] == cpq["pairs"]
    assert responses[2]["algorithm"] == "heap"
    assert len(responses[2]["pairs"]) == 2

    knn = responses[3]
    assert knn["kind"] == "knn"
    assert len(knn["neighbors"]) == 4
    nn_distances = [n["distance"] for n in knn["neighbors"]]
    assert nn_distances == sorted(nn_distances)

    rng_resp = responses[4]
    assert rng_resp["kind"] == "range"
    for entry in rng_resp["points"]:
        x, y = entry["point"]
        assert 0.2 <= x <= 0.6 and 0.2 <= y <= 0.6

    assert "# batch: 5 requests" in captured.err
    assert "# serve-stats" in captured.err
    stats = json.loads(stats_path.read_text())
    assert stats["queries"]["submitted"] == 5
    assert stats["queries"]["by_status"]["ok"] == 5
    assert stats["planner"]  # auto requests went through the planner


def test_batch_zero_deadline_reports_structured_status(
    point_files, tmp_path, capsys
):
    left, right = point_files
    requests_path = tmp_path / "requests.jsonl"
    write_jsonl(requests_path, [
        {"op": "cpq", "k": 1, "deadline_ms": 0},
    ])
    code = main(["batch", left, right, str(requests_path),
                 "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 0
    (response,) = [json.loads(line)
                   for line in captured.out.splitlines() if line.strip()]
    assert response["status"] == "deadline_exceeded"
    assert "pairs" not in response
    assert "1 deadline_exceeded" in captured.err


def test_serve_reads_stdin_jsonl(point_files, capsys, monkeypatch):
    left, right = point_files
    lines = "\n".join([
        json.dumps({"op": "cpq", "k": 1}),
        "",  # blank lines are skipped
        "not json at all",
        json.dumps({"op": "nope"}),
        json.dumps({"op": "knn", "point": [0.1, 0.9], "k": 2}),
        json.dumps({"op": "cpq", "algorithm": "heap",
                    "range": {"lo": [float("nan"), 0.0],
                              "hi": [1.0, 1.0]}}),
    ]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))

    code = main(["serve", left, right, "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 0

    responses = [json.loads(line)
                 for line in captured.out.splitlines() if line.strip()]
    assert len(responses) == 5  # blank line dropped
    assert responses[0]["status"] == "ok"
    assert responses[0]["kind"] == "cpq"
    assert responses[1]["status"] == "error"  # bad JSON
    assert "bad request" in responses[1]["error"]
    assert responses[2]["status"] == "error"  # unknown op
    assert responses[3]["status"] == "ok"
    assert len(responses[3]["neighbors"]) == 2
    assert responses[4]["status"] == "error"  # NaN window corner
    assert "finite" in responses[4]["error"]
    assert "# serve-stats" in captured.err


def test_batch_distances_match_direct_query(point_files, tmp_path, capsys):
    """The service path returns the same closest pair as `repro-cpq query`
    would: cross-check against a brute-force scan of the inputs."""
    left, right = point_files
    points_p = np.load(left)
    points_q = np.load(right)
    best = min(
        math.dist(p, q) for p in points_p for q in points_q
    )

    requests_path = tmp_path / "requests.jsonl"
    write_jsonl(requests_path, [{"op": "cpq", "k": 1}])
    code = main(["batch", left, right, str(requests_path)])
    captured = capsys.readouterr()
    assert code == 0
    (response,) = [json.loads(line)
                   for line in captured.out.splitlines() if line.strip()]
    assert response["pairs"][0]["distance"] == pytest.approx(best)


def _query_pairs(output: str):
    """(p, q, distance) rows of ``repro-cpq query`` output."""
    rows = []
    for line in output.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        __, p, q, distance = line.strip().split("  ")
        rows.append((p, q, distance))
    return rows


@pytest.mark.parametrize("fields, query_flags", [
    ({"range": {"lo": [0.1, 0.2], "hi": [0.7, 0.8]}},
     ["--range", "0.1,0.2,0.7,0.8"]),
    ({"range": [[0.1, 0.2], [0.7, 0.8]]},
     ["--range", "0.1,0.2,0.7,0.8"]),
    ({"range": {"lo": [0.1, 0.2], "hi": [0.7, 0.8], "mode": "p"}},
     ["--range", "0.1,0.2,0.7,0.8", "--range-mode", "p"]),
    ({"colors": 3}, ["--colors", "3", "--distinct"]),
    ({"colors": {"modulus": 3, "colors_p": [1], "distinct": False}},
     ["--colors", "3:1"]),
    ({"height_strategy": "fix-at-leaves"}, []),
], ids=["range-dict", "range-pair", "range-mode", "colors-int",
        "colors-dict", "height-strategy"])
def test_batch_line_forms_match_query(
    point_files, tmp_path, capsys, fields, query_flags
):
    """Every accepted JSONL spelling of a cpq request answers exactly
    what `repro-cpq query` answers for the same request."""
    left, right = point_files
    requests_path = tmp_path / "requests.jsonl"
    write_jsonl(requests_path, [
        dict({"op": "cpq", "k": 5, "algorithm": "heap"}, **fields),
    ])
    assert main(["batch", left, right, str(requests_path)]) == 0
    (response,) = [json.loads(line) for line in
                   capsys.readouterr().out.splitlines() if line.strip()]
    assert response["status"] == "ok"

    assert main(["query", left, right, "--k", "5",
                 "--algorithm", "heap", *query_flags]) == 0
    expected = _query_pairs(capsys.readouterr().out)
    assert expected
    assert [
        (str(tuple(p["p"])), str(tuple(p["q"])), f"{p['distance']:.9f}")
        for p in response["pairs"]
    ] == expected
