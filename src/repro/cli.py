"""Command-line interface.

The subcommands cover the library's workflow end to end::

    repro-cpq generate --kind sequoia --n 10000 --out sites.npy
    repro-cpq generate --kind uniform --n 10000 --overlap 0.5 --out q.npy
    repro-cpq build sites.npy --tree sites.pages
    repro-cpq ingest more.npy --tree sites.pages --batch-size 64
    repro-cpq recover --tree sites.pages
    repro-cpq info --tree sites.pages
    repro-cpq query sites.npy q.npy --k 10 --algorithm heap
    repro-cpq explain sites.npy q.npy --k 10 --buffer 64
    repro-cpq batch sites.npy q.npy requests.jsonl --workers 8
    repro-cpq serve sites.npy q.npy --deadline-ms 50 < requests.jsonl
    repro-cpq catalog register parks parks.npy --catalog data/
    repro-cpq sql "SELECT CLOSEST PAIRS K 10 FROM parks, schools" \
        --catalog data/
    repro-cpq figure fig04 --quick

``catalog`` maintains a persisted dataset catalog
(:mod:`repro.catalog`): named datasets with one or more built indexes
(STR-packed, grid-packed, dynamic).  ``query``, ``explain`` and
``serve-net`` accept catalog names wherever they accept files when
``--catalog`` is given; raw path arguments still work one release
longer but warn with ``DeprecationWarning`` and are routed through the
same catalog machinery.  ``sql`` runs CPQL statements
(:mod:`repro.query.cpql`) against a catalog, in-process or against a
``serve-net`` endpoint.  ``explain`` runs the same query traced
(:mod:`repro.obs`) and prints the span tree.  ``batch`` and ``serve``
run JSONL request streams through the concurrent query service
(:mod:`repro.service`); both emit one JSON response per request plus a
serve-stats metrics snapshot, and ``--trace out.jsonl`` records every
request's spans.  Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import List, Optional

from repro.catalog import (
    Catalog,
    meta_path,
    open_tree,
    read_sidecar,
    write_sidecar,
)
from repro.core.api import (
    ALGORITHMS,
    CORE_ALGORITHMS,
    CPQRequest,
    k_closest_pairs,
)
from repro.datasets import (
    UNIT_WORKSPACE,
    load_points,
    overlapping_workspace,
    save_points,
    sequoia_like,
    uniform_points,
)
from repro.errors import CatalogError
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore


def _wal_path(tree_path: str) -> str:
    return tree_path + ".wal"


def _get_catalog(args: argparse.Namespace):
    """The ``--catalog`` flag as a loaded :class:`Catalog`, or None."""
    path = getattr(args, "catalog", None)
    return None if path is None else Catalog(path)


def _deprecate_path_arg(ref: str) -> None:
    warnings.warn(
        f"raw path inputs like {ref!r} are deprecated; register the "
        f"dataset in a catalog (repro-cpq catalog register) and pass "
        f"its name with --catalog.  Path arguments will be removed "
        f"one release from now.",
        DeprecationWarning,
        stacklevel=3,
    )


def _open_input(
    ref: str, catalog, *, use_mmap: bool = False, warn_paths: bool = True
) -> RTree:
    """Resolve one dataset input: catalog name, ``.pages``, or points.

    Catalog names win.  Path arguments are deprecated on the commands
    that pass ``warn_paths=True``; a ``.pages`` path reopens through
    :func:`repro.catalog.open_tree` -- the same single reopen path the
    catalog, the service and the shard workers use -- and a points
    file is bulk-loaded.
    """
    from repro.errors import UnknownDatasetError

    if catalog is not None and ref in catalog:
        return catalog.open_dataset(ref, use_mmap=use_mmap or None)
    if not os.path.exists(ref):
        if catalog is not None:
            raise UnknownDatasetError(ref, tuple(catalog.names()))
        raise FileNotFoundError(f"no such input: {ref}")
    if warn_paths:
        _deprecate_path_arg(ref)
    if ref.endswith(".pages"):
        return open_tree(ref, use_mmap=use_mmap)
    return bulk_load(load_points(ref))


def cmd_generate(args: argparse.Namespace) -> int:
    workspace = UNIT_WORKSPACE
    if args.overlap is not None:
        workspace = overlapping_workspace(UNIT_WORKSPACE, args.overlap)
    if args.kind == "uniform":
        points = uniform_points(
            args.n, workspace, seed=args.seed, grid=args.grid
        )
    else:
        points = sequoia_like(args.n, workspace, seed=args.seed)
    save_points(args.out, points)
    print(f"wrote {len(points)} {args.kind} points to {args.out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    points = load_points(args.points)
    store = FilePageStore(args.tree, 1024)
    tree = bulk_load(points, file=PagedFile(store))
    store.flush()
    write_sidecar(args.tree, tree.metadata())
    store.close()
    print(
        f"built R*-tree over {len(points)} points: height {tree.height}, "
        f"{tree.node_count()} nodes -> {args.tree}"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Stream points into a live tree through WAL-protected batches.

    Opens (or creates) a ``.pages`` tree with live mutation enabled,
    then inserts the input points in batches of ``--batch-size``: each
    batch is one WAL-logged commit and one generation bump.  A normal
    run flushes the page file, rewrites the ``.meta.json`` sidecar at
    the final committed state and checkpoints the WAL (unless
    ``--keep-wal``).  ``--crash-after N`` is the chaos hook: after N
    committed batches it applies part of the next batch and dies via
    ``os._exit`` -- no flush, no commit record -- leaving exactly the
    torn state ``repro-cpq recover`` must replay.
    """
    from repro.rtree.tree import RTreeConfig
    from repro.storage.wal import WriteAheadLog

    points = load_points(args.points)
    pages = args.tree
    if os.path.exists(pages):
        tree = open_tree(pages, use_mmap=args.mmap, readonly=False)
    else:
        tree = RTree(RTreeConfig(), PagedFile(
            FilePageStore(pages, 1024, use_mmap=args.mmap)
        ))
        write_sidecar(pages, tree.metadata())
    store = tree.file.store
    wal = WriteAheadLog(args.wal or _wal_path(pages),
                        sync_mode=args.sync)
    tree.enable_live_mutation(wal)

    start_oid = args.start_oid if args.start_oid is not None else len(tree)
    batches = 0
    inserted = 0
    for offset in range(0, len(points), args.batch_size):
        chunk = points[offset:offset + args.batch_size]
        if args.crash_after is not None and batches >= args.crash_after:
            # Apply part of a batch, then die without COMMIT or flush:
            # the WAL tail ends mid-batch and the page file may hold
            # unflushed copy-on-write pages nothing references.
            from repro.rtree.entries import LeafEntry

            tree._begin_batch()
            for i, point in enumerate(chunk):
                tree._batch_ops += 1
                tree._count += 1
                tree._insert_entry(
                    LeafEntry(tuple(float(v) for v in point),
                              start_oid + inserted + i), 0,
                )
            # Die mid-commit: the batch's WRITE records reach the log
            # but no COMMIT record ever does.
            for page_id in sorted(tree._batch_pages):
                node = tree._nodes.get(page_id)
                if node is not None:
                    wal.log_write(page_id, tree._serialize_node(node))
            wal.sync()
            print(f"# simulating crash mid-batch after {batches} "
                  f"committed batches", file=sys.stderr, flush=True)
            os._exit(1)
        with tree.batch():
            for i, point in enumerate(chunk):
                tree.insert(tuple(float(v) for v in point),
                            start_oid + inserted + i)
        batches += 1
        inserted += len(chunk)

    store.flush()
    write_sidecar(pages, tree.metadata())
    if not args.keep_wal:
        wal.checkpoint()
    wal.close()
    print(f"ingested {inserted} points in {batches} batches -> {pages} "
          f"(generation {tree.generation}, {len(tree)} total)")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Replay a WAL onto a page file after a crash.

    Applies every committed batch, truncates the torn tail, rewrites
    the ``.meta.json`` sidecar at the recovered state and reports what
    was replayed.  Idempotent: re-running recovery replays the same
    committed images onto the same pages.
    """
    from repro.storage.wal import recover_tree

    pages = args.tree
    wal_path = args.wal or _wal_path(pages)
    if not os.path.exists(wal_path):
        print(f"recover: no WAL at {wal_path}", file=sys.stderr)
        return 2
    fallback = (read_sidecar(pages)
                if os.path.exists(meta_path(pages)) else None)
    tree, result = recover_tree(pages, wal_path, use_mmap=args.mmap,
                                fallback_metadata=fallback)
    print(f"# WAL: {result.batches_applied} committed batches replayed, "
          f"{result.pages_written} page images applied, "
          f"{result.discarded_batches} uncommitted discarded, "
          f"torn tail: {'yes' if result.torn else 'no'}")
    if tree is None:
        print("recover: no committed state in the WAL and no "
              ".meta.json fallback", file=sys.stderr)
        return 1
    write_sidecar(pages, tree.metadata())
    print(f"recovered {pages} at generation {tree.generation}: "
          f"{len(tree)} points, height {tree.height}")
    tree.file.store.close()
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    tree = _open_input(args.tree, None, warn_paths=False)
    print(f"tree: {args.tree}")
    print(f"  points:   {len(tree)}")
    print(f"  height:   {tree.height}")
    print(f"  capacity: M={tree.max_entries} m={tree.min_entries}")
    print(f"  variant:  {tree.config.variant}")
    print(f"  generation: {tree.generation}")
    return 0


#: Exit code for a request that names an algorithm lacking a required
#: capability (range/colored queries on an incapable traversal).
#: Distinct from 1 (runtime failure) and 2 (bad invocation) so scripts
#: can tell "pick another algorithm" from "something broke".
EXIT_UNSUPPORTED_CAPABILITY = 3


def _parse_colors_arg(text: Optional[str], distinct: bool):
    """Parse ``--colors "MOD[:P_RESIDUES[:Q_RESIDUES]]"``.

    Examples: ``--colors 4`` (4 categories, no residue filter),
    ``--colors 4:1,3`` (P restricted to categories 1 and 3),
    ``--colors 4:1,3:0,2`` (both sides restricted).  An empty residue
    list (``4::0,2``) leaves that side unrestricted.
    """
    if text is None:
        if distinct:
            raise ValueError("--distinct requires --colors")
        return None
    from repro.core.constraints import ColorSpec

    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(
            f"--colors wants MOD[:P_RESIDUES[:Q_RESIDUES]], got {text!r}"
        )

    def residues(field: Optional[str]):
        if field is None or not field.strip():
            return None
        return tuple(int(x) for x in field.split(",") if x.strip())

    return ColorSpec(
        modulus=int(parts[0]),
        colors_p=residues(parts[1] if len(parts) > 1 else None),
        colors_q=residues(parts[2] if len(parts) > 2 else None),
        distinct=distinct,
    )


def _request_fields(args: argparse.Namespace) -> dict:
    """The :class:`CPQRequest` fields, all but the algorithm, that
    ``query`` and ``explain`` build from their shared flags
    (:func:`_add_cpq_args`).  ``--range`` is ``lo...,hi...``, split by
    :meth:`~repro.core.constraints.RangeSpec.from_corners`."""
    from repro.core.constraints import RangeSpec

    range_spec = None
    if args.range is not None:
        range_spec = RangeSpec.from_corners(
            [float(part) for part in args.range.split(",") if part.strip()],
            args.range_mode,
        )
    return {
        "k": args.k,
        "buffer_pages": args.buffer,
        "workers": args.workers,
        "range": range_spec,
        "colors": _parse_colors_arg(args.colors, args.distinct),
    }


def _open_pair(args: argparse.Namespace, *, use_mmap: bool = False,
               warn_paths: bool = True, split_buffer: bool = False):
    """``args.left`` and ``args.right`` through :func:`_open_input`;
    ``split_buffer`` gives each tree half of ``--buffer``."""
    catalog = _get_catalog(args)
    trees = tuple(
        _open_input(ref, catalog, use_mmap=use_mmap, warn_paths=warn_paths)
        for ref in (args.left, args.right)
    )
    if split_buffer and args.buffer:
        for tree in trees:
            tree.file.set_buffer_capacity(args.buffer // 2)
    return trees


def cmd_query(args: argparse.Namespace) -> int:
    from repro.errors import UnsupportedCapabilityError

    try:
        tree_p, tree_q = _open_pair(args, use_mmap=args.mmap)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        request = CPQRequest(algorithm=args.algorithm,
                             **_request_fields(args))
        result = k_closest_pairs(tree_p, tree_q, request=request)
    except UnsupportedCapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_CAPABILITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rank, pair in enumerate(result.pairs, start=1):
        print(f"{rank:4d}  {pair.p}  {pair.q}  {pair.distance:.9f}")
    print(
        f"# {result.algorithm}: {result.stats.disk_accesses} disk "
        f"accesses, {result.stats.node_pairs_visited} node pairs, "
        f"{result.stats.distance_computations} distance computations"
    )
    if request.range is not None or request.colors is not None:
        print(f"# constraints: range={request.range} "
              f"colors={request.colors}")
    rcp = result.stats.extra.get("rcp")
    if rcp:
        print(f"# rcp: source={rcp['source']} "
              f"windows={rcp['stored_windows']} hits={rcp['hits']} "
              f"containment={rcp['containment_hits']}")
    parallel = result.stats.extra.get("parallel")
    if parallel:
        print(
            f"# parallel: {parallel['workers']} workers, "
            f"{parallel['tasks_completed']}/{parallel['tasks']} tasks "
            f"({parallel['tasks_skipped']} pruned)"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Run one K-CPQ fully traced and print the span tree.

    The profiling counterpart of ``query``: same query surface, but
    the output is an ``EXPLAIN ANALYZE``-style tree showing where the
    query spent its time and pages (planner decision, traversal,
    heap ops, per-tree I/O).  ``--algorithm auto`` additionally runs
    the cost-model planner and shows its evidence.
    """
    from repro.analysis.cost_model import TreeShape
    from repro.errors import UnsupportedCapabilityError
    from repro.obs import Tracer, render_trace, write_trace_jsonl
    from repro.service.planner import Planner

    try:
        tree_p, tree_q = _open_pair(args)
        fields = _request_fields(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer()
    try:
        with tracer.span("request", kind="cpq", k=args.k) as root:
            algorithm = args.algorithm
            if algorithm == "auto":
                algorithm = Planner().plan(
                    TreeShape.of(tree_p), TreeShape.of(tree_q),
                    args.buffer, k=args.k, tracer=tracer,
                    range_spec=fields["range"],
                ).algorithm
            result = k_closest_pairs(
                tree_p, tree_q,
                request=CPQRequest(algorithm=algorithm, **fields),
                tracer=tracer,
            )
            root.annotate(algorithm=result.algorithm,
                          pairs=len(result.pairs))
    except UnsupportedCapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_CAPABILITY
    trace = tracer.pop_traces()[-1]
    for rank, pair in enumerate(result.pairs, start=1):
        print(f"{rank:4d}  {pair.p}  {pair.q}  {pair.distance:.9f}")
    print()
    print(render_trace(trace, show_durations=not args.no_times))
    parallel = result.stats.extra.get("parallel")
    if args.no_times and parallel:
        # Workers prune by a shared bound as it tightens, so their
        # counts vary from run to run; the answers do not.
        print(f"# {result.algorithm}: {parallel['workers']} workers")
    else:
        print(
            f"# {result.algorithm}: {result.stats.disk_accesses} disk "
            f"accesses, {result.stats.buffer_hits} buffer hits, "
            f"{result.stats.node_pairs_visited} node pairs"
        )
    if args.trace:
        lines = write_trace_jsonl(args.trace, [trace])
        print(f"# wrote {lines} spans to {args.trace}", file=sys.stderr)
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    from repro.query import nearest_neighbors

    tree = _open_input(args.tree, None, warn_paths=False)
    found = nearest_neighbors(tree, (args.x, args.y), k=args.k)
    for rank, (distance, entry) in enumerate(found, start=1):
        print(f"{rank:4d}  {entry.point}  oid={entry.oid}  "
              f"{distance:.9f}")
    print(f"# {tree.stats.disk_reads} disk accesses")
    return 0


def cmd_range(args: argparse.Namespace) -> int:
    from repro.geometry.mbr import MBR
    from repro.query import range_query

    tree = _open_input(args.tree, None, warn_paths=False)
    window = MBR((args.xmin, args.ymin), (args.xmax, args.ymax))
    found = range_query(tree, window)
    for entry in found:
        print(f"{entry.point}  oid={entry.oid}")
    print(f"# {len(found)} points, {tree.stats.disk_reads} disk accesses")
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    from repro.query import distance_range_join
    from repro.storage.stats import QueryStats

    tree_p, tree_q = _open_pair(args, warn_paths=False)
    tree_p.file.reset_for_query()
    tree_q.file.reset_for_query()
    stats = QueryStats()
    pairs = distance_range_join(tree_p, tree_q, args.epsilon, stats=stats)
    limit = args.limit if args.limit is not None else len(pairs)
    for pair in pairs[:limit]:
        print(f"{pair.p}  {pair.q}  {pair.distance:.9f}")
    if limit < len(pairs):
        print(f"... and {len(pairs) - limit} more")
    print(f"# {len(pairs)} pairs within {args.epsilon}, "
          f"{stats.disk_accesses} disk accesses")
    return 0


def _decode_jsonl_request(line: str, default_pair: str):
    """Decode one ``batch``/``serve`` line: a wire request envelope
    (:func:`repro.net.wire.decode_request`) whose ``v`` and ``pair``
    may be omitted."""
    from repro.net.wire import WIRE_VERSION, SQLRequest, decode_request

    obj = json.loads(line)
    if isinstance(obj, dict):
        obj = {"v": WIRE_VERSION, "pair": default_pair, **obj}
    request = decode_request(obj)
    if isinstance(request, SQLRequest):
        raise ValueError("op 'sql' needs a catalog; use the sql command")
    return request


def _response_json(response) -> dict:
    """Flatten a QueryResponse to a JSON-serialisable dict."""
    out = {
        "status": response.status,
        "kind": response.kind,
        "cached": response.cached,
        "latency_ms": round(response.latency_ms, 3),
        "disk_reads": response.disk_reads,
    }
    if response.algorithm is not None:
        out["algorithm"] = response.algorithm
    if response.error is not None:
        out["error"] = response.error
    # Resilience annotations, only when they carry signal (keeps the
    # common-case line format stable).
    if response.stale:
        out["stale"] = True
    if response.read_retries:
        out["read_retries"] = response.read_retries
    if not response.ok:
        return out
    if response.kind == "cpq":
        out["pairs"] = [
            {"distance": p.distance, "p": list(p.p), "q": list(p.q),
             "p_oid": p.p_oid, "q_oid": p.q_oid}
            for p in response.result.pairs
        ]
    elif response.kind == "knn":
        out["neighbors"] = [
            {"distance": d, "point": list(e.point), "oid": e.oid}
            for d, e in response.result
        ]
    else:
        out["points"] = [
            {"point": list(e.point), "oid": e.oid}
            for e in response.result
        ]
    return out


def _make_service(args: argparse.Namespace):
    """Build a QueryService over the two trees named by the args."""
    from repro.obs import Tracer
    from repro.service import QueryService

    tree_p, tree_q = _open_pair(args, warn_paths=False, split_buffer=True)
    service = QueryService(
        workers=args.workers,
        queue_size=args.queue_size,
        cache_size=args.cache_size,
        default_deadline_ms=args.deadline_ms,
        tracer=Tracer() if args.trace else None,
        max_query_workers=getattr(args, "parallel", 1),
    )
    service.register_pair(args.pair, tree_p, tree_q)
    return service


def _emit_trace(service, args: argparse.Namespace) -> None:
    """Write the service tracer's collected spans as JSONL."""
    if not args.trace:
        return
    from repro.obs import write_trace_jsonl

    lines = write_trace_jsonl(args.trace, service.tracer.pop_traces())
    print(f"# wrote {lines} spans to {args.trace}", file=sys.stderr)


def _emit_serve_stats(service, args: argparse.Namespace) -> None:
    snapshot = service.snapshot()
    rendered = json.dumps(snapshot, indent=2, sort_keys=True)
    print("# serve-stats", file=sys.stderr)
    print(rendered, file=sys.stderr)
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            handle.write(rendered + "\n")


def cmd_batch(args: argparse.Namespace) -> int:
    service = _make_service(args)
    try:
        if args.requests == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.requests) as handle:
                lines = handle.read().splitlines()
        requests = [
            _decode_jsonl_request(line, args.pair)
            for line in lines
            if line.strip()
        ]
        handles = service.submit_batch(requests)
        responses = [handle.result() for handle in handles]
        sink = open(args.out, "w") if args.out else sys.stdout
        try:
            for response in responses:
                print(json.dumps(_response_json(response)), file=sink)
        finally:
            if args.out:
                sink.close()
        statuses: dict = {}
        for response in responses:
            statuses[response.status] = statuses.get(response.status, 0) + 1
        summary = ", ".join(
            f"{count} {status}" for status, count in sorted(statuses.items())
        )
        print(f"# batch: {len(responses)} requests ({summary}) on "
              f"{args.workers} workers", file=sys.stderr)
        _emit_serve_stats(service, args)
        _emit_trace(service, args)
    finally:
        service.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    service = _make_service(args)
    try:
        for line in sys.stdin:
            if not line.strip():
                continue
            try:
                request = _decode_jsonl_request(line, args.pair)
            except ValueError as exc:
                print(json.dumps({"status": "error",
                                  "error": f"bad request: {exc}"}),
                      flush=True)
                continue
            response = service.execute(request)
            print(json.dumps(_response_json(response)), flush=True)
        _emit_serve_stats(service, args)
        _emit_trace(service, args)
    finally:
        service.close()
    return 0


def _file_backed_tree(path: str, scratch_dir: str, name: str) -> RTree:
    """Open (or materialise) a tree the shard tier can reopen.

    Shard processes reopen trees through their own ``FilePageStore``
    descriptors, so the tree must live in a ``.pages`` file; a raw
    points input is bulk-loaded into ``scratch_dir`` first.
    """
    if path.endswith(".pages"):
        return _open_input(path, None, warn_paths=False)
    pages = os.path.join(scratch_dir, name + ".pages")
    store = FilePageStore(pages, page_size=1024)
    return bulk_load(load_points(path),
                     file=PagedFile(store, page_size=1024))


def cmd_serve_net(args: argparse.Namespace) -> int:
    import tempfile
    import time as time_mod

    from repro.net import NetServer, ShardManager, tree_spec
    from repro.service import QueryService

    catalog = _get_catalog(args)
    pair = args.pair
    read_latency = args.shard_read_latency_ms / 1000.0
    if (catalog is not None
            and args.left in catalog and args.right in catalog):
        # Catalog mode: shard specs come straight from the entries --
        # page path, snapshot generation, mmap/legacy flags included.
        specs = [
            catalog.tree_spec(
                name,
                buffer_capacity=args.shard_buffer,
                read_latency=read_latency,
            )
            for name in (args.left, args.right)
        ]
        if pair == "default":
            # CPQL derives pair names as "left,right"; match it so
            # SQL queries route through the shard tier.
            pair = f"{args.left},{args.right}"
    else:
        if catalog is not None and not (
            os.path.exists(args.left) and os.path.exists(args.right)
        ):
            known = ", ".join(catalog.names()) or "(empty catalog)"
            print(f"error: inputs are neither registered datasets nor "
                  f"files; catalog knows: {known}", file=sys.stderr)
            return 2
        _deprecate_path_arg(args.left)
        scratch = tempfile.mkdtemp(prefix="repro-serve-net-")
        specs = []
        for name, path in (("p", args.left), ("q", args.right)):
            specs.append(tree_spec(
                _file_backed_tree(path, scratch, name),
                buffer_capacity=args.shard_buffer,
                read_latency=read_latency,
            ))
    manager = ShardManager(
        specs[0], specs[1],
        shards=args.shards,
        pair=pair,
        on_failure=args.on_failure,
    )
    service = QueryService(
        workers=args.workers,
        queue_size=args.queue_size,
        cache_size=args.cache_size,
        default_deadline_ms=args.deadline_ms,
        cpq_executor=manager.service_executor(),
    )
    # Lifecycle self-healing events (supervisor respawns, hot reloads)
    # flow into /stats; query-scoped events (retries, hedges) are
    # forwarded per-query by the engine, so only lifecycle kinds pass
    # here or they would double-count.
    lifecycle = ("respawns", "reloads", "probe_misses")
    manager.metrics_sink = (
        lambda kind, n: service.metrics.record_net_event(kind, n)
        if kind in lifecycle else None
    )
    service.register_pair(pair, manager.tree_p, manager.tree_q)
    if catalog is not None:
        # /v1/sql statements addressing other catalog datasets resolve
        # in-process; the sharded pair keeps its scatter-gather path.
        service.attach_catalog(catalog)
    server = NetServer(
        service, host=args.host, port=args.port, manager=manager,
    ).start_in_thread()
    # One machine-readable line so harnesses can find the bound port.
    print(json.dumps({
        "listening": f"{args.host}:{server.port}",
        "host": args.host,
        "port": server.port,
        "shards": args.shards,
        "pair": pair,
        "on_failure": args.on_failure,
    }), flush=True)
    try:
        if args.run_seconds is not None:
            time_mod.sleep(args.run_seconds)
        else:
            while True:
                time_mod.sleep(1.0)
    except KeyboardInterrupt:
        print("# interrupted; draining", file=sys.stderr)
    finally:
        server.close()
    print("# closed cleanly", file=sys.stderr)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.net.loadgen import run_loadgen
    from repro.service import CPQRequest as ServiceCPQ

    templates = [
        ServiceCPQ(
            pair=args.pair,
            k=args.k,
            algorithm=algorithm,
            use_cache=args.use_cache,
        )
        for algorithm in args.algorithms.split(",")
    ]
    summary = run_loadgen(
        args.host, args.port, templates,
        clients=args.clients,
        duration_s=args.duration,
        warmup_s=args.warmup,
    )
    rendered = json.dumps(summary, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
    if summary["error_rate"] > args.max_error_rate:
        print(f"# error rate {summary['error_rate']:.4f} exceeds "
              f"--max-error-rate {args.max_error_rate:g}",
              file=sys.stderr)
        return 1
    return 0


def _serial_pairs(tree_p: RTree, tree_q: RTree, k: int,
                  algorithms=CORE_ALGORITHMS) -> dict:
    """Fault-free serial answers per algorithm: the baselines
    ``chaos`` and ``chaos-net`` hold their faulted runs to."""
    return {
        algorithm: k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(k=k, algorithm=algorithm),
        ).pairs
        for algorithm in algorithms
    }


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a K-CPQ workload under an injected fault schedule.

    First computes the fault-free answer for every requested
    algorithm, then swaps both trees' page stores for seeded
    :class:`~repro.storage.faults.FaultyPageStore` wrappers and reruns
    the same queries.  An algorithm *survives* when it returns exactly
    the baseline pairs; a typed storage error (corruption detected,
    retries exhausted) is reported as a loud failure; anything else is
    a bug.  Exit status 0 only when every run survives -- the bundled
    schedules are all survivable by construction (transient streaks
    shorter than the retry budget, wire bit-flips healed by the
    checksum re-read), so any nonzero exit is a real regression.  A
    schedule other than ``none`` that injected no fault also exits 1:
    such a run proves nothing.
    """
    import dataclasses
    from collections import Counter

    from repro.errors import StorageError
    from repro.storage.faults import (
        SCHEDULES,
        unwrap_tree_store,
        wrap_tree_store,
    )

    if args.list_schedules:
        for name, plan in sorted(SCHEDULES.items()):
            print(f"{name:10s} {plan.describe()}")
        return 0
    if args.schedule not in SCHEDULES:
        print(f"unknown schedule {args.schedule!r}; choose from "
              f"{', '.join(sorted(SCHEDULES))}", file=sys.stderr)
        return 2
    if args.left is None or args.right is None:
        print("chaos: left and right inputs are required",
              file=sys.stderr)
        return 2

    tree_p, tree_q = _open_pair(args, warn_paths=False, split_buffer=True)
    # The registry's extensions (self/semi/multiway/incremental) have
    # their own call shapes and are opt-in via --algorithms.
    algorithms = (
        tuple(args.algorithms.split(","))
        if args.algorithms else CORE_ALGORITHMS
    )
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            print(f"unknown algorithm {algorithm!r}", file=sys.stderr)
            return 2

    baselines = _serial_pairs(tree_p, tree_q, args.k, algorithms)

    plan = dataclasses.replace(SCHEDULES[args.schedule], seed=args.seed)
    wrapper_p = wrap_tree_store(tree_p, plan)
    wrapper_q = wrap_tree_store(
        tree_q, dataclasses.replace(plan, seed=args.seed + 1)
    )
    failures = []
    retries = corruption = 0
    try:
        for algorithm in algorithms:
            for run in range(args.repeat):
                try:
                    result = k_closest_pairs(
                        tree_p, tree_q,
                        request=CPQRequest(k=args.k, algorithm=algorithm),
                    )
                except StorageError as exc:
                    failures.append(algorithm)
                    print(f"{algorithm:6s} run {run}: LOUD FAILURE "
                          f"({type(exc).__name__}: {exc})")
                else:
                    if result.pairs == baselines[algorithm]:
                        print(f"{algorithm:6s} run {run}: survived "
                              f"(identical to fault-free baseline)")
                    else:
                        failures.append(algorithm)
                        print(f"{algorithm:6s} run {run}: WRONG ANSWER "
                              f"under faults -- this is a bug")
                # Each run resets the trees' IOStats on entry, so the
                # counters read here belong to this run alone.
                retries += (tree_p.stats.read_retries
                            + tree_q.stats.read_retries)
                corruption += (tree_p.stats.corrupt_reads
                               + tree_q.stats.corrupt_reads)
    finally:
        unwrap_tree_store(tree_p)
        unwrap_tree_store(tree_q)
    faults = Counter(wrapper_p.faults.as_dict())
    faults.update(wrapper_q.faults.as_dict())
    print(f"# schedule {args.schedule!r} seed {args.seed}: "
          f"{faults['transient_raised']} transient errors, "
          f"{faults['bits_flipped']} bit flips, "
          f"{faults['latency_spikes']} latency spikes over "
          f"{faults['reads']} reads")
    print(f"# recovery: {retries} read retries, "
          f"{corruption} corrupt pages detected and re-read")
    total = len(algorithms) * args.repeat
    print(f"# {total - len(failures)}/{total} runs survived")
    if args.schedule != "none" and not faults["injected"]:
        print(f"chaos: schedule {args.schedule!r} injected no fault; "
              f"the run proves nothing", file=sys.stderr)
        return 1
    return 1 if failures else 0


def _chaos_net_round(schedule: str, plan, shards: int,
                     args: argparse.Namespace, totals: dict) -> List[str]:
    """One full-stack chaos round: one fault schedule at one shard count.

    Builds fresh file-backed trees, computes serial baselines, then
    serves them through NetServer + ShardManager with the faulty wire
    while a writer thread ingests into P under WAL protection with a
    background checkpointer.  After ingest it hot-reloads the shards
    onto the new pinned generation and re-verifies against a fresh
    serial recompute.  Returns the round's divergences (empty =
    survived).
    """
    import shutil
    import tempfile
    import threading
    import time as time_mod

    from repro.net import NetClient, NetServer, ShardManager, tree_spec
    from repro.net.faults import FaultyShardTransport
    from repro.net.retry import HedgePolicy, RetryPolicy
    from repro.service import CPQRequest as ServiceCPQ, QueryService
    from repro.storage.wal import WALCheckpointer, WriteAheadLog

    problems: List[str] = []
    scratch = tempfile.mkdtemp(prefix="repro-chaos-net-")
    manager = server = client = checkpointer = None
    try:
        # Fresh trees per round: P gets live mutation + WAL, Q stays
        # static; both are file-backed so shard processes reopen them.
        points_p = uniform_points(args.n, UNIT_WORKSPACE,
                                  seed=plan.seed + 11)
        points_q = uniform_points(args.n, UNIT_WORKSPACE,
                                  seed=plan.seed + 23)
        p_path = os.path.join(scratch, "p.pages")
        q_path = os.path.join(scratch, "q.pages")
        tree_p = bulk_load(points_p,
                           file=PagedFile(FilePageStore(p_path, 1024)))
        tree_q = bulk_load(points_q,
                           file=PagedFile(FilePageStore(q_path, 1024)))
        tree_q.file.store.flush()
        write_sidecar(p_path, tree_p.metadata())
        wal = WriteAheadLog(_wal_path(p_path), sync_mode="none")
        tree_p.enable_live_mutation(wal)
        # Pin the serving generation for the whole faulted phase: the
        # writer keeps committing, but no page a shard can reach is
        # reclaimed until after the hot reload below.
        writer_pin = tree_p.pin()

        spec_p = tree_spec(tree_p, buffer_capacity=32)
        spec_q = tree_spec(tree_q, buffer_capacity=32)
        reader_q = spec_q.open()
        baselines = _serial_pairs(spec_p.open(), reader_q, args.k)

        transport = FaultyShardTransport(plan)
        manager = ShardManager(
            spec_p, spec_q,
            shards=shards,
            pair="default",
            on_failure="recover",
            shard_timeout_s=args.shard_timeout,
            attempt_timeout_s=args.attempt_timeout,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                     max_delay_s=0.1, jitter=0.5),
            hedge_policy=HedgePolicy(floor_s=args.hedge_floor_ms / 1000.0,
                                     min_samples=4),
            transport=transport,
            probe_interval_s=0.25,
            seed=plan.seed,
        )
        service = QueryService(
            workers=4, queue_size=128, cache_size=0,
            cpq_executor=manager.service_executor(),
        )
        service.register_pair("default", manager.tree_p, manager.tree_q)
        server = NetServer(service, manager=manager, wal=wal)
        server.start_in_thread()
        client = NetClient("127.0.0.1", server.port, timeout_s=60.0)

        # Background checkpointing: once the ingest below pushes the
        # log past the threshold, the checkpointer flushes the page
        # store, rewrites the sidecar and empties the log -- the event
        # that makes the post-ingest hot reload meaningful.
        checkpointer = WALCheckpointer(
            wal, lambda: tree_p.checkpoint_wal(meta_path(p_path)),
            threshold_bytes=args.checkpoint_bytes, interval_s=0.05,
        ).start()
        extra = uniform_points(args.ingest_n, UNIT_WORKSPACE,
                               seed=plan.seed + 37)
        ingest_error: List[BaseException] = []

        def ingest() -> None:
            oid = len(tree_p)
            try:
                for offset in range(0, len(extra), 16):
                    chunk = extra[offset:offset + 16]
                    with tree_p.batch():
                        for i, point in enumerate(chunk):
                            tree_p.insert(
                                tuple(float(v) for v in point),
                                oid + offset + i,
                            )
                    time_mod.sleep(0.002)
            except BaseException as exc:  # noqa: BLE001 -- report
                ingest_error.append(exc)

        ingest_thread = threading.Thread(target=ingest, daemon=True,
                                         name="chaos-net-ingest")
        ingest_thread.start()

        def check(expected: dict, label: str) -> None:
            for algorithm in CORE_ALGORITHMS:
                response = client.query(ServiceCPQ(
                    pair="default", k=args.k, algorithm=algorithm,
                    use_cache=False,
                ))
                if not response.ok:
                    problems.append(f"{algorithm} {label}: status "
                                    f"{response.status}: {response.error}")
                elif response.partial:
                    problems.append(f"{algorithm} {label}: partial answer "
                                    f"in recover mode")
                elif response.result.pairs != expected[algorithm]:
                    problems.append(f"{algorithm} {label}: WRONG ANSWER "
                                    f"under faults -- this is a bug")

        # Phase 1: query the pinned generation under wire faults while
        # the writer mutates underneath.  Recover mode means every
        # answer must be byte-identical to the serial baseline.
        for repeat in range(args.repeat):
            check(baselines, f"run {repeat}")

        ingest_thread.join(60.0)
        if ingest_thread.is_alive():
            problems.append("ingest thread hung")
        if ingest_error:
            problems.append(f"ingest failed: {ingest_error[0]}")
        checkpointer.maybe_checkpoint()
        checkpointer.close()
        if wal.stats.checkpoints == 0:
            problems.append("no background WAL checkpoint fired")

        # Phase 2: hot-reload every shard onto the newer pinned
        # generation (no restart on the happy path), release the old
        # pin, and verify against a fresh serial recompute.
        new_spec_p = tree_spec(tree_p, buffer_capacity=32)
        if new_spec_p.generation <= spec_p.generation:
            problems.append("ingest advanced no generation")
        reload_report = manager.reload(new_spec_p, spec_q)
        tree_p.release(writer_pin)
        service.register_pair("default", manager.tree_p, manager.tree_q)
        check(_serial_pairs(new_spec_p.open(), reader_q, args.k),
              f"post-reload at generation {new_spec_p.generation}")

        healthz = client.healthz()
        net = manager.net_stats()
        for key in ("retries", "hedges", "hedge_wins", "respawns",
                    "reloads", "frame_errors", "dedup_dropped"):
            totals[key] = totals.get(key, 0) + net.get(key, 0)
        totals["checkpoints"] = (totals.get("checkpoints", 0)
                                 + wal.stats.checkpoints)
        print(json.dumps({
            "schedule": schedule,
            "shards": shards,
            "survived": not problems,
            "generation": healthz.get("generation"),
            "reload": reload_report,
            "checkpoints": wal.stats.checkpoints,
            "injected": net.get("injected_faults", {}),
            "net": {k: net.get(k, 0) for k in (
                "retries", "hedges", "hedge_wins", "respawns",
                "reloads", "frame_errors", "dedup_dropped")},
        }, sort_keys=True), flush=True)
        return problems
    finally:
        if client is not None:
            client.close()
        if checkpointer is not None:
            checkpointer.close()
        if server is not None:
            server.close()
        elif manager is not None:
            manager.close()
        shutil.rmtree(scratch, ignore_errors=True)


def cmd_chaos_net(args: argparse.Namespace) -> int:
    """Full-stack wire chaos: every fault schedule against serve-net.

    The network-tier counterpart of ``chaos``: for each bundled
    :data:`repro.net.faults.SCHEDULES` entry (drops, stalls, truncated
    and corrupt frames, shard kills) and each shard count, a complete
    stack -- asyncio edge, N spawn shards over a faulty transport,
    concurrent WAL-protected ingest with background checkpointing --
    must answer every one of the paper's five core algorithms
    byte-identically to the serial baseline, then survive a hot reload
    onto the newer generation.  Exits nonzero on any divergence, hang,
    or if the whole run exercised no respawn, no hedge win, or no
    reload (a chaos run that heals nothing proves nothing).
    """
    import dataclasses

    from repro.net.faults import SCHEDULES as NET_SCHEDULES

    if args.list_schedules:
        for name, plan in sorted(NET_SCHEDULES.items()):
            print(f"{name:10s} {plan.describe()}")
        return 0
    if args.quick:
        schedules = ["stall", "kill", "mixed"]
        shard_counts = [2]
        args.repeat = min(args.repeat, 1)
    else:
        schedules = (args.schedules.split(",") if args.schedules
                     else sorted(NET_SCHEDULES))
        shard_counts = [int(s) for s in args.shards.split(",")]
    for name in schedules:
        if name not in NET_SCHEDULES:
            print(f"unknown schedule {name!r}; choose from "
                  f"{', '.join(sorted(NET_SCHEDULES))}", file=sys.stderr)
            return 2

    totals: dict = {}
    failures: List[str] = []
    rounds = 0
    for schedule in schedules:
        plan = dataclasses.replace(NET_SCHEDULES[schedule],
                                   seed=args.seed + rounds)
        for shards in shard_counts:
            rounds += 1
            problems = _chaos_net_round(schedule, plan, shards, args,
                                        totals)
            for problem in problems:
                failures.append(f"[{schedule} x{shards}] {problem}")
                print(f"FAIL [{schedule} x{shards}] {problem}",
                      file=sys.stderr)
    print(f"# {rounds - len(set(f.split(']')[0] for f in failures))}/"
          f"{rounds} rounds survived; totals: "
          f"{json.dumps(totals, sort_keys=True)}")
    for requirement in ("respawns", "hedge_wins", "reloads"):
        if totals.get(requirement, 0) < 1:
            failures.append(f"run exercised no {requirement}")
            print(f"FAIL run exercised no {requirement}", file=sys.stderr)
    return 1 if failures else 0


def _print_cpq_response(response, as_json: bool) -> int:
    """Render one service QueryResponse for the ``sql`` command."""
    from repro.service import STATUS_BAD_REQUEST

    if as_json:
        print(json.dumps(_response_json(response)))
        if response.status == STATUS_BAD_REQUEST:
            return EXIT_UNSUPPORTED_CAPABILITY
        return 0 if response.ok else 1
    if response.status == STATUS_BAD_REQUEST:
        print(f"error: {response.error}", file=sys.stderr)
        return EXIT_UNSUPPORTED_CAPABILITY
    if not response.ok:
        print(f"error: {response.status}: {response.error}",
              file=sys.stderr)
        return 1
    for rank, pair in enumerate(response.result.pairs, start=1):
        print(f"{rank:4d}  {pair.p}  {pair.q}  {pair.distance:.9f}")
    stats = response.result.stats
    print(f"# {response.result.algorithm}: "
          f"{stats.disk_accesses} disk accesses, "
          f"{stats.node_pairs_visited} node pairs, "
          f"{stats.distance_computations} distance computations"
          f"{' (cached)' if response.cached else ''}")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    """Run one CPQL statement against a catalog or a serve-net edge.

    Exit codes follow ``query``: 0 ok, 2 bad statement / unknown
    dataset, 3 capability mismatch, 1 runtime failure.
    """
    from repro.errors import CPQLError
    from repro.query.cpql import parse_cpql

    statement = args.query
    if statement == "-":
        statement = sys.stdin.read()
    try:
        parsed = parse_cpql(statement)
    except CPQLError as exc:
        print(f"error: CPQL: {exc}", file=sys.stderr)
        if exc.source:
            print(exc.caret(), file=sys.stderr)
        return 2

    if args.port is not None:
        from repro.net import NetClient, WireError

        with NetClient(args.host, args.port) as client:
            try:
                response = client.sql(
                    statement,
                    deadline_ms=args.deadline_ms,
                    use_cache=not args.no_cache,
                )
            except WireError as exc:
                # The edge's 400: CPQL position info or unknown
                # dataset hint travels in the message.
                print(f"error: {exc}", file=sys.stderr)
                return 2
        return _print_cpq_response(response, args.json)

    if args.catalog is None:
        print("sql: --catalog DIR (or --port against a serve-net "
              "endpoint) is required", file=sys.stderr)
        return 2
    from repro.service import QueryService

    catalog = _get_catalog(args)
    service = QueryService(
        workers=args.workers,
        cache_size=0 if args.no_cache else 128,
    )
    service.attach_catalog(
        catalog, kind=args.kind, buffer_capacity=args.buffer,
    )
    try:
        response = service.execute_sql(
            parsed, deadline_ms=args.deadline_ms,
            use_cache=not args.no_cache,
        )
    finally:
        service.close()
    return _print_cpq_response(response, args.json)


def cmd_catalog_register(args: argparse.Namespace) -> int:
    points = load_points(args.points)
    catalog = _get_catalog(args)
    entry = catalog.register_dataset(
        args.name,
        points,
        kind=args.kind,
        extra_kinds=tuple(
            k for k in (args.extra_kinds or "").split(",") if k
        ),
        page_size=args.page_size,
        source=args.points,
        overwrite=args.overwrite,
        use_mmap=args.mmap,
    )
    built = entry.index(entry.default_kind)
    line = (f"registered {args.name!r}: {entry.count} points, "
            f"kinds [{', '.join(entry.kinds())}], default "
            f"{entry.default_kind} -> {catalog.path}")
    decision = built.build.get("decision")
    if decision is not None:
        line += f"\n# planner: {decision['reason']}"
    print(line)
    return 0


def cmd_catalog_list(args: argparse.Namespace) -> int:
    catalog = _get_catalog(args)
    if len(catalog) == 0:
        print(f"# empty catalog at {catalog.path}")
        return 0
    for name in catalog.names():
        entry = catalog.dataset(name)
        kinds = ", ".join(
            f"{kind}*" if kind == entry.default_kind else kind
            for kind in entry.kinds()
        )
        print(f"{name:20s} {entry.count:8d} points  dim "
              f"{entry.dimension}  [{kinds}]")
    return 0


def cmd_catalog_info(args: argparse.Namespace) -> int:
    catalog = _get_catalog(args)
    entry = catalog.dataset(args.name)
    print(f"dataset: {entry.name}")
    print(f"  points:    {entry.count}")
    print(f"  dimension: {entry.dimension}")
    print(f"  default:   {entry.default_kind}")
    if entry.source:
        print(f"  source:    {entry.source}")
    for kind in entry.kinds():
        index = entry.indexes[kind]
        spec = index.spec
        print(f"  [{kind}] {os.path.relpath(spec.path, catalog.base_dir)}"
              f"  page_size={spec.page_size}"
              f"  generation={spec.generation}"
              f"  mmap={spec.use_mmap}")
        for key in ("height", "nodes", "build_s"):
            if key in index.build:
                print(f"        {key}: {index.build[key]}")
        decision = index.build.get("decision")
        if decision is not None:
            print(f"        planner: {decision['reason']}")
    return 0


def cmd_catalog_remove(args: argparse.Namespace) -> int:
    catalog = _get_catalog(args)
    catalog.remove_dataset(args.name, delete_files=args.delete_files)
    print(f"removed {args.name!r} from {catalog.path}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import run_figure

    table = run_figure(args.figure, quick=args.quick)
    print(table.render())
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _add_cpq_args(parser: argparse.ArgumentParser, algorithms,
                  default: str) -> None:
    """The flags ``query`` and ``explain`` share (read back by
    :func:`_open_pair` and :func:`_request_fields`)."""
    for side in ("left", "right"):
        parser.add_argument(side,
                            help="catalog dataset name (with --catalog), "
                                 "or points file / .pages tree "
                                 "(deprecated)")
    parser.add_argument("--catalog", default=None,
                        help="dataset catalog (dir or catalog.json) to "
                             "resolve names against")
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--algorithm", choices=algorithms, default=default)
    parser.add_argument("--buffer", type=int, default=0,
                        help="total LRU buffer pages (B/2 per tree)")
    parser.add_argument("--workers", type=int, default=1,
                        help="intra-query worker threads (partitioned "
                             "executor); results are byte-identical")
    parser.add_argument(
        "--range", default=None, metavar="LO...,HI...",
        help="restrict qualifying points to a window, e.g. "
             "'0.1,0.2,0.6,0.7' (xmin,ymin,xmax,ymax); requires a "
             "range-capable algorithm",
    )
    parser.add_argument(
        "--range-mode", choices=("both", "p", "q"), default="both",
        help="which side(s) the window constrains (default: both)",
    )
    parser.add_argument(
        "--colors", default=None, metavar="MOD[:P[:Q]]",
        help="colored query: category = oid %% MOD, optionally "
             "restricting each side's categories, e.g. '4:1,3:0,2'; "
             "requires a color-capable algorithm",
    )
    parser.add_argument(
        "--distinct", action="store_true",
        help="with --colors: only pairs whose two points are in "
             "different categories qualify",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cpq",
        description=(
            "K closest pair queries over R*-trees "
            "(Corral et al., SIGMOD 2000 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a point data set"
    )
    generate.add_argument("--kind", choices=("uniform", "sequoia"),
                          default="uniform")
    generate.add_argument("--n", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--overlap", type=float, default=None,
        help="place in a workspace overlapping the unit one by this "
             "portion (0..1)",
    )
    generate.add_argument(
        "--grid", type=int, default=None,
        help="snap coordinates to a grid x grid lattice",
    )
    generate.add_argument("--out", required=True,
                          help="output file (.npy or .csv)")
    generate.set_defaults(func=cmd_generate)

    build = sub.add_parser(
        "build", help="build a persistent R*-tree over a points file"
    )
    build.add_argument("points", help="input points (.npy or .csv)")
    build.add_argument("--tree", required=True,
                       help="output page file (.pages)")
    build.set_defaults(func=cmd_build)

    info = sub.add_parser("info", help="describe a built tree")
    info.add_argument("--tree", required=True)
    info.set_defaults(func=cmd_info)

    ingest = sub.add_parser(
        "ingest",
        help="stream points into a live tree via WAL-protected batches",
    )
    ingest.add_argument("points", help="input points (.npy or .csv)")
    ingest.add_argument("--tree", required=True,
                        help="target page file (.pages); created when "
                             "missing, appended to otherwise")
    ingest.add_argument("--batch-size", type=int, default=64,
                        help="inserts per commit (one generation bump, "
                             "one WAL batch each)")
    ingest.add_argument("--wal", default=None,
                        help="WAL path (default: <tree>.wal)")
    ingest.add_argument("--sync", choices=("fsync", "flush", "none"),
                        default="flush",
                        help="WAL durability per commit")
    ingest.add_argument("--mmap", action="store_true",
                        help="read pages through the mmap path")
    ingest.add_argument("--start-oid", type=int, default=None,
                        help="first object id (default: current count)")
    ingest.add_argument("--keep-wal", action="store_true",
                        help="skip the final checkpoint; leaves every "
                             "batch in the WAL")
    ingest.add_argument("--crash-after", type=int, default=None,
                        help="chaos hook: die mid-batch (no COMMIT, no "
                             "flush) after this many committed batches")
    ingest.set_defaults(func=cmd_ingest)

    recover = sub.add_parser(
        "recover",
        help="replay a WAL onto a page file after a crash",
    )
    recover.add_argument("--tree", required=True,
                         help="page file (.pages) to recover")
    recover.add_argument("--wal", default=None,
                         help="WAL path (default: <tree>.wal)")
    recover.add_argument("--mmap", action="store_true",
                         help="reopen with the mmap read path")
    recover.set_defaults(func=cmd_recover)

    query = sub.add_parser(
        "query", help="run a K closest pairs query"
    )
    _add_cpq_args(query, ALGORITHMS, "heap")
    query.add_argument("--mmap", action="store_true",
                       help="read .pages inputs through the mmap path")
    query.set_defaults(func=cmd_query)

    explain = sub.add_parser(
        "explain",
        help="run a K-CPQ traced and print the EXPLAIN-style span tree "
             "(--algorithm auto also traces the planner decision)",
    )
    _add_cpq_args(explain, ("auto",) + tuple(ALGORITHMS), "auto")
    explain.add_argument("--trace", default=None,
                         help="also write the spans as JSONL here")
    explain.add_argument("--no-times", action="store_true",
                         help="omit durations and counts that depend on "
                              "thread timing (deterministic output)")
    explain.set_defaults(func=cmd_explain)

    knn = sub.add_parser("knn", help="k nearest neighbours of a point")
    knn.add_argument("tree", help="points file or .pages tree")
    knn.add_argument("--x", type=float, required=True)
    knn.add_argument("--y", type=float, required=True)
    knn.add_argument("--k", type=int, default=1)
    knn.set_defaults(func=cmd_knn)

    window = sub.add_parser("range", help="window (range) query")
    window.add_argument("tree", help="points file or .pages tree")
    window.add_argument("--xmin", type=float, required=True)
    window.add_argument("--ymin", type=float, required=True)
    window.add_argument("--xmax", type=float, required=True)
    window.add_argument("--ymax", type=float, required=True)
    window.set_defaults(func=cmd_range)

    join = sub.add_parser(
        "join", help="distance range join (all pairs within epsilon)"
    )
    join.add_argument("left", help="points file or .pages tree")
    join.add_argument("right", help="points file or .pages tree")
    join.add_argument("--epsilon", type=float, required=True)
    join.add_argument("--limit", type=int, default=None,
                      help="print at most this many pairs")
    join.set_defaults(func=cmd_join)

    def add_service_args(parser_):
        parser_.add_argument("left", help="points file or .pages tree (P)")
        parser_.add_argument("right", help="points file or .pages tree (Q)")
        parser_.add_argument("--workers", type=int, default=4,
                             help="worker thread count")
        parser_.add_argument("--deadline-ms", type=float, default=None,
                             help="default per-query deadline")
        parser_.add_argument("--cache-size", type=int, default=128,
                             help="result cache capacity (0 disables)")
        parser_.add_argument("--queue-size", type=int, default=256,
                             help="admission queue bound")
        parser_.add_argument("--buffer", type=int, default=0,
                             help="total LRU buffer pages (B/2 per tree)")
        parser_.add_argument("--pair", default="default",
                             help="name the registered tree pair")
        parser_.add_argument("--stats-json", default=None,
                             help="also write the serve-stats snapshot "
                                  "to this file")
        parser_.add_argument("--trace", default=None,
                             help="trace every request and write the "
                                  "spans as JSONL to this file")

    batch = sub.add_parser(
        "batch",
        help="run a JSONL file of queries through the query service",
    )
    add_service_args(batch)
    batch.add_argument("requests",
                       help="JSONL request file, or - for stdin")
    batch.add_argument("--out", default=None,
                       help="write JSONL responses here (default stdout)")
    batch.add_argument("--parallel", type=int, default=1,
                       help="intra-query worker threads per CPQ "
                            "(max_query_workers; auto requests let the "
                            "planner decide within this budget)")
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="serve JSONL queries from stdin until EOF",
    )
    add_service_args(serve)
    serve.set_defaults(func=cmd_serve)

    serve_net = sub.add_parser(
        "serve-net",
        help="serve the HTTP/JSON network tier over spatial shards",
    )
    serve_net.add_argument("left",
                           help="catalog dataset name (with --catalog),"
                                " or points file / .pages tree (P, "
                                "deprecated)")
    serve_net.add_argument("right",
                           help="catalog dataset name (with --catalog),"
                                " or points file / .pages tree (Q, "
                                "deprecated)")
    serve_net.add_argument("--catalog", default=None,
                           help="dataset catalog (dir or catalog.json);"
                                " also enables POST /v1/sql dataset "
                                "resolution")
    serve_net.add_argument("--host", default="127.0.0.1",
                           help="bind address")
    serve_net.add_argument("--port", type=int, default=0,
                           help="bind port (0 picks a free one; the "
                                "bound port is printed as JSON)")
    serve_net.add_argument("--shards", type=int, default=2,
                           help="shard process count")
    serve_net.add_argument("--on-failure", default="recover",
                           choices=["recover", "partial"],
                           help="lost-shard policy: exact recovery on "
                                "the coordinator, or flagged partial "
                                "answers")
    serve_net.add_argument("--shard-buffer", type=int, default=64,
                           help="LRU buffer pages per tree per shard")
    serve_net.add_argument("--shard-read-latency-ms", type=float,
                           default=0.0,
                           help="simulated per-miss disk latency in "
                                "the shards (benchmark regime)")
    serve_net.add_argument("--workers", type=int, default=4,
                           help="service worker threads")
    serve_net.add_argument("--queue-size", type=int, default=256,
                           help="admission queue bound")
    serve_net.add_argument("--cache-size", type=int, default=128,
                           help="result cache capacity (0 disables)")
    serve_net.add_argument("--deadline-ms", type=float, default=None,
                           help="default per-query deadline")
    serve_net.add_argument("--pair", default="default",
                           help="name the registered tree pair")
    serve_net.add_argument("--run-seconds", type=float, default=None,
                           help="serve for this long then drain "
                                "(default: until interrupted)")
    serve_net.set_defaults(func=cmd_serve_net)

    loadgen = sub.add_parser(
        "loadgen",
        help="closed-loop load generator against a serve-net endpoint",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--clients", type=int, default=4,
                         help="concurrent closed-loop clients")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="measured seconds")
    loadgen.add_argument("--warmup", type=float, default=0.5,
                         help="unmeasured warmup seconds")
    loadgen.add_argument("--k", type=int, default=10)
    loadgen.add_argument("--algorithms", default="heap",
                         help="comma-separated algorithm cycle")
    loadgen.add_argument("--pair", default="default")
    loadgen.add_argument("--use-cache", action="store_true",
                         help="let the service cache answer repeats "
                              "(default off so every request does "
                              "real work)")
    loadgen.add_argument("--out", default=None,
                         help="also write the summary JSON here")
    loadgen.add_argument("--max-error-rate", type=float, default=0.0,
                         help="exit nonzero when errors/attempts "
                              "exceeds this fraction (default 0: any "
                              "error fails)")
    loadgen.set_defaults(func=cmd_loadgen)

    chaos = sub.add_parser(
        "chaos",
        help="rerun a K-CPQ workload under injected storage faults "
             "and verify the answers are unchanged",
    )
    chaos.add_argument("left", nargs="?", default=None,
                       help="points file or .pages tree (P)")
    chaos.add_argument("right", nargs="?", default=None,
                       help="points file or .pages tree (Q)")
    chaos.add_argument("--schedule", default="mixed",
                       help="named fault schedule (see --list-schedules)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed; same seed, same faults")
    chaos.add_argument("--k", type=int, default=10)
    chaos.add_argument("--buffer", type=int, default=0,
                       help="total LRU buffer pages (B/2 per tree)")
    chaos.add_argument("--algorithms", default=None,
                       help="comma-separated subset (default: all five)")
    chaos.add_argument("--repeat", type=int, default=1,
                       help="faulted runs per algorithm")
    chaos.add_argument("--list-schedules", action="store_true",
                       help="print the named schedules and exit")
    chaos.set_defaults(func=cmd_chaos)

    chaos_net = sub.add_parser(
        "chaos-net",
        help="run the full network stack (edge + shards + concurrent "
             "ingest) under injected wire faults and verify answers "
             "stay byte-identical to serial",
    )
    chaos_net.add_argument("--schedules", default=None,
                           help="comma-separated subset "
                                "(default: all; see --list-schedules)")
    chaos_net.add_argument("--shards", default="2,4",
                           help="comma-separated shard counts to test")
    chaos_net.add_argument("--seed", type=int, default=0,
                           help="fault-plan seed; same seed, same faults")
    chaos_net.add_argument("--k", type=int, default=10)
    chaos_net.add_argument("--n", type=int, default=400,
                           help="points per tree")
    chaos_net.add_argument("--ingest-n", type=int, default=256,
                           help="points inserted concurrently into P")
    chaos_net.add_argument("--repeat", type=int, default=2,
                           help="faulted runs per algorithm per round")
    chaos_net.add_argument("--checkpoint-bytes", type=int, default=16384,
                           help="background WAL checkpoint threshold")
    chaos_net.add_argument("--hedge-floor-ms", type=float, default=30.0,
                           help="minimum hedge trigger latency")
    chaos_net.add_argument("--attempt-timeout", type=float, default=0.5,
                           help="per-attempt shard timeout (s)")
    chaos_net.add_argument("--shard-timeout", type=float, default=15.0,
                           help="total gather budget per query (s)")
    chaos_net.add_argument("--quick", action="store_true",
                           help="CI smoke: 2 shards, one repeat, "
                                "stall/kill/mixed only")
    chaos_net.add_argument("--list-schedules", action="store_true",
                           help="print the named schedules and exit")
    chaos_net.set_defaults(func=cmd_chaos_net)

    sql = sub.add_parser(
        "sql",
        help="run one CPQL statement (SELECT CLOSEST PAIRS ...) "
             "against a catalog or a serve-net endpoint",
    )
    sql.add_argument("query",
                     help="the CPQL statement, or - to read stdin")
    sql.add_argument("--catalog", default=None,
                     help="dataset catalog to resolve FROM names "
                          "against (in-process execution)")
    sql.add_argument("--kind", default=None,
                     help="pin one index kind (str/grid/dynamic) for "
                          "every dataset; default: each dataset's own")
    sql.add_argument("--host", default="127.0.0.1",
                     help="serve-net host (with --port)")
    sql.add_argument("--port", type=int, default=None,
                     help="send the statement to a serve-net endpoint "
                          "(POST /v1/sql) instead of executing "
                          "in-process")
    sql.add_argument("--deadline-ms", type=float, default=None,
                     help="per-query deadline")
    sql.add_argument("--no-cache", action="store_true",
                     help="bypass the service result cache")
    sql.add_argument("--workers", type=int, default=2,
                     help="service worker threads (in-process mode)")
    sql.add_argument("--buffer", type=int, default=64,
                     help="LRU buffer pages per opened tree")
    sql.add_argument("--json", action="store_true",
                     help="emit the response as one JSON object")
    sql.set_defaults(func=cmd_sql)

    catalog_cmd = sub.add_parser(
        "catalog",
        help="maintain a persisted dataset catalog (register/list/"
             "info/remove)",
    )
    catalog_sub = catalog_cmd.add_subparsers(dest="catalog_command",
                                             required=True)

    cat_register = catalog_sub.add_parser(
        "register",
        help="build index(es) over a points file under a dataset name",
    )
    cat_register.add_argument("name", help="dataset name")
    cat_register.add_argument("points",
                              help="input points (.npy or .csv)")
    cat_register.add_argument("--catalog", required=True,
                              help="catalog dir or catalog.json; page "
                                   "files land next to it")
    cat_register.add_argument("--kind", default="auto",
                              help="index kind: auto (planner decides),"
                                   " str, grid or dynamic")
    cat_register.add_argument("--extra-kinds", default="",
                              help="comma-separated additional kinds "
                                   "to build alongside")
    cat_register.add_argument("--page-size", type=int, default=1024)
    cat_register.add_argument("--mmap", action="store_true",
                              help="record mmap as the index's "
                                   "preferred read path")
    cat_register.add_argument("--overwrite", action="store_true",
                              help="rebuild over an existing entry")
    cat_register.set_defaults(func=cmd_catalog_register)

    cat_list = catalog_sub.add_parser(
        "list", help="list registered datasets"
    )
    cat_list.add_argument("--catalog", required=True)
    cat_list.set_defaults(func=cmd_catalog_list)

    cat_info = catalog_sub.add_parser(
        "info", help="describe one dataset and its indexes"
    )
    cat_info.add_argument("name")
    cat_info.add_argument("--catalog", required=True)
    cat_info.set_defaults(func=cmd_catalog_info)

    cat_remove = catalog_sub.add_parser(
        "remove", help="drop one dataset's catalog entry"
    )
    cat_remove.add_argument("name")
    cat_remove.add_argument("--catalog", required=True)
    cat_remove.add_argument("--delete-files", action="store_true",
                            help="also delete its page files")
    cat_remove.set_defaults(func=cmd_catalog_remove)

    figure = sub.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure.add_argument("figure", help="figure id, e.g. fig04")
    figure.add_argument("--quick", action="store_true",
                        help="tiny cardinalities (seconds)")
    figure.add_argument("--csv", default=None,
                        help="also write the table as CSV")
    figure.set_defaults(func=cmd_figure)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CatalogError as exc:
        # One exit for every command: an unknown dataset, a bad catalog
        # or an incomplete sidecar is a bad invocation, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
