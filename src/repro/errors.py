"""Unified error taxonomy for the resilience stack.

The paper's cost model assumes every page read succeeds and every byte
is intact; a served system cannot.  This module is the single place
where the library's failure modes are named, so callers can write
layered handlers::

    try:
        response = service.execute(request)
    except TransientIOError:     # retries exhausted -- back off and retry
        ...
    except PageCorruptionError:  # data is wrong -- page it, do not retry
        ...

Hierarchy
---------

* :class:`ReproError` -- base class of every library-defined error.

  * :class:`StorageError` -- failures of the page storage stack.

    * :class:`TransientIOError` -- a read/write failed but retrying may
      succeed (flaky device, injected fault).  Also an :class:`OSError`,
      so generic I/O handlers keep working.
    * :class:`PageCorruptionError` -- the bytes that came back are not
      the bytes that were written (checksum mismatch, short read, torn
      write, impossible header).  Also a :class:`ValueError`, matching
      the serializer's historical contract.

  * :class:`DeadlineExceeded` -- a query overran its deadline (raised
    from the cooperative cancellation probe between node-pair visits,
    so traversals abort at a consistent point; trees and buffers stay
    usable).  Re-exported by :mod:`repro.core.api` and
    :mod:`repro.service`.
  * :class:`ServiceOverloadError` -- the query service shed the request
    under load (queue depth at or above the shedding threshold).
  * :class:`CatalogError` -- the dataset catalog could not resolve or
    persist an entry (bad schema version, duplicate name, missing page
    file).

    * :class:`UnknownDatasetError` -- a lookup named a dataset or index
      kind the catalog does not hold.  Also a :class:`KeyError`.

  * :class:`CPQLError` -- a CPQL query failed to parse; carries the
    character position of the offending token.  Also a
    :class:`ValueError`; the service answers ``bad_request`` and the
    network edge maps it to HTTP 400.
  * :class:`UnsupportedCapabilityError` -- a request asked an algorithm
    for a capability (range window, color predicates) its registry
    entry does not declare.  Carries the capability name and the list
    of capable algorithms; the service answers ``bad_request`` and the
    network edge maps it to HTTP 400.
  * :class:`InvalidCoordinateError` -- a point handed to a packer has a
    NaN or infinite coordinate.  Also a :class:`ValueError`.

Transient faults are *retried* (:class:`repro.storage.buffer.LRUBuffer`
with a :class:`~repro.storage.buffer.RetryPolicy`); corruption is
*detected and surfaced* (CRC32 page checksums, see
``docs/RESILIENCE.md``) -- never silently returned as a wrong answer.
"""

from __future__ import annotations

import time
from typing import Callable


class ReproError(Exception):
    """Base class for every error the library defines."""


class StorageError(ReproError):
    """Base class for page-storage failures."""


class TransientIOError(StorageError, OSError):
    """A page operation failed in a way that may succeed on retry.

    Raised by fault-injecting stores (:mod:`repro.storage.faults`) and
    by real stores for retryable OS errors.  The buffer pool retries
    these with bounded exponential backoff before letting them escape.
    """


class PageCorruptionError(StorageError, ValueError):
    """A page's bytes fail validation (checksum, length, or header).

    Carries enough context to identify the damage.  Subclasses
    :class:`ValueError` so pre-taxonomy handlers around the serializer
    keep catching it.
    """

    def __init__(self, message: str, page_id: int | None = None):
        super().__init__(message)
        self.page_id = page_id


class DeadlineExceeded(ReproError):
    """A query overran its deadline.

    Raised from the cooperative cancellation probe between node-pair
    visits, so traversals abort at a consistent point; the trees and
    buffers remain usable.  (Re-exported by ``repro.core.api`` and
    ``repro.service``.)
    """

    @classmethod
    def probe(cls, deadline: float) -> Callable[[], None]:
        """The cancellation probe that raises this error once
        :func:`time.monotonic` passes ``deadline``."""

        def probe() -> None:
            if time.monotonic() > deadline:
                raise cls("query exceeded its deadline")

        return probe


class UnsupportedCapabilityError(ReproError, ValueError):
    """A request demands a capability its algorithm does not declare.

    Raised at :class:`repro.core.CPQRequest` validation time, so an
    incapable combination never reaches a traversal.  ``capability`` is
    the flag that was missing (``"range"`` or ``"colors"``) and
    ``capable`` the registry algorithms that do declare it -- the
    message lists them so callers can self-serve the fix.  Subclasses
    :class:`ValueError` so pre-existing construction-error handlers
    keep catching it.
    """

    def __init__(self, algorithm: str, capability: str,
                 capable: tuple = ()):
        hint = (
            f"; algorithms supporting it: {', '.join(capable)}"
            if capable else ""
        )
        super().__init__(
            f"algorithm {algorithm!r} does not support "
            f"{capability} queries{hint}"
        )
        self.algorithm = algorithm
        self.capability = capability
        self.capable = tuple(capable)


class InvalidCoordinateError(ReproError, ValueError):
    """A point has a NaN or infinite coordinate.  Raised at the
    boundary (:func:`repro.rtree.bulk_load`, :func:`repro.rtree.grid_load`)
    so NaN never reaches sort order or MINMINDIST pruning."""


class CatalogError(ReproError):
    """Base class for dataset-catalog failures.

    Raised by :mod:`repro.catalog` for malformed catalog files,
    unsupported schema versions, duplicate registrations and missing
    page files -- anything that stops a catalog from resolving a name
    to an openable tree.
    """


class UnknownDatasetError(CatalogError, KeyError):
    """A catalog lookup named a dataset (or index kind) it does not hold.

    Carries the missing ``name`` and the catalog's registered names so
    callers can self-serve the fix.  Subclasses :class:`KeyError` to
    match the mapping-like feel of ``catalog.dataset(name)``.
    """

    def __init__(self, name: str, known: tuple = ()):
        hint = (
            f"; registered datasets: {', '.join(known)}"
            if known else "; the catalog is empty"
        )
        # KeyError repr()s its lone arg; go through Exception and keep
        # the message readable.
        Exception.__init__(
            self, f"unknown dataset {name!r}{hint}"
        )
        self.name = name
        self.known = tuple(known)

    def __str__(self) -> str:
        return self.args[0]


class CPQLError(ReproError, ValueError):
    """A CPQL query failed to parse.

    Carries the 0-based character ``position`` of the offending token
    so front ends can point at it; :meth:`caret` renders the standard
    two-line source/caret display.  The service answers ``bad_request``
    and the network edge maps it to HTTP 400, exactly like a
    capability mismatch.
    """

    def __init__(self, message: str, source: str = "", position: int = 0):
        super().__init__(message)
        self.source = source
        self.position = position

    def caret(self) -> str:
        """The query text with a ``^`` under the error position."""
        return f"{self.source}\n{' ' * self.position}^"


class ServiceOverloadError(ReproError):
    """The service shed a request because it is saturated.

    ``queue_depth`` is the depth observed at admission time and
    ``threshold`` the configured shedding bound.
    """

    def __init__(self, queue_depth: int, threshold: int):
        super().__init__(
            f"service overloaded: queue depth {queue_depth} at or above "
            f"shedding threshold {threshold}"
        )
        self.queue_depth = queue_depth
        self.threshold = threshold
