"""RangeSpec/ColorSpec canonicalisation, capability gating, wire v2.

The constraint specs are *identity* objects: two semantically equal
constraints must compare, hash, and cache-key equal, or the service's
result cache silently forks per spelling.  The regression pinned here:
a query window given with reversed corners used to produce a different
cache key than the same window given lo-first.
"""

import math

import pytest

from repro.core.api import (
    ALGORITHM_REGISTRY,
    COLOR_ALGORITHMS,
    RANGE_ALGORITHMS,
    CPQRequest,
    k_closest_pairs,
)
from repro.core.constraints import ColorSpec, RangeSpec
from repro.errors import UnsupportedCapabilityError


class TestRangeSpec:
    def test_corners_sorted_per_dimension(self):
        spec = RangeSpec((4.0, 1.0), (0.0, 3.0))
        assert spec.lo == (0.0, 1.0)
        assert spec.hi == (4.0, 3.0)

    def test_reversed_corners_equal(self):
        assert RangeSpec((4, 4), (0, 0)) == RangeSpec((0, 0), (4, 4))
        assert hash(RangeSpec((4, 4), (0, 0))) == hash(
            RangeSpec((0, 0), (4, 4))
        )

    def test_negative_zero_normalised(self):
        assert RangeSpec((-0.0, 0.0), (1, 1)) == RangeSpec(
            (0.0, 0.0), (1.0, 1.0)
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            RangeSpec((0.0,), (1.0, 1.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RangeSpec((0, 0), (1, 1), mode="sideways")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("corner", ["lo", "hi"])
    def test_non_finite_corner_rejected(self, bad, corner):
        corners = {"lo": (0.0, 0.0), "hi": (1.0, 1.0)}
        corners[corner] = (bad, corners[corner][1])
        with pytest.raises(ValueError, match="finite"):
            RangeSpec(corners["lo"], corners["hi"])

    def test_nan_window_query_rejected_not_empty(self):
        # Accepted, a NaN corner answers "ok" with no pairs after a
        # near-full traversal; it must fail before any page is read.
        from repro.datasets import uniform_points
        from repro.rtree.bulk import bulk_load

        tree_p = bulk_load(uniform_points(200, seed=1))
        tree_q = bulk_load(uniform_points(200, seed=2))
        with pytest.raises(ValueError, match="finite"):
            k_closest_pairs(tree_p, tree_q, request=CPQRequest(
                k=3, range=((math.nan, 0.0), (1.0, 1.0)),
            ))

    def test_mode_controls_constrained_sides(self):
        assert RangeSpec((0, 0), (1, 1), mode="both").constrains_p
        assert RangeSpec((0, 0), (1, 1), mode="both").constrains_q
        assert RangeSpec((0, 0), (1, 1), mode="p").constrains_p
        assert not RangeSpec((0, 0), (1, 1), mode="p").constrains_q
        assert not RangeSpec((0, 0), (1, 1), mode="q").constrains_p

    def test_contains_point_boundary_inclusive(self):
        spec = RangeSpec((0, 0), (1, 1))
        assert spec.contains_point((0.0, 1.0))
        assert spec.contains_point((0.5, 0.5))
        assert not spec.contains_point((1.0000001, 0.5))

    def test_containment_requires_same_mode(self):
        outer = RangeSpec((0, 0), (10, 10))
        inner = RangeSpec((2, 2), (5, 5))
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert not outer.contains(
            RangeSpec((2, 2), (5, 5), mode="p")
        )

    def test_canonical_is_primitive(self):
        lo, hi, mode = RangeSpec((1, 0), (0, 1)).canonical()
        assert lo == (0.0, 0.0) and hi == (1.0, 1.0) and mode == "both"


class TestColorSpec:
    def test_residues_sorted_and_deduped(self):
        spec = ColorSpec(modulus=5, colors_p=(3, 1, 3), distinct=False)
        assert spec.colors_p == (1, 3)

    def test_out_of_range_residue_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            ColorSpec(modulus=3, colors_p=(3,))

    def test_empty_residues_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ColorSpec(modulus=3, colors_p=())

    def test_distinct_needs_two_categories(self):
        with pytest.raises(ValueError, match="at least 2"):
            ColorSpec(modulus=1, distinct=True)

    def test_admits_pair(self):
        spec = ColorSpec(modulus=2, distinct=True)
        assert spec.admits_pair(0, 1)
        assert not spec.admits_pair(2, 4)  # same color 0
        filtered = ColorSpec(modulus=4, colors_p=(1,), distinct=False)
        assert filtered.admits_pair(1, 0)
        assert not filtered.admits_pair(2, 0)


class TestCacheKeyCanonicalisation:
    def test_reversed_corner_window_hits_cache(self):
        # Regression: the same rectangle spelled corner-reversed must
        # produce the same cache key, or the result cache misses.
        a = CPQRequest(k=5, range=((0.8, 0.9), (0.1, 0.2)))
        b = CPQRequest(k=5, range=((0.1, 0.2), (0.8, 0.9)))
        assert a.cache_key() == b.cache_key()

    def test_color_spelling_hits_cache(self):
        a = CPQRequest(
            k=5, colors={"modulus": 4, "colors_p": (3, 1, 1),
                         "distinct": False},
        )
        b = CPQRequest(
            k=5, colors={"modulus": 4, "colors_p": (1, 3),
                         "distinct": False},
        )
        assert a.cache_key() == b.cache_key()

    def test_constraints_are_result_identity(self):
        base = CPQRequest(k=5)
        ranged = CPQRequest(k=5, range=((0, 0), (1, 1)))
        colored = CPQRequest(k=5, colors=2)
        assert ranged.cache_key() != base.cache_key()
        assert colored.cache_key() != base.cache_key()
        assert ranged.cache_key() != colored.cache_key()

    def test_key_remains_hashable(self):
        key = CPQRequest(
            k=3, range=((0, 0), (1, 1)), colors=2
        ).cache_key()
        assert hash(key) is not None


class TestCapabilityGating:
    def test_incapable_algorithm_rejected_for_range(self):
        with pytest.raises(UnsupportedCapabilityError) as info:
            CPQRequest(algorithm="incremental", range=((0, 0), (1, 1)))
        error = info.value
        assert error.algorithm == "incremental"
        assert error.capability == "range"
        assert error.capable == RANGE_ALGORITHMS
        assert "incremental" in str(error)
        assert "heap" in str(error)

    def test_incapable_algorithm_rejected_for_colors(self):
        with pytest.raises(UnsupportedCapabilityError) as info:
            CPQRequest(algorithm="semi", colors=2)
        assert info.value.capability == "colors"
        assert info.value.capable == COLOR_ALGORITHMS

    def test_error_is_a_value_error(self):
        # Callers that only know ValueError keep working.
        with pytest.raises(ValueError):
            CPQRequest(algorithm="self", range=((0, 0), (1, 1)))

    def test_capable_lists_derive_from_registry(self):
        assert RANGE_ALGORITHMS == tuple(
            name for name, spec in ALGORITHM_REGISTRY.items()
            if spec.supports_range
        )
        assert COLOR_ALGORITHMS == tuple(
            name for name, spec in ALGORITHM_REGISTRY.items()
            if spec.supports_colors
        )

    def test_request_normalises_shorthand(self):
        request = CPQRequest(range=((0, 1), (1, 0)), colors=3)
        assert isinstance(request.range, RangeSpec)
        assert isinstance(request.colors, ColorSpec)
        assert request.colors.modulus == 3

    @pytest.mark.parametrize("value", [
        RangeSpec((0.0, 1.0), (1.0, 0.0), "p"),
        {"lo": (1, 1), "hi": (0, 0), "mode": "p"},
    ])
    def test_range_coerce_forms(self, value):
        assert RangeSpec.coerce(value) == RangeSpec((0, 0), (1, 1), "p")

    @pytest.mark.parametrize("value", [
        ((1, 1), (0, 0)), [[0, 1], [1, 0]], {"lo": [0, 0], "hi": [1, 1]},
    ])
    def test_range_coerce_shorthand(self, value):
        assert RangeSpec.coerce(value) == RangeSpec((0, 0), (1, 1))

    @pytest.mark.parametrize("value", [
        ColorSpec(modulus=3), {"modulus": 3}, 3, "3",
    ])
    def test_color_coerce_forms(self, value):
        assert ColorSpec.coerce(value) == ColorSpec(modulus=3)

    def test_coerce_passes_none(self):
        assert RangeSpec.coerce(None) is None
        assert ColorSpec.coerce(None) is None

    @pytest.mark.parametrize("coerce, value", [
        (RangeSpec.coerce, {"hi": [1, 1]}),
        (RangeSpec.coerce, 5),
        (RangeSpec.coerce, ((0, 0), (1, 1), (2, 2))),
        (ColorSpec.coerce, {"modulus": 3, "shade": 1}),
        (ColorSpec.coerce, [3]),
    ])
    def test_coerce_rejects_malformed(self, coerce, value):
        with pytest.raises(ValueError):
            coerce(value)

    def test_core_and_service_requests_share_the_forms(self):
        from repro.service import CPQRequest as ServiceCPQ

        window = {"lo": [0.5, 0.5], "hi": [0, 0]}
        core = CPQRequest(range=window, colors={"modulus": 2})
        service = ServiceCPQ(pair="default", range=window,
                             colors={"modulus": 2})
        assert core.range == service.range == RangeSpec((0, 0), (.5, .5))
        assert core.colors == service.colors == ColorSpec(modulus=2)


class TestWireV2:
    def test_constraints_round_trip(self):
        from repro.net import wire
        from repro.service import CPQRequest as ServiceCPQ

        request = ServiceCPQ(
            pair="default", k=4, algorithm="clipped",
            range=((0.7, 0.1), (0.2, 0.9)),
            colors={"modulus": 4, "colors_p": (1, 3),
                    "distinct": True},
        )
        envelope = wire.encode_request(request)
        assert envelope["v"] == wire.WIRE_VERSION
        assert envelope["v"] >= 2
        decoded = wire.loads_request(wire.dumps_request(request))
        assert decoded.range == request.range
        assert decoded.colors == request.colors

    def test_unconstrained_envelope_omits_fields(self):
        from repro.net import wire
        from repro.service import CPQRequest as ServiceCPQ

        envelope = wire.encode_request(ServiceCPQ(pair="default", k=2))
        assert "range" not in envelope and "colors" not in envelope

    def test_v1_envelope_still_accepted(self):
        from repro.net import wire

        decoded = wire.decode_request({"v": 1, "op": "cpq", "k": 3})
        assert decoded.k == 3
        assert decoded.range is None and decoded.colors is None

    def test_shorthand_forms_decode(self):
        from repro.net import wire

        decoded = wire.decode_request({
            "v": 2, "op": "cpq", "algorithm": "heap",
            "range": [[0.7, 0.1], [0.2, 0.9]], "colors": 4,
        })
        assert decoded.range == RangeSpec((0.2, 0.1), (0.7, 0.9))
        assert decoded.colors == ColorSpec(modulus=4)

    def test_color_dict_defaults_match_color_spec(self):
        from repro.net import wire

        decoded = wire.decode_request(
            {"v": 2, "op": "cpq", "colors": {"modulus": 3}}
        )
        assert decoded.colors == ColorSpec(modulus=3)

    def test_non_finite_window_rejected(self):
        from repro.net import wire

        body = (b'{"v": 2, "op": "cpq", "algorithm": "heap", '
                b'"range": {"lo": [NaN, 0.0], "hi": [1.0, 1.0]}}')
        with pytest.raises(wire.WireError, match="finite"):
            wire.loads_request(body)

    def test_future_version_rejected(self):
        from repro.net import wire

        with pytest.raises(wire.WireError, match="version"):
            wire.decode_request({"v": wire.WIRE_VERSION + 1, "op": "cpq"})

    def test_plan_range_selectivity_round_trips(self):
        from repro.net import wire
        from repro.service import PlanDecision

        plan = PlanDecision(
            algorithm="rcp", reason="ranged", estimated_accesses=1.0,
            estimated_distance=0.1, buffer_pages=0, height_p=2,
            height_q=2, k=5, range_selectivity=0.0123,
        )
        decoded = wire._decode_plan(wire._encode_plan(plan))
        assert decoded.range_selectivity == pytest.approx(0.0123)
