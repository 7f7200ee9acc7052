"""Pinned page images of the packed index kinds.

A packed tree is fully described by its page file: which entries each
node holds, in which order, under which page id, and the exact bytes of
every bound (``0.0`` and ``-0.0`` included).  Query costs, answers and
tie order all follow from it.  These constants were recorded from the
object-based STR packer (one ``LeafEntry`` per point, Python ``sorted``
per slab, ``MBR.union_all`` per node) and pin, per build:

* the root page id, the tree height and the number of pages;
* a SHA-256 of every page image, in page-id order.

Any rewrite of the packers must reproduce them byte for byte.
"""

import hashlib
import random

import pytest

from repro.datasets import sequoia_like, uniform_points
from repro.rtree.bulk import bulk_load
from repro.rtree.grid import grid_load
from repro.rtree.tree import RTreeConfig
from repro.storage.page import PageLayout

D3 = RTreeConfig(layout=PageLayout(dimension=3))
#: M = 4, m = 1: two entries per packed node, so trees are deep.
TINY = RTreeConfig(layout=PageLayout(page_size=16 + 4 * 48))


def _random(n, dimension, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for __ in range(dimension))
            for __ in range(n)]


def _choices(n, dimension, values, seed):
    rng = random.Random(seed)
    return [tuple(rng.choice(values) for __ in range(dimension))
            for __ in range(n)]


def _collinear(n, seed):
    rng = random.Random(seed)
    return [(t, 2.0 * t + 0.125) for t in
            (rng.random() for __ in range(n))]


def _vertical(n, seed):
    rng = random.Random(seed)
    return [(0.5, rng.choice((rng.random(), 0.25))) for __ in range(n)]


def _signed_zeros(n, seed):
    return _choices(n, 2, (0.0, -0.0), seed)


def _zeros_mix(n, seed):
    return _choices(n, 2, (0.0, -0.0, 0.5, -0.5, -1.0), seed)


#: name -> zero-argument tree builder.
BUILDS = {
    "str_d2": lambda: bulk_load(_random(3000, 2, 1)),
    "str_d3": lambda: bulk_load(_random(3000, 3, 2), config=D3),
    "str_two_values": lambda: bulk_load(_choices(800, 2, (0.25, 0.75), 3)),
    "str_two_values_d3": lambda: bulk_load(
        _choices(800, 3, (0.25, 0.75), 4), config=D3),
    "str_collinear": lambda: bulk_load(_collinear(1000, 5)),
    "str_vertical_line": lambda: bulk_load(_vertical(1000, 6)),
    "str_signed_zeros": lambda: bulk_load(_signed_zeros(700, 7)),
    "str_zeros_mix": lambda: bulk_load(_zeros_mix(1500, 8)),
    "str_zeros_mix_d3": lambda: bulk_load(
        _choices(1500, 3, (0.0, -0.0, 0.5, -0.5, -1.0), 9), config=D3),
    "str_n1": lambda: bulk_load([(0.3, 0.7)]),
    "str_n_per_node": lambda: bulk_load(_random(14, 2, 10)),
    "str_n_per_node_plus_1": lambda: bulk_load(_random(15, 2, 11)),
    "str_resplit_tail": lambda: bulk_load(_random(46, 2, 12), fill=1.0),
    "str_resplit_tail_553": lambda: bulk_load(
        _random(553, 2, 21), fill=1.0),
    "str_resplit_tail_d3": lambda: bulk_load(
        _random(359, 3, 13), config=D3, fill=1.0),
    "str_fill_1": lambda: bulk_load(_random(2000, 2, 14), fill=1.0),
    "str_tiny_pages": lambda: bulk_load(_random(300, 2, 15), config=TINY),
    "str_oids": lambda: bulk_load(
        _random(1200, 2, 16),
        oids=[(i * 7_919 + 3) % 2**40 for i in range(1200)]),
    "grid_d2": lambda: grid_load(_random(3000, 2, 17)),
    "grid_d3": lambda: grid_load(_random(3000, 3, 18), config=D3),
    "grid_zeros_mix": lambda: grid_load(_zeros_mix(1500, 19)),
    "grid_oids_fill_1": lambda: grid_load(
        _random(992, 2, 20), oids=[5 * i + 1 for i in range(992)],
        fill=1.0),
    "grid_n1": lambda: grid_load([(0.3, 0.7)]),
    "sequoia_62536": lambda: bulk_load(
        [tuple(p) for p in sequoia_like(62_536)]),
    "uniform_62536": lambda: bulk_load(
        [tuple(p) for p in uniform_points(62_536)]),
}

#: name -> (root page id, height, pages, SHA-256 of the page images).
PINS = {
    "str_d2": (
        228, 4, 229,
        "ed424c3fe3b6e825d0194295923a0ee476adef196abad6b883b99e93150eb97d"),
    "str_d3": (
        272, 4, 273,
        "4feb2663d875c92afd3c014f16040efcf660a3d6391f30c55a5aa2429af573ff"),
    "str_two_values": (
        60, 3, 61,
        "f72775c6a07a9683a38e38db00c55946c7d7f16c9dad4a8dd53c726c0e0b6d65"),
    "str_two_values_d3": (
        64, 3, 65,
        "76d17e6674c34d293fa24f986fbe28d52387d4c40e193863da24baa47a14f34a"),
    "str_collinear": (
        77, 3, 78,
        "42ec9e1c1a76a5271cd790d9590bea27c777f23e95e5533945b279ca5557ef76"),
    "str_vertical_line": (
        77, 3, 78,
        "1f7f113e67f518a2e6d8b6bcc1f37c1c48a2fdbbacd5b4ed3aefa159a4eed766"),
    "str_signed_zeros": (
        52, 3, 53,
        "528a0b5dc0a4b08acaa831641a90222db4664258fa88408bd33910174d2dfe2d"),
    "str_zeros_mix": (
        118, 3, 119,
        "acf35f70e12d855f300d9eaba5bdf0c698e3c6d0d39f334ed4c9a8d14ee4d9eb"),
    "str_zeros_mix_d3": (
        137, 3, 138,
        "805407529caf83d595e48b616b30f77c0e40bac19651c580f1e4afde97bd2c17"),
    "str_n1": (
        0, 1, 1,
        "416271ec17c4efc126fee6f601c5014ed6ce72c16e3fb21f6eb2b6258af4be38"),
    "str_n_per_node": (
        0, 1, 1,
        "cf9dc2f32b5ea5e3bd0166dfddf0238efc3493cee0426fe6c7ce36646c3773dd"),
    "str_n_per_node_plus_1": (
        2, 2, 3,
        "67e579fef794739ed9dea72c8e4c6aa95f7b9be573b77791218eb57a5d12a503"),
    "str_resplit_tail": (
        4, 2, 5,
        "cc46390e9b7fc02537cb952f30835e2d80c7a1235d86e05a1569af25bb4c3335"),
    "str_resplit_tail_553": (
        32, 3, 33,
        "d13279fa0d828e136db74293524dbaf3cf16fa6a370872851974e1f441a49003"),
    "str_resplit_tail_d3": (
        29, 3, 30,
        "a1ec625f9a3b0f2622aeb33994364126b32cd7e8e389ca91a96b642aa6560647"),
    "str_fill_1": (
        106, 3, 107,
        "98c419efbb0a27254f3aa5176de954f6d80316663346a2186ee22cf7d5c18680"),
    "str_tiny_pages": (
        313, 9, 314,
        "43b6dd1b3e860393c34361e1116160f933ebae5fe3cf69e4efd33a00bf65dd65"),
    "str_oids": (
        96, 3, 97,
        "93c84d97e3ba329a7f57310c360e4c01e3ebfd1ce762a48940cf0d69bcd395d3"),
    "grid_d2": (
        232, 4, 233,
        "f5117245680ebde308d821f94adb0d1e3ad95530830a9c09b56571006e154734"),
    "grid_d3": (
        270, 4, 271,
        "4ad38b6a34cb1cc00c2de989d7d400e9445cafb4edc263ed80f0e35855f2202d"),
    "grid_zeros_mix": (
        116, 3, 117,
        "d5419f9d6a4551145283128a8b8bd17aa1e8235abcc0eb4553847597779cd327"),
    "grid_oids_fill_1": (
        52, 3, 53,
        "239c9a46278290342aad4a03dcf0085aeccc2259cf94fe054cba995ef5359a2d"),
    "grid_n1": (
        0, 1, 1,
        "416271ec17c4efc126fee6f601c5014ed6ce72c16e3fb21f6eb2b6258af4be38"),
    "sequoia_62536": (
        4836, 5, 4837,
        "7693eb6a4950561ab2c406818a2e614528183c9fddff6247327246db6c7ea2c7"),
    "uniform_62536": (
        4836, 5, 4837,
        "bafb9c0bc15f555a6b3c838a3ad63f85251722603b384c4f60435df34f1f4950"),
}


def fingerprint(tree):
    store = tree.file.store
    digest = hashlib.sha256()
    for page_id in range(len(store)):
        digest.update(store.read(page_id))
    return tree.root_id, tree.height, len(store), digest.hexdigest()


@pytest.mark.parametrize("name", list(BUILDS))
def test_page_images_match_pins(name):
    assert fingerprint(BUILDS[name]()) == PINS[name]
