import numpy as np
import pytest

from shufflereg.rng import derive_seed, generator


def test_derive_seed_is_frozen_contract():
    # Golden values: the mixing function is part of the reproducibility
    # contract, so these must never change.
    assert derive_seed(0) == 16294208416658607535
    assert derive_seed(0, 0, 0) == 2558736989570252433
    assert derive_seed(42, "design") == 12634827355676058656
    assert derive_seed(-1, "noise") == 11905852718047954405
    assert derive_seed(12345, 3, 17) == 16588590063675450915


def test_derive_seed_depends_on_every_part():
    base = derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 3) != base
    assert derive_seed(7, 2, 2) != base
    assert derive_seed(8, 1, 2) != base
    assert derive_seed(7, 1, 2, "tag") != base


def test_string_and_int_parts_are_distinct():
    assert derive_seed(0, "1") != derive_seed(0, 1)
    assert derive_seed(0, "design") != derive_seed(0, "perm")


def test_generator_streams_are_reproducible_and_independent():
    a = generator(99, "design").standard_normal(8)
    b = generator(99, "design").standard_normal(8)
    c = generator(99, "noise").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("master,parts", [(0, ()), (42, ("design",)), (-1, ("noise",)), (7, (3, 17, "perm"))])
def test_generator_stream_is_philox_keyed_by_derive_seed(master, parts):
    expected = np.random.Philox(key=derive_seed(master, *parts))
    found = generator(master, *parts).bit_generator
    for key in ("key", "counter"):
        assert np.array_equal(found.state["state"][key], expected.state["state"][key])
    assert np.array_equal(found.random_raw(257), expected.random_raw(257))
    a = generator(master, *parts)
    b = np.random.Generator(np.random.Philox(key=derive_seed(master, *parts)))
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
    assert np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))
