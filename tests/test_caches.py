"""Every memoized function of the package has a finite bound."""

import importlib
import pkgutil

import toricding
from toricding import HPolytope, geometry, volume


def caches():
    for info in pkgutil.iter_modules(toricding.__path__):
        mod = importlib.import_module(f"toricding.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                yield f"{info.name}.{name}", obj


def test_every_cache_is_bounded():
    found = dict(caches())
    assert {"geometry._record", "geometry.vertices", "extremal.covariance",
            "lattice._fiber_rows", "lattice.jump_weights"} <= set(found)
    assert [name for name, fn in found.items() if fn.cache_info().maxsize is None] == []


def test_cache_stays_within_its_bound():
    bound = volume.cache_info().maxsize
    for k in range(1, bound + 10):
        assert volume(HPolytope.from_inequalities(1, [([1], k), ([-1], 0)])) == k
    for fn in (volume, geometry._record):
        info = fn.cache_info()
        assert info.currsize == info.maxsize
