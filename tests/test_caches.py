"""The package memoizes exactly four functions, each with a finite bound."""

import importlib
import pkgutil

import toricding
from toricding import HPolytope, geometry, volume


def caches():
    """Each memoized function once, named by the function it wraps, whatever
    modules or classes also hold it under another name."""
    found = {}
    for info in pkgutil.iter_modules(toricding.__path__):
        mod = importlib.import_module(f"toricding.{info.name}")
        for obj in vars(mod).values():
            for fn in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
                if hasattr(fn, "cache_info"):
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def test_every_cache_is_bounded():
    found = caches()
    assert set(found) == {"toricding.geometry._record",
                          "toricding.geometry._region_subdivision_cached",
                          "toricding.extremal.extremal_affine",
                          "toricding.lattice._fiber_rows"}
    assert [name for name, fn in found.items() if fn.cache_info().maxsize is None] == []


def test_cache_stays_within_its_bound():
    record = geometry._record
    bound = record.cache_info().maxsize
    for k in range(1, bound + 10):
        assert volume(HPolytope.from_inequalities(1, [([1], k), ([-1], 0)])) == k
    info = record.cache_info()
    assert info.currsize == info.maxsize
