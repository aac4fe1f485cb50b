import inspect

import pytest

from netconsensus import bench, consensus, data, gossip, rmt, sbm, spectra


@pytest.mark.parametrize("mod", [sbm, spectra, rmt, consensus, gossip, data, bench], ids=lambda m: m.__name__)
def test_all_names_the_public_functions_and_classes(mod):
    # perfbench/tracing.py wraps exactly the functions named in __all__: a
    # stale entry makes Tracer.install raise, a missing one goes untimed
    defined = {
        name for name, val in vars(mod).items()
        if not name.startswith("_") and (inspect.isfunction(val) or inspect.isclass(val))
        and val.__module__ == mod.__name__
    }
    assert set(mod.__all__) == defined


def test_network_public_names():
    # the split A = M + R is private to sbm: outside it a network's adjacency is read only
    # through product and edges, so neither the adjacency nor the split format comes back unnoticed
    public = {name for name in dir(sbm.Network) if not name.startswith("_")}
    assert public == {"n", "community_sizes", "degrees", "num_edges", "connected", "product", "edges"}
