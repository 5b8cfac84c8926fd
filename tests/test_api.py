import types

import uavloc as u


def test_all_names_the_public_api_only():
    assert "annotations" not in u.__all__
    assert not [name for name in u.__all__ if isinstance(getattr(u, name), types.ModuleType)]
    assert len(set(u.__all__)) == len(u.__all__)
    assert not [name for name in u.__all__ if name.startswith("_")]
    namespace = {}
    exec("from uavloc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(u.__all__)
    assert {"run_sweep", "mle_distance", "log_likelihood", "load_config"} <= set(u.__all__)
