"""Options that became constants are refused by name, never ignored."""

import pytest

from repro import hepnos, serial
from repro.serial import archive
from repro.hepnos import DataLoader, DataStore, PEPOptions
from repro.hepnos.failover import enable_replication
from repro.monitor import diagnose


@pytest.mark.parametrize("call", [
    lambda: hepnos.connect(client_address="sm://hepnos-client/x"),
    lambda: hepnos.connect(metrics=None),
    lambda: hepnos.connect(quota=None),
    lambda: DataStore(None, None, placement=None),
    lambda: DataStore(None, None, metrics=None),
    lambda: DataStore.connect(None, None, metrics=None),
    lambda: DataLoader(None, "ds", flush_threshold=4096),
    lambda: enable_replication([], window=8),
    lambda: diagnose(skew_threshold=1.5),
    lambda: PEPOptions(load_retries=1),
    lambda: PEPOptions(on_load_failure="skip"),
], ids=["connect-client_address", "connect-metrics", "connect-quota",
        "DataStore-placement", "DataStore-metrics",
        "DataStore.connect-metrics", "DataLoader-flush_threshold",
        "enable_replication-window", "diagnose-skew_threshold",
        "PEPOptions-load_retries", "PEPOptions-on_load_failure"])
def test_removed_keyword_is_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()


@pytest.mark.parametrize("name", ["compiled_for", "fast_path",
                                  "fast_path_enabled", "set_fast_path"])
def test_removed_serial_switch_is_gone(name):
    # one row codec: there is no compiled path to switch to or ask about
    assert not hasattr(serial, name)
    assert not hasattr(archive, name)
