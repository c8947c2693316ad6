"""Options that became constants are refused by name, never ignored."""

import pytest

from repro import hepnos
from repro.hepnos import DataLoader
from repro.hepnos.failover import enable_replication
from repro.monitor import diagnose


@pytest.mark.parametrize("call", [
    lambda: hepnos.connect(client_address="sm://hepnos-client/x"),
    lambda: DataLoader(None, "ds", flush_threshold=4096),
    lambda: enable_replication([], window=8),
    lambda: diagnose(skew_threshold=1.5),
], ids=["connect-client_address", "DataLoader-flush_threshold",
        "enable_replication-window", "diagnose-skew_threshold"])
def test_removed_keyword_is_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()
