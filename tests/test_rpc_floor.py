"""The RPC floor as a count: Python-level calls per null ``exists``.

A timing gate depends on the machine; this one does not.  On the inline
fabric one ``DatabaseHandle.exists`` of an absent key walks the whole
small-RPC path (client encode + seal, forward, hand-off, dispatch,
``_serve``, respond, wake, decode) on one thread, and ``cProfile``'s
call count for it repeats exactly from run to run -- so the next
closure, wrapper frame or per-call object on that path fails here,
before any benchmark runs.  ``python tests/test_rpc_floor.py`` prints
the counts (CI puts them in the job summary).
"""

import cProfile
import pstats

import pytest

from repro import hepnos
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.mercury import Fabric

#: calls per null exists the path may make: (untagged, tenant + broker).
#: The tree before the hand-off rewrite made 268 and 321 on this
#: deployment; the rewrite left 160 and 213.
BUDGET = {False: 200, True: 250}
CALLS = 1000


def null_exists_calls(brokered: bool) -> float:
    """Mean calls per ``exists`` over ``CALLS`` calls on a ``map``
    deployment; ``brokered`` adds the tenant envelope and the broker."""
    fabric = Fabric()
    tenants = {"slots": 8, "interactive_reserve": 2} if brokered else None
    servers = [BedrockServer(fabric, default_hepnos_config(
        f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        tenants=tenants)) for i in range(2)]
    session = hepnos.connect(
        servers=servers, **({"tenant": "floor", "priority": "interactive"}
                            if brokered else {}))
    try:
        datastore = session.datastore
        db = datastore.handle_for_target(
            datastore.placement.product_database_for(b"no-such-event"))
        assert db.exists(b"no-such-event?") is False  # warm: handles, caches
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(CALLS):
            db.exists(b"no-such-event?")
        profile.disable()
        return pstats.Stats(profile).total_calls / CALLS
    finally:
        session.close()
        for server in servers:
            server.shutdown()


@pytest.mark.parametrize("brokered", [False, True],
                         ids=["untagged", "tenant+broker"])
def test_null_exists_stays_within_its_call_budget(brokered):
    first, second = null_exists_calls(brokered), null_exists_calls(brokered)
    assert abs(first - second) < 0.01, "the count must repeat exactly"
    assert first <= BUDGET[brokered], (
        f"a null exists makes {first:.0f} Python-level calls, "
        f"budget {BUDGET[brokered]}")


if __name__ == "__main__":
    for brokered, label in ((False, "untagged"), (True, "tenant + broker")):
        print(f"null exists, inline fabric, {label}: "
              f"{null_exists_calls(brokered):.0f} Python-level calls "
              f"(budget {BUDGET[brokered]})")
