"""The Margo instance: one engine plus its Argobots resource layout."""

from __future__ import annotations

from typing import Optional, Union

from repro.argobots import Pool
from repro.errors import ConfigError
from repro.mercury import Address, Engine, Fabric
from repro.monitor import tracing as _tracing


def check_pool_kind(spec: dict) -> None:
    """Refuse a pool spec naming any kind but ``fifo``, the one pool
    kind (Argobots' FIFO pool), by name."""
    kind = spec.get("kind", "fifo")
    if kind != "fifo":
        raise ConfigError(f"pool {spec.get('name')!r}: unknown kind "
                          f"{kind!r} (known: ['fifo'])")


class MargoInstance:
    """An engine with named pools and execution streams.

    ``argobots_config`` follows the Bedrock layout::

        {
          "pools":    [{"name": "p0", "kind": "fifo"}, ...],
          "xstreams": [{"name": "es0", "pools": ["p0", ...]}, ...],
        }

    If omitted, one pool and one xstream are created (Margo's default
    single-threaded mode).  The paper's configuration uses 16 rpc
    xstreams per HEPnOS process, each serving one provider's pool.
    """

    def __init__(self, fabric: Fabric, address: Union[str, Address],
                 argobots_config: Optional[dict] = None, tag: str = "",
                 listen: bool = True):
        with _tracing.span("margo.init", address=str(address)) as init_span:
            self._init(fabric, address, argobots_config, tag, listen,
                       init_span)

    def _init(self, fabric: Fabric, address: Union[str, Address],
              argobots_config: Optional[dict], tag: str, listen: bool,
              init_span) -> None:
        self.fabric = fabric
        addr = Address.parse(address) if isinstance(address, str) else address
        # The tag disambiguates runtime resource names when an instance
        # is rebuilt at the same address (provider restart): pools and
        # xstreams are registered once per runtime and never reused.
        self._prefix = f"{addr}#{tag}" if tag else str(addr)
        runtime = fabric.runtime
        self.pools: dict[str, Pool] = {}

        config = argobots_config or {}
        pool_specs = config.get("pools", [{"name": "__primary__", "kind": "fifo"}])
        for spec in pool_specs:
            name = spec.get("name")
            if not name:
                raise ConfigError("every pool needs a name")
            if name in self.pools:
                raise ConfigError(f"duplicate pool name {name!r}")
            check_pool_kind(spec)
            self.pools[name] = runtime.create_pool(f"{self._prefix}:{name}")

        xstream_specs = config.get(
            "xstreams",
            [{"name": "__primary__", "pools": [next(iter(self.pools))]}],
        )
        self.xstreams = {}
        for spec in xstream_specs:
            name = spec.get("name")
            if not name:
                raise ConfigError("every xstream needs a name")
            pool_names = spec.get("pools", [])
            if not pool_names:
                raise ConfigError(f"xstream {name!r} has no pools")
            try:
                pools = [self.pools[p] for p in pool_names]
            except KeyError as exc:
                raise ConfigError(
                    f"xstream {name!r} references unknown pool {exc.args[0]!r}"
                ) from None
            self.xstreams[name] = runtime.create_xstream(
                f"{self._prefix}:{name}", pools
            )

        first_pool = next(iter(self.pools.values()))
        rpc_pool_name = config.get("rpc_pool")
        if rpc_pool_name is not None and rpc_pool_name not in self.pools:
            raise ConfigError(f"rpc_pool {rpc_pool_name!r} is not a defined pool")
        rpc_pool = self.pools[rpc_pool_name] if rpc_pool_name else first_pool
        self.engine = Engine(fabric, addr, pool=rpc_pool, listen=listen)
        init_span.set_tag("pools", len(self.pools))
        init_span.set_tag("xstreams", len(self.xstreams))

    @property
    def address(self) -> Address:
        return self.engine.address

    def pool(self, name: str) -> Pool:
        try:
            return self.pools[name]
        except KeyError:
            raise ConfigError(f"no pool named {name!r}") from None

    def finalize(self) -> None:
        self.engine.finalize()
