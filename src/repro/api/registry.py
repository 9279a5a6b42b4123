"""String-keyed scheme registry: ``get_scheme("riblt")`` and friends.

Every reconciliation scheme in the repo registers itself here under a
stable name, together with its capability flags and parameter dataclass.
Benchmarks, examples, the CLI, and the network protocols all select
schemes through this registry, so "same workload, any scheme" is one
string away::

    from repro.api import get_scheme, available_schemes

    handle = get_scheme("pinsketch", symbol_size=8, capacity=20)
    sketch = handle.new(alice_items)

Adapters live in :mod:`repro.api.adapters`; importing :mod:`repro.api`
populates the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Type

from repro.api.base import (
    Capabilities,
    SchemeParams,
    SetReconciler,
    as_item_list,
)
from repro.core.symbols import SymbolCodec
from repro.hashing.keyed import Blake2bHasher


@dataclass(frozen=True)
class SchemeInfo:
    """One registry entry: identity, behaviour flags, and classes."""

    name: str
    summary: str
    capabilities: Capabilities
    param_class: Type[SchemeParams]
    reconciler_class: Type[SetReconciler]


_REGISTRY: dict[str, SchemeInfo] = {}


def register_scheme(
    name: str,
    *,
    summary: str,
    capabilities: Capabilities,
    param_class: Type[SchemeParams],
    reconciler_class: Type[SetReconciler],
) -> SchemeInfo:
    """Add a scheme to the registry (called at adapter import time)."""
    if name in _REGISTRY:
        raise ValueError(f"scheme {name!r} is already registered")
    info = SchemeInfo(name, summary, capabilities, param_class, reconciler_class)
    _REGISTRY[name] = info
    reconciler_class.scheme = name
    return info


def available_schemes() -> list[str]:
    """Registered scheme names, sorted."""
    return sorted(_REGISTRY)


def scheme_info(name: str) -> SchemeInfo:
    """The registry entry for ``name`` (KeyError lists what exists)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        ) from None


class Scheme:
    """A scheme bound to concrete parameters — the user-facing handle."""

    def __init__(self, info: SchemeInfo, params: SchemeParams) -> None:
        self.info = info
        self.params = params

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def capabilities(self) -> Capabilities:
        return self.info.capabilities

    def with_params(self, **overrides: object) -> "Scheme":
        """A new handle with some parameters replaced."""
        return Scheme(self.info, replace(self.params, **overrides))

    def sized_for(self, difference: int) -> "Scheme":
        """A handle whose sketch is provisioned for ``difference`` items."""
        params = self.info.reconciler_class.params_for_difference(
            self.params, difference
        )
        return Scheme(self.info, params)

    def bound_to(self, *collections: Iterable[bytes]) -> "Scheme":
        """This handle with ``symbol_size`` pinned — the repo's one
        inference site: an unset size is the length of the first item of
        the first non-empty collection (each must be re-iterable)."""
        if self.params.symbol_size is not None:
            return self
        for items in collections:
            for item in items:
                return self.with_params(symbol_size=len(item))
        raise ValueError(
            f"scheme {self.name!r}: symbol_size must be given explicitly "
            "when building from an empty set"
        )

    # What a peer derives from its handle — cached, so every host, machine
    # and backend sharing the handle shares one (stateless) codec.  Read
    # them off a handle whose symbol_size is bound.

    @cached_property
    def codec(self) -> Optional[SymbolCodec]:
        """The scheme's SymbolCodec when its params describe one."""
        params = self.params
        if hasattr(params, "checksum_size") and hasattr(params, "hasher"):
            from repro.api.adapters.cellpack import codec_for

            return codec_for(params)  # type: ignore[arg-type]
        return None

    @cached_property
    def hash64(self) -> Callable[[bytes], int]:
        """The keyed 64-bit hash both peers share: shard placement for
        every scheme, and the codec's checksum hash where there is one."""
        if self.codec is not None:
            return self.codec.hasher.hash64
        return Blake2bHasher().hash64

    @cached_property
    def key_probe(self) -> int:
        """The handshake probe identifying this peer's (hasher, key)."""
        from repro.service.shard import key_probe

        return key_probe(self.hash64)

    def new(self, items: Iterable[bytes]) -> SetReconciler:
        """Build a live sketch of ``items`` (symbol_size inferred if unset)."""
        materialised = as_item_list(items, self.params.symbol_size)
        return self.info.reconciler_class.from_items(
            materialised, self.bound_to(materialised).params
        )

    def deserialize(self, blob: bytes) -> SetReconciler:
        """Rebuild a received sketch (needs an explicit symbol_size)."""
        if self.params.symbol_size is None:
            raise ValueError(
                f"scheme {self.name!r}: deserialize needs an explicit symbol_size"
            )
        return self.info.reconciler_class.deserialize(blob, self.params)

    def __repr__(self) -> str:
        return f"Scheme({self.name!r}, {self.params!r})"


def get_scheme(name: "str | Scheme", **params: object) -> Scheme:
    """Look up ``name`` and bind keyword parameters to its dataclass.

    Unknown keyword arguments raise ``TypeError`` with the scheme's
    accepted parameter names, so callers discover each scheme's knobs
    without reading the adapter.  An already-bound :class:`Scheme`
    passes through (and then takes no parameters), so every entry point
    that accepts "a scheme name or a handle" resolves it here.
    """
    if isinstance(name, Scheme):
        if params:
            raise TypeError(
                "pass parameters either in the Scheme handle or as kwargs, not both"
            )
        return name
    info = scheme_info(name)
    accepted = {f.name for f in fields(info.param_class)}
    unknown = set(params) - accepted
    if unknown:
        raise TypeError(
            f"scheme {name!r} does not accept {sorted(unknown)}; "
            f"accepted parameters: {sorted(accepted)}"
        )
    return Scheme(info, info.param_class(**params))  # type: ignore[arg-type]
