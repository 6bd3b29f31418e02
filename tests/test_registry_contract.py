"""One contract for every name -> implementation registry (:mod:`repro.registry`).

Kernel backends and tools both resolve names through
:class:`repro.registry.Registry`; each gets the same checks here, so the
layers cannot drift apart again.
"""

from __future__ import annotations

import pytest

from repro.api import UnknownToolError
from repro.api.registry import TOOLS
from repro.gpu import UnknownBackendError
from repro.gpu.backends import KERNEL_BACKENDS
from repro.registry import UnknownNameError

#: registry -> (a built-in name, the name None resolves to or None for "no default").
CASES = {
    "kernel": (KERNEL_BACKENDS, "reference", "vectorized"),
    "tool": (TOOLS, "gosh-fast", None),
}


class Dummy:
    pass


class Other:
    pass


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_every_unknown_error_is_one_class():
    assert {UnknownBackendError, UnknownToolError} == {UnknownNameError}
    assert issubclass(UnknownNameError, KeyError)
    assert issubclass(UnknownNameError, ValueError)


def test_lookup_is_case_insensitive(case):
    registry, name, _ = case
    assert registry.canonical(f"  {name.upper()} ") == name
    assert registry.factory(name.title()) is registry.factory(name)


def test_none_and_only_none_means_the_default(case):
    registry, _, default = case
    if default is None:
        with pytest.raises(UnknownNameError):
            registry.canonical(None)
    else:
        assert registry.canonical(None) == default
    with pytest.raises(UnknownNameError):
        registry.canonical("")


def test_unknown_name_error_lists_the_options(case):
    registry, name, _ = case
    with pytest.raises(UnknownNameError) as exc:
        registry.factory("warp-speed")
    assert isinstance(exc.value, KeyError) and isinstance(exc.value, ValueError)
    message = str(exc.value)
    assert message.startswith(f"unknown {registry.kind} 'warp-speed'; registered {registry.kind}s:")
    assert name in message
    assert exc.value.options == registry.names()


def test_instances_are_cached_and_objects_pass_through(case):
    registry = case[0]
    registry.register("contract-dummy", Dummy)
    try:
        first = registry.get("Contract-Dummy")
        assert isinstance(first, Dummy)
        assert registry.get("contract-dummy") is first
        injected = Other()
        assert registry.get(injected) is injected
    finally:
        registry.unregister("contract-dummy")


def test_duplicates_need_replace_and_unregister_drops_the_instance(case):
    registry, name, _ = case
    with pytest.raises(ValueError, match="already registered"):
        registry.register(name.upper(), Dummy)
    registry.register("contract-dummy", Dummy)
    try:
        assert registry.names()[-1] == "contract-dummy"
        cached = registry.get("contract-dummy")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("contract-dummy", Other)
        registry.register("contract-dummy", Other, replace=True)
        assert isinstance(registry.get("contract-dummy"), Other)
        registry.register("contract-dummy", Dummy, replace=True)
        assert registry.get("contract-dummy") is not cached
        cached = registry.get("contract-dummy")
    finally:
        registry.unregister("contract-dummy")
    assert "contract-dummy" not in registry.names()
    with pytest.raises(UnknownNameError):
        registry.get("contract-dummy")
    registry.register("contract-dummy", Dummy)
    try:
        assert registry.get("contract-dummy") is not cached
    finally:
        registry.unregister("contract-dummy")


def test_aliases(case):
    registry, name, _ = case
    registry.register("contract-dummy", Dummy, aliases=("Contract-Alias",))
    try:
        assert registry.canonical("CONTRACT-ALIAS") == "contract-dummy"
        assert "contract-alias" not in registry.names()
        # An alias may not silently claim a taken name or alias...
        for taken in (name, "contract-alias"):
            with pytest.raises(ValueError, match="already registered"):
                registry.register("contract-other", Other, aliases=(taken,))
        assert "contract-other" not in registry.names()
        # ...but a registered name wins over an alias of the same spelling.
        registry.register("contract-alias", Other)
        assert registry.canonical("contract-alias") == "contract-alias"
        registry.unregister("contract-alias")
        assert registry.canonical("contract-alias") == "contract-dummy"
    finally:
        registry.unregister("contract-dummy")
    with pytest.raises(UnknownNameError):
        registry.canonical("contract-alias")
