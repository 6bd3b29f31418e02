"""One name -> implementation registry for every pluggable layer.

Both registries — kernel backends
(:data:`repro.gpu.backends.KERNEL_BACKENDS`) and embedding tools
(:data:`repro.api.registry.TOOLS`) — resolve names through one
:class:`Registry`, so both layers accept the same spellings and fail with
the same error:

* names are case-insensitive and surrounding whitespace is ignored;
* ``None`` means the registry's default — and only ``None`` does (``""`` is
  an unknown name, not a request for the default);
* a registered name wins over an alias of the same spelling;
* an unknown name raises :class:`UnknownNameError` listing the options.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Mapping, TypeVar

__all__ = ["Registry", "UnknownNameError"]

T = TypeVar("T")


class UnknownNameError(KeyError, ValueError):
    """Raised when a name is not registered.

    A failed lookup (``KeyError``) that is also a bad option value
    (``ValueError``), so config validation and the CLI catch it as the
    latter without converting.
    """

    def __init__(self, kind: str, name: object, options: list[str]):
        super().__init__(f"unknown {kind} {name!r}; registered {kind}s: {', '.join(options)}")
        self.kind = kind
        self.name = name
        self.options = options

    def __str__(self) -> str:
        # KeyError.__str__ wraps the message in repr quotes; undo that so the
        # CLI can print the message verbatim.
        return self.args[0]


def _key(name: str) -> str:
    return name.strip().lower()


class Registry(Generic[T]):
    """Ordered ``name -> factory`` table with aliases and cached instances.

    ``kind`` names the registered things in error messages (``"kernel
    backend"``); ``default`` is the name ``None`` resolves to (no default
    makes ``None`` an unknown name).
    """

    def __init__(self, kind: str, factories: Mapping[str, Callable[..., T]], *,
                 default: str | None = None):
        self.kind = kind
        self.default = default
        self._factories: dict[str, Callable[..., T]] = {}
        self._aliases: dict[str, str] = {}
        self._instances: dict[str, T] = {}
        for name, factory in factories.items():
            self.register(name, factory)

    def names(self) -> list[str]:
        """Registered names (not aliases), in registration order."""
        return list(self._factories)

    def canonical(self, name: str | None) -> str:
        """The registered name ``name`` resolves to, or raise :class:`UnknownNameError`."""
        key = self.default if name is None else _key(name)
        if key not in self._factories:
            key = self._aliases.get(key, key)
            if key not in self._factories:
                raise UnknownNameError(self.kind, name, self.names())
        return key

    def factory(self, name: str | None) -> Callable[..., T]:
        """The factory registered under ``name`` (see :meth:`canonical`)."""
        return self._factories[self.canonical(name)]

    def get(self, spec: str | T | None) -> T:
        """One cached zero-argument instance per name.

        A non-string ``spec`` is an already-built implementation and passes
        through unchanged, so callers can inject pre-configured objects.
        """
        if spec is not None and not isinstance(spec, str):
            return spec
        key = self.canonical(spec)
        try:
            return self._instances[key]
        except KeyError:
            # setdefault keeps one instance per name even when two threads
            # build concurrently.
            return self._instances.setdefault(key, self._factories[key]())

    def register(self, name: str, factory: Callable[..., T], *,
                 aliases: Iterable[str] = (), replace: bool = False) -> None:
        """Register ``factory`` under ``name`` plus ``aliases``.

        Re-registering a name, or claiming an alias that is already a name or
        an alias, raises ``ValueError`` unless ``replace=True``.  A new name
        may shadow an existing alias: registered names win over aliases.
        """
        key = _key(name)
        alias_keys = [_key(a) for a in aliases]
        for k in [key, *alias_keys]:
            if not replace and (k in self._factories or (k != key and k in self._aliases)):
                raise ValueError(f"{self.kind} {k!r} is already registered "
                                 "(pass replace=True to override)")
        self._factories[key] = factory
        self._instances.pop(key, None)
        for alias in alias_keys:
            self._aliases[alias] = key

    def unregister(self, name: str) -> None:
        """Remove ``name``, its cached instance and the aliases pointing at it."""
        key = _key(name)
        self._factories.pop(key, None)
        self._instances.pop(key, None)
        for alias in [a for a, target in self._aliases.items() if target == key]:
            del self._aliases[alias]
