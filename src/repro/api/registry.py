"""Global tool registry: name -> :class:`~repro.api.protocol.EmbeddingTool`.

The registry is the one place the harness, CLI, service, and evaluation
pipeline resolve tools, so adding a backend is a single ``register_tool``
call instead of edits in four modules.  A registration stores a factory
that is called with keyword options (``dim``, ``epoch_scale``, ``device``,
``seed``, …) and returns a tool instance — typically the tool class itself.
The built-in tools register themselves in :mod:`repro.api.tools`, in the
presentation order of the Table 6 suite.
"""

from __future__ import annotations

from ..registry import Registry, UnknownNameError
from .protocol import EmbeddingTool

__all__ = [
    "TOOLS",
    "UnknownToolError",
    "register_tool",
    "unregister_tool",
    "get_tool",
    "available_tools",
    "tool_descriptions",
]

#: No default: every caller names its tool.
TOOLS: Registry[EmbeddingTool] = Registry("tool", {})

UnknownToolError = UnknownNameError
register_tool = TOOLS.register
unregister_tool = TOOLS.unregister
#: Registered tool names, in registration (presentation) order.
available_tools = TOOLS.names


def get_tool(name: str, **options) -> EmbeddingTool:
    """Instantiate the tool registered under ``name`` (case-insensitive).

    Keyword ``options`` are forwarded to the factory; the built-in tools all
    accept ``dim``, ``epoch_scale``, ``device`` and ``seed``; a keyword the
    tool does not take raises ``TypeError``.
    """
    return TOOLS.factory(name)(**options)


def tool_descriptions(**options) -> list[dict[str, object]]:
    """One row per registered tool: name, display name, description.

    A registration that fails to instantiate (incompatible factory
    signature, a plugin that raises) still gets a row describing the
    failure — the listing is the diagnostic surface, so it must not die on
    one bad plugin.
    """
    rows = []
    for name in available_tools():
        try:
            tool = get_tool(name, **options)
            rows.append({
                "name": name,
                "display": tool.display_name,
                "description": tool.describe(),
            })
        except Exception as exc:  # report, don't crash the listing
            rows.append({
                "name": name,
                "display": "-",
                "description": f"unavailable: {exc.__class__.__name__}: {exc}",
            })
    return rows
