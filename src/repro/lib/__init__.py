"""The HILTI standard component library.

The paper envisions HILTI shipping "an extensive library of reusable
higher-level components, such as packet reassemblers, session tables with
built-in state management, and parsers for specific protocols" (§1), with
HILTI providing "both the means to implement such components as well as
the glue for their integration".  This package is that library's seed:

* ``SESSION_TABLE`` — a session table *written in HILTI itself*: keyed
  per-session state with inactivity expiration and an eviction hook any
  host application can attach analysis to (``repro.lib.session_table``).
* The TCP stream reassembler lives in ``repro.net.reassembly`` and the
  protocol parsers in ``repro.apps.binpac.grammars``; this package links
  the HILTI-source components.

Components are plain HILTI modules: pass them to ``hiltic`` alongside the
application's own modules and call them cross-module, exactly how the
paper's "lingua franca for expressing their internals" is meant to work.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".session_table": ("SESSION_TABLE", "SessionTable"),
})
