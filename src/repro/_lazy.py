"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that imported every re-exported name eagerly
would make any import of any of its submodules pay for all of them:
numpy behind the columnar model, the seven importers behind
``repro.core.io_``, the whole analysis toolkit.  Such a package lists
its names by the submodule that defines them, and a submodule loads
the first time one of its names is looked up on the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package`` that resolves ``exports``.

    ``exports`` maps each submodule of ``package`` to the names it
    defines (``{"columnar": ("ColumnarTrial",)}``).  A resolved name is
    stored on the package, so later lookups never reach the hook.
    """
    submodule_of = {
        name: submodule for submodule, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        submodule = submodule_of.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{submodule}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
