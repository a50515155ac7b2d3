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
    module: str, exports: Mapping[str, Iterable[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``module`` that resolves ``exports``.

    ``exports`` maps each module of ``module``'s package (the package
    itself, for an ``__init__``) to the names it defines
    (``{"columnar": ("ColumnarTrial",)}``).  A resolved name is stored on
    ``module``, so later lookups never reach the hook.
    """
    submodule_of = {
        name: submodule for submodule, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        submodule = submodule_of.get(name)
        if submodule is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        owner = sys.modules[module]
        value = getattr(
            importlib.import_module(f".{submodule}", owner.__package__), name
        )
        setattr(owner, name, value)
        return value

    return __getattr__
