"""The one loader for the optional compiled kernel extension.

Every user of ``repro.core.segmented._ckernels`` finds it here: the
stat/event primitives (``repro.common.stats``/``repro.common.events``),
the IQ kernel engine and the fused rename loop
(``repro.core.segmented.kernels``).  The stat/event modules cannot import
the extension by name: the ``repro.core.segmented`` package ``__init__``
pulls in ``queue``, which imports ``stats`` — a cycle.  So this module
loads the shared object straight from its file path and registers it in
``sys.modules`` under its canonical name.

An extension is usable only when it is no older than ``_ckernels.c`` —
the same mtime rule ``repro.core.segmented.build.ensure_built`` uses to
decide on a rebuild — so a stale build never keeps running old code.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Optional

_MODULE_NAME = "repro.core.segmented._ckernels"

#: Directory holding ``_ckernels.c`` and its built extension.
_PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "core", "segmented")


def _stale(extension: str, source: str) -> bool:
    """True when ``source`` exists and is newer than ``extension``."""
    try:
        return os.path.getmtime(extension) < os.path.getmtime(source)
    except FileNotFoundError:
        return False


def load_extension() -> Optional[ModuleType]:
    """The compiled ``_ckernels`` module, or ``None`` when it is not built,
    fails to load, or is older than its source."""
    module = sys.modules.get(_MODULE_NAME)
    if module is not None:
        return module
    source = os.path.join(_PACKAGE_DIR, "_ckernels.c")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(_PACKAGE_DIR, "_ckernels" + suffix)
        if not os.path.exists(path):
            continue
        if _stale(path, source):
            return None
        try:
            spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception:
            return None
        sys.modules[_MODULE_NAME] = module
        return module
    return None


def compiled_kernels() -> Optional[ModuleType]:
    """The extension for the stat/event primitives: :func:`load_extension`,
    or ``None`` when ``REPRO_KERNELS=py``.  The swap happens at import
    time, so ``REPRO_KERNELS`` governs these primitives for the whole
    process; ``repro.core.segmented.set_backend`` only switches the IQ
    engine and the rename loop."""
    if os.environ.get("REPRO_KERNELS", "auto").strip().lower() == "py":
        return None
    return load_extension()
