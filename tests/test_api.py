"""The public API, pinned so that any change to it shows as a reviewed diff."""

import importlib
import pkgutil
import types
from pathlib import Path

import gapred


def _api_listing() -> str:
    """The public names of `gapred`, then each module's `__all__`, one name a line, sorted."""
    names = sorted(name for name, value in vars(gapred).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    blocks = [("gapred", names)]
    for info in pkgutil.iter_modules(gapred.__path__):
        if not info.name.startswith("_"):  # __main__ runs the CLI on import
            module = importlib.import_module(f"gapred.{info.name}")
            if hasattr(module, "__all__"):
                blocks.append((f"gapred.{info.name}.__all__", sorted(module.__all__)))
    return "".join(f"{title}\n" + "".join(f"    {name}\n" for name in names)
                   for title, names in blocks)


def test_public_api_is_pinned():
    # To regenerate after a deliberate API change, write _api_listing() to
    # tests/pinned_api.txt.
    expected = (Path(__file__).parent / "pinned_api.txt").read_text()
    assert _api_listing() == expected
