"""Replace an analysis entry point in every ``repro`` module that
imported it by name, so a test sees every call the pipeline makes."""

import sys


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Point every ``repro.*`` module attribute bound to ``original``
    at ``replacement`` for the duration of the test."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, original) -> list:
    """Wrap ``original`` everywhere with a counter; returns a one-item
    list holding the number of calls so far."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, original, counted)
    return calls
