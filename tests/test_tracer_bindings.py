"""The benchmark's outside-in tracer (perfbench/tracer.py) patches fclt_lab
bindings by name; a refactor that drops one of those names breaks traced
benchmark runs, so installing and uninstalling it is checked here."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _bindings(tracer_cls):
    out = []
    for mod_name, attr, *_ in tracer_cls.FUNCTIONS:
        out.append((importlib.import_module(mod_name), attr))
    for mod_name, cls_name, attr, *_ in tracer_cls.METHODS:
        out.append((getattr(importlib.import_module(mod_name), cls_name), attr))
    for mod_name in tracer_cls.CHUNKED:
        out.append((importlib.import_module(mod_name), "run_chunked"))
    return out


def test_tracer_patches_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    bindings = _bindings(Tracer)
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    tracer = Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(bindings, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(bindings, originals))
