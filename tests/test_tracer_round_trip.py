"""The repository benchmark's tracer still finds every call it wraps.

``perfbench/tracing.py`` patches the program's public calls by module,
class and attribute name (``WRAPPED``), so a renamed or moved target
breaks traced benchmark runs.  Installing and uninstalling the tracer,
without simulating anything, must patch every target and leave each
owner's namespace exactly as it was: an inherited method is set on the
subclass while traced and deleted from it again afterwards.
"""

import importlib

from perfbench.tracing import WRAPPED, Tracer


def _owner(module_name, owner_name):
    module = importlib.import_module(module_name)
    return getattr(module, owner_name) if owner_name else module


def test_tracer_patches_every_target_and_restores_every_owner():
    targets = [(_owner(module_name, owner_name), attr)
               for module_name, owner_name, attr, _, _ in WRAPPED]
    owners = {id(owner): owner for owner, _ in targets}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = Tracer().install()
    try:
        patched = {(id(owner), attr) for owner, attr in targets
                   if vars(owner).get(attr)
                   is not before[id(owner)].get(attr)}
    finally:
        tracer.uninstall()
    assert len(patched) == len(WRAPPED) == 24
    assert {key: dict(vars(owner)) for key, owner in owners.items()} \
        == before
