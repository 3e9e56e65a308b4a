"""Every annotation in ``qidx`` must resolve.

Annotations are postponed (PEP 563), so a name that no longer exists in
its module goes unnoticed until a tool evaluates it.  ``get_type_hints``
evaluates each one in its module's namespace and raises on any it cannot.
"""

import importlib
import inspect
import pkgutil
import typing

import qidx


def _annotated():
    """Each qidx module, its own functions and classes, and their methods."""
    for info in pkgutil.iter_modules(qidx.__path__):
        mod = importlib.import_module(f"qidx.{info.name}")
        yield mod
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                yield obj
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        attr = attr.fget
                    attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
                    if inspect.isfunction(attr):
                        yield attr
            elif inspect.isfunction(inspect.unwrap(obj)):
                yield obj


def test_every_annotation_resolves():
    objs = list(_annotated())
    unresolved = []
    for obj in objs:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{getattr(obj, '__qualname__', obj)}: {exc}")
    assert unresolved == []
    names = {getattr(obj, "__qualname__", None) for obj in objs}
    # the walk reaches methods, properties, classmethods and cached functions
    assert {"LaurentPoly.as_unit", "IdentityDescriptor.params", "SpecMonomial.signed",
            "_feasible", "parse_expr"} <= names
