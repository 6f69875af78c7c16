import importlib
import pkgutil
import types

import monalg


def _modules_with_all():
    names = (info.name for info in pkgutil.iter_modules(monalg.__path__))
    mods = (importlib.import_module(f"monalg.{n}") for n in names if n != "__main__")
    return [mod for mod in mods if hasattr(mod, "__all__")]


def test_package_exports_exactly_the_modules_public_names():
    declared = set()
    for mod in _modules_with_all():
        for name in mod.__all__:
            assert getattr(monalg, name, None) is getattr(mod, name), (mod.__name__, name)
        declared.update(mod.__all__)
    public = {name for name, obj in vars(monalg).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public <= declared, public - declared


def test_every_error_is_an_algebra_error():
    errors = [obj for obj in vars(monalg).values()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and not issubclass(obj, Warning)]
    assert len(errors) >= 7
    for err in errors:
        assert issubclass(err, monalg.AlgebraError), err
    assert issubclass(monalg.SingularityError, monalg.NonInvertibleError)
