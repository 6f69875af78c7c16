import importlib
import pkgutil
import re
import types
from pathlib import Path

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


_REPO = Path(__file__).resolve().parent.parent


def _library_api_names() -> set:
    """The backticked names in the first column of README's "Library API" table."""
    readme = (_REPO / "README.md").read_text()
    section = readme.partition("\n## Library API\n")[2].partition("\n## ")[0]
    return {name for line in section.splitlines() if line.startswith("|")
            for name in re.findall(r"`(\w+)`", line.split("|")[1])}


def test_every_public_name_has_a_caller():
    # a public name is called in the package, a demo or the benchmark, or the
    # README lists it as library API beside the paper object it implements;
    # tests do not count, and neither do the benchmark tracer's string keys
    src = "\n".join(re.sub(r"__all__ = \[.*?\]", "", path.read_text(), flags=re.S)
                    for path in sorted(Path(monalg.__file__).parent.glob("*.py")))
    demos = "\n".join(path.read_text() for path in sorted((_REPO / "demos").glob("*.py")))
    bench = "\n".join(path.read_text() for path in sorted((_REPO / "perfbench").glob("*.py")))
    listed = _library_api_names()
    uncalled = []
    for mod in _modules_with_all():
        for name in mod.__all__:
            own = re.sub(rf"^\s*(?:def|class) {name}\b.*$", "", src, flags=re.M)
            if not (re.search(rf"\b{name}\b", own) or re.search(rf"\b{name}\b", demos)
                    or re.search(rf"\bM\.{name}\b", bench) or name in listed):
                uncalled.append(name)
    assert not uncalled, uncalled
