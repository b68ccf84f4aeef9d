"""The README's library example runs, and the package exports what it names."""

import re
from pathlib import Path

import tnncells

README = Path(__file__).resolve().parents[1] / "README.md"

ERROR_TYPES = {"ConsistencyError", "DomainError", "ResourceGuardError"}


def _library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(_library_block(), namespace)
    verdict, descriptor = namespace["verdict"], namespace["descriptor"]
    assert verdict.is_tnn
    assert namespace["w"].one_line() == descriptor.permutation.one_line() == "135246"
    assert len(descriptor.family) == 6
    assert namespace["fam"] == descriptor.family


def test_the_package_exports_the_example_names_and_the_error_types():
    imported = re.search(r"from tnncells import \((.*?)\)", _library_block(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(tnncells.__all__) == names | ERROR_TYPES
    for name in tnncells.__all__:
        assert hasattr(tnncells, name), name
