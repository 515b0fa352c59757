import re
from pathlib import Path

import ddrom
from ddrom import core, decomp, metrics, opinf, pod, preprocess, regsearch, rom

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_every_module_name_once():
    modules = (core, decomp, metrics, opinf, pod, preprocess, regsearch, rom)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(ddrom.__all__) == set(names) | {"__version__"}
    assert all(hasattr(ddrom, name) for name in ddrom.__all__)


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("## Library")[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    training, prediction = re.search(
        r"training=\(([^,]+),\), prediction=\(([^,]+),\)", printed
    ).groups()
    assert float(training) < 1e-3 and float(prediction) < 1e-3, printed
