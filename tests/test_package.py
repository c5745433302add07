"""Package surface: the README example and the no-assert rule for src."""

import ast
import re
from pathlib import Path

import privagg

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_runs_from_the_package_root(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace: dict = {}
    exec(example, namespace)
    assert namespace["t"].result.total == 26
    assert privagg.__all__ == ["ScenarioConfig", "run_scenario"]


def test_no_assert_statements_in_src():
    """Invariants are checked at runtime; ``python -O`` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "privagg").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
