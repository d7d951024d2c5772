"""The ```python examples of README.md, run as one doctest session."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_examples():
    text = README.read_text(encoding="utf-8")
    blocks = list(PYTHON_BLOCK.finditer(text))
    assert blocks, "README.md has no python examples"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs = {}
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), globs, README.name, str(README), lineno)
        runner.run(test, clear_globs=False)
        globs = test.globs  # later blocks reuse names from earlier ones
    assert runner.failures == 0
