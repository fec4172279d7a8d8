"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "[0.59638101] (2,)\n"
    # the round gives requester 1 the prediction of its own call
    assert namespace["predictions"][1].tobytes() == namespace["prediction"].tobytes()
