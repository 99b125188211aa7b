"""The README's ```python examples run as written and print what they say."""

import re
from pathlib import Path

from ocgr import load_bundle, recognize
from ocgr.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
DEMO = "/tmp/demo"  # the --out of the README's `ocgr gen --demo-grid`


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def _run(code: str, capsys) -> list[str]:
    exec(compile(code, str(README), "exec"), {})
    return capsys.readouterr().out.splitlines()


def test_library_example_reports_the_demo(tmp_path, capsys):
    """The library example, on the demo bundle ``ocgr gen --demo-grid`` writes."""
    demo = tmp_path / "demo"
    assert main(["gen", "--out", str(demo), "--demo-grid"]) == 0
    capsys.readouterr()
    code = _python_blocks()[0]
    assert DEMO in code
    out = _run(code.replace(DEMO, str(demo)), capsys)
    bundle = load_bundle(demo / "grid-demo")
    report = recognize(bundle.task, bundle.hyps, bundle.obs, method="delta-u")
    assert out == [f"{s.goal_index} {s.h} {s.h_hc} {s.delta}" for s in report.scores] + [
        f"{report.selected} {report.uncertainty}"]


def test_lp_example_prints_its_comment(capsys):
    """The LP example solves one LP without and with a floor, the second
    solve warm; it prints what its last line's comment says."""
    code = _python_blocks()[1]
    expected = code.rstrip().splitlines()[-1].split("# ", 1)[1]
    assert _run(code, capsys) == [expected]
