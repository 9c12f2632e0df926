import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_report_matrix_reruns_byte_for_byte(tmp_path):
    # rerunning a command with the same input and seed reproduces its report exactly
    tool = _load_tool()
    first, second = tmp_path / "first", tmp_path / "second"
    runs = tool.write_matrix(first)
    assert tool.write_matrix(second) == runs == 127
    a, b = _tree(first), _tree(second)
    assert a == b
    reports = [name for name in a if name.startswith("reports")]
    assert len(reports) == runs + 1   # simulate writes .json and .csv
