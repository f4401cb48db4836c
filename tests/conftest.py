import importlib.util
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def load_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
