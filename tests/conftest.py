import importlib.util
import sys
from pathlib import Path

from hypothesis import settings

from pherm.spaces import Curv4, split_average_grid

sys.path.insert(0, str(Path(__file__).parent))

# property tests replay one fixed, bounded set of examples on every run
settings.register_profile("pherm", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("pherm")


def load_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def pair_split(q, name):
    """The +/- parts of the Curv4 q under J ("j") or tau ("tau") conjugation of both
    slot pairs, tagged name_plus / name_minus; tau needs a space with torsion."""
    P = q.space.J_pair if name == "j" else q.space.require_torsion()
    keep = q.tags & {"pair_symmetric"}
    return tuple(
        Curv4(q.space, split_average_grid(q.entries, P, sign), keep | {f"{name}_{part}"})
        for sign, part in ((+1, "plus"), (-1, "minus"))
    )
