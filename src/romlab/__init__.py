"""romlab: POD/Galerkin and Leray-regularized reduced order models for
the 2D incompressible Navier-Stokes manufactured-solution benchmark.

The top level re-exports what the demos use; everything else is
imported from its submodule (romlab.rom, romlab.study, ...).
"""

# study imports every other module of the pipeline, so `import romlab`
# loads them all before anything (perfbench's tracer, for one) patches
# their functions; a module first loaded while the functions are
# patched would bind the patched objects.
from . import study
from .exact import AnalyticSolution
from .fe import assemble_mass, assemble_stiffness, build_space
from .pod import build_pod_basis, collect_snapshots, truncation_errors

__version__ = "0.1.0"
