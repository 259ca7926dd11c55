"""romlab: POD/Galerkin and Leray-regularized reduced order models for
the 2D incompressible Navier-Stokes manufactured-solution benchmark.

Every public name is imported from its submodule (romlab.fe,
romlab.pod, romlab.study, ...); the top level holds no re-exports.
"""

# study imports every other module of the pipeline, so `import romlab`
# loads them all before anything (perfbench's tracer, for one) patches
# their functions; a module first loaded while the functions are
# patched would bind the patched objects.
from . import study

__version__ = "0.1.0"
