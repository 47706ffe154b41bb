"""gripsense: vision-based tactile gripper perception toolkit and simulator.

Submodules
----------
core      shared types, rectification, differencing, file formats
sim       deterministic synthetic tactile sensor and grasp scenes
geometry  RGB-to-normal calibration and Poisson heightmap integration
force     normal force from motor current, shear force from field decomposition
slip      contact segmentation and slip detection / evaluation
softness  pairwise softness ranking (clip embedder + bilinear comparator)
harvest   simulated harvesting ablation (open-loop / slip / slip+force)
config    flat key=value configuration with schema validation
cli       command-line entry point wiring everything together
"""

# numba is not used; the benchmark's machine record (perfbench/run.py) reads this
USING_NUMBA = False

__version__ = "0.1.0"

__all__ = ["USING_NUMBA", "__version__"]
