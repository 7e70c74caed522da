"""segreg: jointly learned point segmentation and rigid registration.

The package bundles a small numpy-backed autodiff engine, point-cloud
geometry utilities, a kernel-point convolution backbone, straight-through
Gumbel-Softmax mask sampling, coarse-to-fine correspondence matching,
classical ICP/RANSAC baselines, a synthetic spine-phantom generator, and a
training/evaluation harness.  The ``segreg`` CLI ties everything into
reproducible runs.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
