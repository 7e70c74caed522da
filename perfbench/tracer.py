"""Outside-in span tracer for the segreg benchmark.

The tracer replaces segreg's public functions with timing wrappers at every
module attribute that holds them, which is where callers look them up
(``segreg.kpconv.radius_neighbors`` as well as
``segreg.geometry.radius_neighbors``), and puts the originals back when the
``installed()`` block ends.  Spans (name, start, end, parent, phase, loop
index) are kept in memory.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# span name -> (defining module, function name).  The span name is the layer
# name used by the per-layer metrics.
LAYERS = {
    "geometry.radius_neighbors": ("segreg.geometry", "radius_neighbors"),
    "geometry.knn": ("segreg.geometry", "knn"),
    "geometry.voxel_grid_subsample": ("segreg.geometry", "voxel_grid_subsample"),
    "kpconv.build_pyramid": ("segreg.kpconv", "build_pyramid"),
    "kpconv.conv_influence": ("segreg.kpconv", "conv_influence"),
    "kpconv.local_reference_frames": ("segreg.kpconv", "local_reference_frames"),
    "kpconv.kpconv_apply": ("segreg.kpconv", "kpconv_apply"),
    "networks.build_context": ("segreg.networks", "build_context"),
    "networks.seg_forward": ("segreg.networks", "seg_forward"),
    "networks.reg_backbone_forward": ("segreg.networks", "reg_backbone_forward"),
    "autodiff.backward": ("segreg.autodiff", "backward"),
    "pipeline.prepare_sample": ("segreg.pipeline", "prepare_sample"),
    "pipeline.register_pair": ("segreg.pipeline", "register_pair"),
    "pipeline.training_loss": ("segreg.pipeline", "training_loss"),
    # self time of train() is the step minus forward and backward: clipping,
    # the momentum update and the loop itself
    "training.update": ("segreg.training", "train"),
    "matching.build_patches": ("segreg.matching", "build_patches"),
    "matching.distance_histograms": ("segreg.matching", "distance_histograms"),
    "matching.superpoint_overlap_labels": ("segreg.matching", "superpoint_overlap_labels"),
    "matching.ground_truth_patch_matches": ("segreg.matching", "ground_truth_patch_matches"),
    "matching.coarse_match": ("segreg.matching", "coarse_match"),
    "matching.fine_match": ("segreg.matching", "fine_match"),
    "matching.refine_transform": ("segreg.matching", "refine_transform"),
    "matching.normalize_scores_with_slack": ("segreg.matching", "normalize_scores_with_slack"),
    "matching.coarse_loss": ("segreg.matching", "coarse_loss"),
    "matching.fine_loss": ("segreg.matching", "fine_loss"),
    "matching.weighted_procrustes": ("segreg.matching", "weighted_procrustes"),
    "baselines.icp": ("segreg.baselines", "icp"),
    "baselines.estimate_normals": ("segreg.baselines", "estimate_normals"),
    "baselines.local_descriptors": ("segreg.baselines", "local_descriptors"),
    # self time of ransac_icp is hypothesis sampling and scoring
    "baselines.ransac_hypotheses": ("segreg.baselines", "ransac_icp"),
    "fileio.load_ply": ("segreg.fileio", "load_ply"),
    "fileio.load_checkpoint": ("segreg.fileio", "load_checkpoint"),
    "fileio.save_pose": ("segreg.fileio", "save_pose"),
    "phantom.generate_phantom": ("segreg.phantom", "generate_phantom"),
}

NAME, START, END, PARENT, PHASE, INDEX, EXTRA = range(7)


class Tracer:
    """Records spans around segreg calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = ""
        self.index = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._tape = None
        self._build_patches()

    # -- installation -----------------------------------------------------

    def _build_patches(self) -> None:
        for name in {m for m, _ in LAYERS.values()} | {"segreg.cli"}:
            importlib.import_module(name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "segreg" or name.startswith("segreg.")]
        for span_name, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        # tape length is read before backward() consumes the tape
        training = sys.modules["segreg.training"]
        tracer = self

        class CountingTape(training.Tape):
            __slots__ = ()

            def __enter__(self):
                tracer._tape = self
                return super().__enter__()

        self._patches.append((training, "Tape", training.Tape, CountingTape))

    @contextmanager
    def installed(self):
        """Wrappers in place inside the block, originals back after it."""
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original, _ in reversed(self._patches):
                setattr(module, key, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_backward = name == "autodiff.backward"
        is_influence = name == "kpconv.conv_influence"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = len(self._tape) if is_backward and self._tape is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.phase, self.index, extra]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if is_influence:
                span[EXTRA] = result.nbytes
            return result

        return traced

    # -- phases -----------------------------------------------------------

    @contextmanager
    def root(self, phase: str, index: int = -1):
        """A top-level span for one phase ("setup", "op", "cli") and loop index;
        its self time is the work no layer claims."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self.phase, self.index = phase, index
        span = [phase, 0.0, 0.0, -1, phase, index, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.phase, self.index = "", -1


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
