"""File formats: PLY point clouds, poses, dataset samples and manifests,
and network checkpoints.

PLY reads ascii and binary_little_endian vertices with float or double
x/y/z, optional uchar red/green/blue and an optional label of any integer
type; it writes binary_little_endian.  Both encodings decode into one
record per vertex, so they accept and reject the same files.  Any other
property, a property declared more than once, a color without all three
channels, an ascii token that is not a number of its declared type (or
lies outside its range), or a non-finite position in either encoding is a
malformed PLY.
Poses are JSON: rotation, translation and extra fields; rotations are
re-validated on load.  ``save_sample`` and ``load_sample`` alone write and
read a sample directory: its pose.json needs a positive, finite ``scale``,
its landmarks.csv K >= 1 finite x,y,z rows and its mask.txt one 0/1 label
per intraoperative point.  A dataset's manifest.json lists one or more
sample directories, each once and each by a plain name inside the dataset
directory; the generator's settings are in the run_manifest.json beside
it.  Checkpoints are .npz archives of the
parameters (and momentum) with a JSON header (version 5) carrying the step,
each network config's one field, ``width_factor``, and the generator state;
loading checks each array's name and shape against ``param_shapes`` of
those configs.  The header does not record the networks' class constants
(widths, voxel, neighbor cap, kernel), so a change to any of them, or to
what the convolution computes, changes what a checkpoint means and bumps
``CHECKPOINT_VERSION``, and a config subclass that overrides them cannot be
saved.  Version 5 weights read offsets in the cloud's own axes; version 4
weights were trained on offsets rotated into per-point local frames.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from segreg.autodiff import Tensor
from segreg.geometry import PointCloud, RigidTransform, rotation_defects
from segreg.networks import RegNetConfig, SegNetConfig, param_shapes
from segreg.phantom import PhantomConfig, RegistrationSample

__all__ = [
    "save_ply",
    "load_ply",
    "save_pose",
    "load_pose",
    "save_sample",
    "load_sample",
    "write_manifest",
    "read_manifest",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

# each PLY scalar type name and alias -> its little-endian numpy dtype
_PLY_TYPES = {name: np.dtype(code) for code, names in [
    ("i1", ("char", "int8")), ("u1", ("uchar", "uint8")),
    ("<i2", ("short", "int16")), ("<u2", ("ushort", "uint16")),
    ("<i4", ("int", "int32")), ("<u4", ("uint", "uint32")),
    ("<f4", ("float", "float32")), ("<f8", ("double", "float64"))] for name in names}

# each vertex property -> the numpy type its PLY type must be, and the
# message when it is not
_PLY_PROPERTIES = {
    **dict.fromkeys(("x", "y", "z"), (np.floating, "property {} must be float/double")),
    **dict.fromkeys(("red", "green", "blue"), (np.uint8, "property {} must be uchar")),
    "label": (np.integer, "label must be an integer type"),
}


def save_ply(cloud: PointCloud, path: str | Path) -> None:
    """Write a binary little-endian PLY: double x/y/z, then uchar
    red/green/blue and an int label when the cloud has them."""
    props = [(axis, "double") for axis in ("x", "y", "z")]
    if cloud.colors is not None:
        props += [(channel, "uchar") for channel in ("red", "green", "blue")]
    if cloud.labels is not None:
        props.append(("label", "int"))
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property {ply_type} {name}" for name, ply_type in props]
    header.append("end_header")
    rec = np.empty(len(cloud), dtype=[(name, _PLY_TYPES[t]) for name, t in props])
    rec["x"], rec["y"], rec["z"] = cloud.positions.T
    if cloud.colors is not None:
        colors_u8 = np.clip(np.round(cloud.colors * 255.0), 0, 255).astype(np.uint8)
        rec["red"], rec["green"], rec["blue"] = colors_u8.T
    if cloud.labels is not None:
        rec["label"] = cloud.labels
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(rec.tobytes())


def _ply_error(msg: str, offset: int) -> ValueError:
    return ValueError(f"malformed PLY at byte {offset}: {msg}")


def load_ply(path: str | Path) -> PointCloud:
    raw = Path(path).read_bytes()
    offset = 0
    fmt = n_vertex = element = problem = None
    props: list[tuple[str, str]] = []          # (name, PLY type) of each vertex property
    # one pass over the header lines; the first bad one is raised only once
    # end_header is found, so a header that never ends is reported as such
    while True:
        end = raw.find(b"\n", offset)
        if end < 0:
            raise _ply_error("header not terminated by end_header", offset)
        at, offset = offset, end + 1
        line = raw[at:end].decode("ascii", errors="replace").strip()
        if at == 0 and line != "ply":
            problem = _ply_error("missing 'ply' magic", 0)
        if line == "end_header":
            break
        if offset > 65536:
            raise _ply_error("header too large", offset)
        parts = line.split()
        if problem or at == 0 or not parts:
            continue
        if parts[0] == "format":
            fmt = parts[1] if len(parts) > 1 else ""
            if fmt not in ("ascii", "binary_little_endian"):
                problem = _ply_error(f"unsupported format {line!r}", at)
        elif parts[0] in ("element", "property") and len(parts) < 3:
            problem = _ply_error(f"too few words in header line {line!r}", at)
        elif parts[0] == "element":
            if parts[1] == "vertex" and element is not None:
                problem = _ply_error("vertex must be the first element", at)
            elif parts[1] == "vertex":
                try:
                    n_vertex = int(parts[2])
                except ValueError:
                    problem = _ply_error(f"vertex count {parts[2]!r} is not an integer", at)
            element = parts[1]
        elif parts[0] == "property" and element == "vertex":
            if parts[1] == "list":
                problem = _ply_error("list properties are not supported", at)
            props.append((parts[2], parts[1]))
    if problem:
        raise problem
    if fmt is None:
        raise _ply_error("missing format line", 0)
    if n_vertex is None:
        raise _ply_error("missing vertex element", 0)
    if n_vertex < 1:
        raise _ply_error("empty vertex element (need N >= 1)", 0)

    names = [name for name, _ in props]
    for needed in ("x", "y", "z"):
        if needed not in names:
            raise _ply_error(f"missing required property {needed!r}", 0)
    for name, ply_type in props:
        if name not in _PLY_PROPERTIES:
            raise _ply_error(f"unknown property {name!r}", 0)
        kind, message = _PLY_PROPERTIES[name]
        if ply_type not in _PLY_TYPES or not np.issubdtype(_PLY_TYPES[ply_type], kind):
            raise _ply_error(message.format(name), 0)
    if len(set(names)) < len(names):
        raise _ply_error(f"a vertex property is declared more than once: {names}", 0)
    channels = [c for c in ("red", "green", "blue") if c in names]
    if 0 < len(channels) < 3:
        raise _ply_error(f"colors need red, green and blue, got only {channels}", 0)

    # both encodings decode into one record per vertex
    dtype = np.dtype([(name, _PLY_TYPES[t]) for name, t in props])
    if fmt == "ascii":
        tokens = raw[offset:].decode("ascii", errors="replace").split()
        need, have, unit = len(names) * n_vertex, len(tokens), "fields"
    else:
        need, have, unit = dtype.itemsize * n_vertex, len(raw) - offset, "bytes"
    if have < need:
        raise _ply_error(f"truncated payload: need {need} {unit}, have {have}", offset)
    if fmt == "ascii":
        rec = np.empty(n_vertex, dtype=dtype)
        for name, column in zip(names, np.array(tokens[:need]).reshape(n_vertex, -1).T):
            try:
                # a float beyond its type's range raises instead of becoming inf
                with np.errstate(over="raise"):
                    rec[name] = column
            except (ValueError, OverflowError, FloatingPointError) as exc:
                raise _ply_error(f"property {name}: {exc}", offset) from None
    else:
        # a copy aligns the fields; read in place from the header's end they
        # stack into positions about 4x slower
        rec = np.frombuffer(raw[offset:offset + need], dtype=dtype)

    colors = None
    if channels:
        colors = np.stack([rec[c] for c in ("red", "green", "blue")], axis=1) / 255.0
    labels = rec["label"] if "label" in names else None
    positions = np.stack([rec[axis] for axis in ("x", "y", "z")], axis=1)
    # an ascii double token past the float64 range parses to inf, and inf
    # and nan tokens parse as themselves, in either encoding
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if bad.size:
        at = offset if fmt == "ascii" else offset + int(bad[0]) * dtype.itemsize
        raise _ply_error(f"vertex {bad[0]} has a non-finite position", at)
    return PointCloud(positions, colors=colors, labels=labels)


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

def save_pose(T: RigidTransform, path: str | Path, extra: dict | None = None) -> None:
    """Write the pose, then the JSON fields of ``extra``, as one object."""
    doc = {
        "rotation": T.rotation.tolist(),
        "translation": T.translation.tolist(),
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_pose(path: str | Path) -> tuple[RigidTransform, dict]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not {"rotation", "translation"} <= doc.keys():
        raise ValueError("pose JSON needs a rotation and a translation")
    try:
        R = np.asarray(doc["rotation"], dtype=np.float64)
        t = np.asarray(doc["translation"], dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"pose rotation and translation must be numbers: {exc}") from exc
    if R.shape != (3, 3):
        raise ValueError(f"pose rotation must be 3x3, got {R.shape}")
    if any(rotation_defects(R, 1e-6)):
        raise ValueError("pose rotation fails orthonormality/determinant check")
    meta = {k: v for k, v in doc.items() if k not in ("rotation", "translation")}
    # renormalize tiny drift so RigidTransform's strict tolerance accepts it
    u, _, vt = np.linalg.svd(R)
    return RigidTransform(u @ vt, t), meta


# ---------------------------------------------------------------------------
# dataset layout
# ---------------------------------------------------------------------------

def save_sample(sample: RegistrationSample, directory: str | Path) -> None:
    """Write pre.ply, intra.ply, pose.json (with the center, scale and
    generator meta), landmarks.csv (an x,y,z header, then one row per
    landmark) and mask.txt (one 0/1 label per line)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_ply(sample.preoperative, d / "pre.ply")
    save_ply(sample.intraoperative, d / "intra.ply")
    save_pose(sample.T_gt, d / "pose.json",
              extra={"center": np.asarray(sample.center, dtype=float).tolist(),
                     "scale": float(sample.scale), "meta": sample.meta})
    rows = ["x,y,z"] + [",".join(repr(float(v)) for v in lm) for lm in sample.landmarks]
    (d / "landmarks.csv").write_text("\n".join(rows) + "\n")
    (d / "mask.txt").write_text("\n".join(str(int(v)) for v in sample.gt_mask) + "\n")


def load_sample(directory: str | Path) -> RegistrationSample:
    d = Path(directory)
    pre = load_ply(d / "pre.ply")
    intra = load_ply(d / "intra.ply")
    T, meta = load_pose(d / "pose.json")
    rows = (d / "landmarks.csv").read_text().strip().splitlines()[1:]
    landmarks = np.array([[float(v) for v in row.split(",")] for row in rows])
    mask = np.array([int(v) for v in (d / "mask.txt").read_text().split()], dtype=np.int64)
    if landmarks.ndim != 2 or landmarks.shape[0] < 1 or landmarks.shape[1] != 3:
        raise ValueError(f"{d / 'landmarks.csv'}: need K >= 1 rows of x,y,z, "
                         f"got shape {landmarks.shape}")
    if not np.isfinite(landmarks).all():
        raise ValueError(f"{d / 'landmarks.csv'}: landmarks must be finite")
    if mask.shape != (len(intra),):
        raise ValueError(f"{d / 'mask.txt'}: need one entry per intraoperative point "
                         f"({len(intra)}), got {mask.size}")
    if not np.isin(mask, (0, 1)).all():
        raise ValueError(f"{d / 'mask.txt'}: labels must be 0 or 1")
    scale = meta.get("scale")
    if type(scale) not in (int, float) or not 0 < scale < np.inf:
        raise ValueError(f"{d / 'pose.json'}: need a positive, finite scale, got {scale!r}")
    center = meta.get("center", [0.0, 0.0, 0.0])
    if (type(center) is not list or len(center) != 3
            or any(type(c) not in (int, float) for c in center)
            or not np.isfinite(center).all()):
        raise ValueError(f"{d / 'pose.json'}: need a center of 3 finite numbers, "
                         f"got {center!r}")
    return RegistrationSample(
        preoperative=pre, intraoperative=intra, T_gt=T, landmarks=landmarks,
        gt_mask=mask, scale=float(scale), center=np.asarray(center, dtype=np.float64),
        config=PhantomConfig(), meta=meta.get("meta", {}))


def write_manifest(directory: str | Path, sample_dirs: list[str],
                   seed: int | None = None) -> None:
    doc = {"format_version": 1, "samples": sample_dirs}
    if seed is not None:
        doc["seed"] = seed
    Path(directory, "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def read_manifest(directory: str | Path) -> dict:
    """The manifest under ``directory``; its ``samples`` must name one or
    more sample directories, each once, each by one plain path component
    (no separator, not ``.``, ``..`` or empty), so that no name reaches
    outside ``directory``."""
    path = Path(directory, "manifest.json")
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json under {directory}")
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError("manifest must be a JSON object")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported manifest version {doc.get('format_version')}")
    samples = doc.get("samples")
    if not isinstance(samples, list) or not all(isinstance(n, str) for n in samples):
        raise ValueError("manifest 'samples' must be a list of sample directory names")
    if not samples:
        raise ValueError("manifest 'samples' lists no sample")
    unplain = [n for n in samples if Path(n).parts != (n,) or n == ".."]
    if unplain:
        raise ValueError(f"manifest 'samples' names {unplain}, which are not "
                         "plain directory names inside the dataset")
    repeated = sorted({n for n in samples if samples.count(n) > 1})
    if repeated:
        raise ValueError(f"manifest 'samples' lists {repeated} more than once")
    return doc


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 5


def save_checkpoint(path: str | Path, params: dict, seg_config: SegNetConfig,
                    reg_config: RegNetConfig, step: int = 0,
                    momentum: dict | None = None, rng_state: dict | None = None) -> None:
    """Serialize ``Tensor`` parameters (bit-exact float64) with a versioned header.

    The JSON header holds the version, the step, both network configs (their
    ``width_factor``), the parameter names and the training generator's PCG64
    state; the arrays are ``param/<name>`` and, for a resumable run,
    ``momentum/<name>``.  The configs must be exactly ``SegNetConfig`` and
    ``RegNetConfig``: a subclass that overrides their constants would write
    a file whose parameters no header can describe.
    """
    if type(seg_config) is not SegNetConfig or type(reg_config) is not RegNetConfig:
        raise ValueError("a checkpoint records only SegNetConfig and RegNetConfig, got "
                         f"{type(seg_config).__name__} and {type(reg_config).__name__}")
    header = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "seg_config": asdict(seg_config),
        "reg_config": asdict(reg_config),
        "param_names": sorted(params),
        "rng_state": rng_state or {},
    }
    arrays = {"__header__": np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data
    if momentum:
        for name, v in momentum.items():
            arrays[f"momentum/{name}"] = np.asarray(v)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path):
    """Return (params in ``param_shapes`` order, seg_config, reg_config, state).

    A file that is not a readable .npz archive, or whose version, header,
    configs, step (a non-negative integer), PCG64 generator state or
    parameters do not fit, is a ValueError.
    """
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a checkpoint file ({exc})") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError("not a checkpoint file (not an .npz archive)")
    with archive as z:
        if "__header__" not in z:
            raise ValueError("not a checkpoint file (missing header)")
        header = json.loads(bytes(z["__header__"]).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("malformed checkpoint (the header is not a JSON object)")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('version')}")
        try:
            seg_cfg = SegNetConfig(**header["seg_config"])
            reg_cfg = RegNetConfig(**header["reg_config"])
            shapes = param_shapes(seg_cfg) | param_shapes(reg_cfg)
            params = {name: Tensor(z[f"param/{name}"], requires_grad=True) for name in shapes}
            momentum = {key[len("momentum/"):]: z[key] for key in z.files
                        if key.startswith("momentum/")}
            wrong = sorted(set(header["param_names"]) ^ set(shapes)) + [
                key for key, value in [*params.items(), *momentum.items()]
                if shapes.get(key) != value.shape]
            if wrong:
                raise ValueError(f"parameters {wrong} do not fit the header's configs")
            rng_state = header.get("rng_state", {})
            if rng_state:                 # the training generator is a PCG64
                np.random.PCG64().state = rng_state
            step = header["step"]
            if type(step) is not int or step < 0:     # bool is an int subclass
                raise ValueError(f"step {step!r} is not a non-negative integer")
            state = {"step": step, "momentum": momentum, "rng_state": rng_state}
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    return params, seg_cfg, reg_cfg, state
