"""Phantom generator and file-format tests."""

import json
import struct

import numpy as np
import pytest

from segreg import phantom
from segreg.fileio import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    load_ply,
    load_pose,
    load_sample,
    read_manifest,
    save_checkpoint,
    save_ply,
    save_pose,
    save_sample,
    write_manifest,
)
from segreg.geometry import PointCloud, RigidTransform, random_rigid
from segreg.gradcheck import _TOY_REG, _TOY_SEG
from segreg.networks import RegNetConfig, SegNetConfig
from segreg.phantom import (
    PhantomConfig,
    generate_phantom,
    mm_to_units,
    weak_labels,
)
from segreg.training import init_params

SMALL = dict(points_pre=2048, points_intra=1024)


# -- generator ---------------------------------------------------------------

def test_degenerate_config_gives_pure_bone_scene():
    cfg = PhantomConfig(clutter_fraction=0.0, occlusion_patches=0,
                        exposure_fraction=1.0, noise_sigma=0.0, seed=2, **SMALL)
    s = generate_phantom(cfg)
    assert np.all(s.gt_mask == 1)
    assert s.meta["n_tissue"] == 0
    assert s.meta["occlusion_removed_fraction"] == 0.0


def test_default_config_has_both_classes():
    means = []
    for seed in range(12):
        s = generate_phantom(PhantomConfig(seed=seed, **SMALL))
        means.append(s.gt_mask.mean())
    assert all(0.2 <= m <= 0.8 for m in means)


def test_generation_is_deterministic():
    a = generate_phantom(PhantomConfig(seed=9, **SMALL))
    b = generate_phantom(PhantomConfig(seed=9, **SMALL))
    assert np.array_equal(a.preoperative.positions, b.preoperative.positions)
    assert np.array_equal(a.intraoperative.positions, b.intraoperative.positions)
    assert np.array_equal(a.intraoperative.colors, b.intraoperative.colors)
    assert np.array_equal(a.T_gt.rotation, b.T_gt.rotation)


def test_overlap_and_occlusion_guarantees_hold():
    from scipy.spatial import cKDTree
    for seed in range(8):
        s = generate_phantom(PhantomConfig(seed=seed, **SMALL))
        bone = s.intraoperative.positions[s.gt_mask == 1]
        aligned = s.T_gt.apply_points(s.preoperative.positions)
        d, _ = cKDTree(bone).query(aligned)
        assert np.mean(d <= phantom._OVERLAP_RADIUS) >= phantom._OVERLAP_MIN_FRACTION
        assert s.meta["occlusion_removed_fraction"] < 0.5


def test_landmark_count_is_three_per_vertebra():
    for n in (1, 3, 5):
        s = generate_phantom(PhantomConfig(n_vertebrae=n, seed=4, **SMALL))
        assert s.landmarks.shape == (3 * n, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        PhantomConfig(clutter_fraction=1.5)
    with pytest.raises(ValueError):
        PhantomConfig(points_pre=10)


def test_pose_respects_bounds():
    from segreg.geometry import rotation_angle_deg
    for seed in range(6):
        s = generate_phantom(PhantomConfig(seed=seed, **SMALL))
        assert rotation_angle_deg(s.T_gt.rotation) <= 45.0 + 1e-9
        assert np.linalg.norm(s.T_gt.translation) <= 0.1 + 1e-12


# -- weak labels -------------------------------------------------------------

def test_weak_labels_huge_threshold_marks_everything():
    s = generate_phantom(PhantomConfig(seed=5, **SMALL))
    wl = weak_labels(s.intraoperative, s.preoperative, s.T_gt, threshold=10.0)
    assert np.all(wl == 1)


def test_weak_labels_zero_threshold_marks_nothing_under_noise():
    s = generate_phantom(PhantomConfig(seed=5, **SMALL))
    wl = weak_labels(s.intraoperative, s.preoperative, s.T_gt, threshold=0.0)
    assert wl.sum() == 0


def test_weak_labels_match_gt_on_noiseless_phantom():
    # needs the default preoperative density: the 3 mm threshold must resolve
    # the nearest-model-point distances
    cfg = PhantomConfig(seed=6, noise_sigma=0.0, occlusion_patches=0,
                        points_intra=1024)
    s = generate_phantom(cfg)
    thr = mm_to_units(3.0, s.scale)
    wl = weak_labels(s.intraoperative, s.preoperative, s.T_gt, thr)
    assert (wl == s.gt_mask).mean() >= 0.95


def test_weak_labels_monotone_in_threshold():
    s = generate_phantom(PhantomConfig(seed=7, **SMALL))
    thresholds = [0.005, 0.01, 0.02, 0.05]
    masks = [weak_labels(s.intraoperative, s.preoperative, s.T_gt, t)
             for t in thresholds]
    for small, large in zip(masks, masks[1:]):
        assert np.all(large[small == 1] == 1)


# -- PLY ---------------------------------------------------------------------

def write_ascii_ply(cloud, path):
    """An ASCII PLY with the properties ``save_ply`` writes in binary."""
    props = ["double x", "double y", "double z"]
    cols = [[repr(float(v)) for v in row] for row in cloud.positions]
    if cloud.colors is not None:
        props += ["uchar red", "uchar green", "uchar blue"]
        u8 = np.clip(np.round(cloud.colors * 255.0), 0, 255).astype(np.uint8)
        cols = [row + [str(int(v)) for v in c] for row, c in zip(cols, u8)]
    if cloud.labels is not None:
        props.append("int label")
        cols = [row + [str(int(v))] for row, v in zip(cols, cloud.labels)]
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    header += [f"property {p}" for p in props] + ["end_header"]
    path.write_text("\n".join(header + [" ".join(row) for row in cols]) + "\n")


def test_ply_round_trip_binary_and_ascii(tmp_path):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(-1, 1, (100, 3)),
                       colors=rng.uniform(0, 1, (100, 3)),
                       labels=rng.integers(0, 2, 100))
    save_ply(cloud, tmp_path / "binary.ply")
    write_ascii_ply(cloud, tmp_path / "ascii.ply")
    for p in (tmp_path / "binary.ply", tmp_path / "ascii.ply"):
        back = load_ply(p)
        np.testing.assert_allclose(back.positions, cloud.positions, atol=0)
        np.testing.assert_array_equal(back.labels, cloud.labels)
        assert np.max(np.abs(back.colors - cloud.colors)) <= 0.5 / 255.0 + 1e-12


def test_ply_ascii_binary_load_identically(tmp_path):
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(-1, 1, (50, 3)), labels=rng.integers(0, 2, 50))
    write_ascii_ply(cloud, tmp_path / "a.ply")
    save_ply(cloud, tmp_path / "b.ply")
    a = load_ply(tmp_path / "a.ply")
    b = load_ply(tmp_path / "b.ply")
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_ply_float32_positions_accepted(tmp_path):
    body = b"ply\nformat ascii 1.0\nelement vertex 2\n" \
           b"property float x\nproperty float y\nproperty float z\nend_header\n" \
           b"0.5 0 0\n1 2 3\n"
    p = tmp_path / "f32.ply"
    p.write_bytes(body)
    cloud = load_ply(p)
    np.testing.assert_allclose(cloud.positions, [[0.5, 0, 0], [1, 2, 3]])


def test_ply_rejects_empty_and_truncated_and_unknown(tmp_path):
    empty = b"ply\nformat ascii 1.0\nelement vertex 0\n" \
            b"property double x\nproperty double y\nproperty double z\nend_header\n"
    p = tmp_path / "bad.ply"
    p.write_bytes(empty)
    with pytest.raises(ValueError, match="N >= 1"):
        load_ply(p)

    trunc = b"ply\nformat ascii 1.0\nelement vertex 3\n" \
            b"property double x\nproperty double y\nproperty double z\nend_header\n0 0 0\n"
    p.write_bytes(trunc)
    with pytest.raises(ValueError, match="truncated"):
        load_ply(p)

    unknown = b"ply\nformat ascii 1.0\nelement vertex 1\n" \
              b"property double x\nproperty double y\nproperty double z\n" \
              b"property double curvature\nend_header\n0 0 0 1\n"
    p.write_bytes(unknown)
    with pytest.raises(ValueError, match="unknown property"):
        load_ply(p)

    garbage = b"not a ply\n"
    p.write_bytes(garbage)
    with pytest.raises(ValueError, match="byte \\d+"):
        load_ply(p)


# every PLY scalar type name and alias, with its struct code
PLY_SCALARS = {"char": "b", "int8": "b", "uchar": "B", "uint8": "B", "short": "h",
               "int16": "h", "ushort": "H", "uint16": "H", "int": "i", "int32": "i",
               "uint": "I", "uint32": "I", "float": "f", "float32": "f", "double": "d",
               "float64": "d"}
VERTEX_PROPS = [("double", "x"), ("double", "y"), ("double", "z"), ("uchar", "red"),
                ("uchar", "green"), ("uchar", "blue"), ("int", "label")]


def ply_bytes(fmt, props, rows):
    """A PLY of ``rows`` under the (PLY type, name) ``props`` in ``fmt``."""
    header = ["ply", f"format {fmt} 1.0", f"element vertex {len(rows)}"]
    header += [f"property {ply_type} {name}" for ply_type, name in props] + ["end_header"]
    head = ("\n".join(header) + "\n").encode("ascii")
    if fmt == "ascii":
        return head + "".join(" ".join(map(str, row)) + "\n" for row in rows).encode("ascii")
    codes = "<" + "".join(PLY_SCALARS[ply_type] for ply_type, _ in props)
    return head + b"".join(struct.pack(codes, *row) for row in rows)


@pytest.mark.parametrize("ply_type", sorted(PLY_SCALARS))
@pytest.mark.parametrize("prop", [name for _, name in VERTEX_PROPS])
def test_ply_ascii_and_binary_agree_on_every_property_type(tmp_path, prop, ply_type):
    """Both encodings load equal arrays or fail alike; x/y/z take float or
    double, colors uchar and the label any integer type."""
    props = [(ply_type if name == prop else t, name) for t, name in VERTEX_PROPS]
    rows = [(1, 2, 3, 4, 5, 6, 1), (7, 8, 9, 10, 11, 127, 0)]   # fit every type
    outcomes = []
    for fmt in ("ascii", "binary_little_endian"):
        path = tmp_path / f"{fmt}.ply"
        path.write_bytes(ply_bytes(fmt, props, rows))
        try:
            cloud = load_ply(path)
            outcomes.append([cloud.positions, cloud.colors, cloud.labels])
        except ValueError as exc:
            outcomes.append(str(exc))
    ascii_outcome, binary_outcome = outcomes
    allowed = {"x": "fd", "y": "fd", "z": "fd", "red": "B", "green": "B", "blue": "B",
               "label": "bBhHiI"}[prop]
    if PLY_SCALARS[ply_type] not in allowed:
        assert isinstance(ascii_outcome, str) and "malformed PLY at byte 0" in ascii_outcome
        assert ascii_outcome == binary_outcome
        return
    for a, b in zip(ascii_outcome, binary_outcome):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(binary_outcome[0], np.array(rows, float)[:, :3])
    np.testing.assert_array_equal(binary_outcome[1], np.array(rows)[:, 3:6] / 255.0)
    np.testing.assert_array_equal(binary_outcome[2], [1, 0])


def test_ply_rejects_a_property_declared_twice_in_either_encoding(tmp_path):
    """Ascii would keep the last column; binary failed with a bare numpy error."""
    props = [("double", "x"), ("double", "y"), ("double", "z"), ("double", "x")]
    for fmt in ("ascii", "binary_little_endian"):
        path = tmp_path / f"{fmt}.ply"
        path.write_bytes(ply_bytes(fmt, props, [(1, 2, 3, 9)]))
        with pytest.raises(ValueError, match="malformed PLY at byte 0: .*more than once"):
            load_ply(path)


@pytest.mark.parametrize("channels", [("red",), ("green", "blue"), ("red", "blue")])
def test_ply_rejects_a_partial_color_in_either_encoding(tmp_path, channels):
    """``red`` alone failed with numpy's bare "no field of name green", and
    ``green``/``blue`` without ``red`` loaded with no colors."""
    props = VERTEX_PROPS[:3] + [("uchar", c) for c in channels]
    for fmt in ("ascii", "binary_little_endian"):
        path = tmp_path / f"{fmt}.ply"
        path.write_bytes(ply_bytes(fmt, props, [(1, 2, 3) + (4,) * len(channels)]))
        with pytest.raises(ValueError, match="malformed PLY at byte 0: colors need red, "
                                             "green and blue"):
            load_ply(path)


# an ascii token that is not a number of its property's type: (property,
# token, words of the reason)
BAD_ASCII_TOKENS = {
    "not_a_float": ("y", "abc", "could not convert"),
    "float_for_an_int_label": ("label", "1.5", "invalid literal"),
    "beyond_float_range": ("y", "1e40", "overflow"),
    "below_float_range": ("y", "-3.5e38", "overflow"),
}


@pytest.mark.parametrize("kind", sorted(BAD_ASCII_TOKENS))
def test_ply_rejects_an_ascii_token_that_is_not_a_number_of_its_type(tmp_path, kind):
    """Such tokens surfaced as numpy's text without a byte offset, and 1e40
    for a float loaded as inf with a RuntimeWarning."""
    name, token, reason = BAD_ASCII_TOKENS[kind]
    props = [("float", "x"), ("float", "y"), ("float", "z"), ("int", "label")]
    row = [token if prop == name else "0" for _, prop in props]
    data = ply_bytes("ascii", props, [row])
    path = tmp_path / "bad.ply"
    path.write_bytes(data)
    payload = data.index(b"end_header\n") + len(b"end_header\n")
    with pytest.raises(ValueError, match=f"^malformed PLY at byte {payload}: "
                                         f"property {name}: .*{reason}"):
        load_ply(path)


@pytest.mark.parametrize("token", ["1e400", "-1e400", "inf", "nan"])
@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_ply_rejects_a_non_finite_position_in_either_encoding(tmp_path, fmt, token):
    """A double token past the float64 range parses to inf, and inf and nan
    parse as themselves; each loaded silently, so that only ``PointCloud``
    rejected it, without the byte offset."""
    props = [("double", "x"), ("double", "y"), ("double", "z")]
    rows = [(0.0, 1.0, 2.0), (3.0, token if fmt == "ascii" else float(token), 5.0)]
    data = ply_bytes(fmt, props, rows)
    path = tmp_path / "bad.ply"
    path.write_bytes(data)
    payload = data.index(b"end_header\n") + len(b"end_header\n")
    at = payload if fmt == "ascii" else payload + 24      # the second vertex
    with pytest.raises(ValueError, match=f"^malformed PLY at byte {at}: "
                                         "vertex 1 has a non-finite position"):
        load_ply(path)


# -- pose files --------------------------------------------------------------

def test_pose_round_trip_identity_and_random(tmp_path):
    p = tmp_path / "pose.json"
    save_pose(RigidTransform.identity(), p)
    T, _ = load_pose(p)
    np.testing.assert_array_equal(T.rotation, np.eye(3))

    rng = np.random.default_rng(2)
    T0 = random_rigid(0.1, 45.0, rng)
    save_pose(T0, p, extra={"center": [1.0, 2.0, 3.0], "scale": 0.25})
    T1, meta = load_pose(p)
    np.testing.assert_allclose(T1.rotation, T0.rotation, atol=1e-12)
    np.testing.assert_allclose(T1.translation, T0.translation, atol=1e-12)
    assert meta["scale"] == 0.25
    np.testing.assert_array_equal(meta["center"], [1.0, 2.0, 3.0])


def test_pose_rejects_corrupted_rotation(tmp_path):
    p = tmp_path / "pose.json"
    rng = np.random.default_rng(3)
    T = random_rigid(0.1, 30.0, rng)
    save_pose(T, p)
    import json
    doc = json.loads(p.read_text())
    doc["rotation"] = (np.asarray(doc["rotation"]) * 2.0).tolist()
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="orthonormal"):
        load_pose(p)


# -- landmarks, masks, samples, manifest --------------------------------------

def test_sample_round_trip(tmp_path):
    s = generate_phantom(PhantomConfig(seed=8, **SMALL))
    save_sample(s, tmp_path / "sample_0000")
    back = load_sample(tmp_path / "sample_0000")
    np.testing.assert_array_equal(back.preoperative.positions, s.preoperative.positions)
    np.testing.assert_array_equal(back.intraoperative.positions, s.intraoperative.positions)
    np.testing.assert_array_equal(back.gt_mask, s.gt_mask)
    np.testing.assert_allclose(back.T_gt.rotation, s.T_gt.rotation, atol=1e-12)
    np.testing.assert_array_equal(back.landmarks, s.landmarks)
    assert back.scale == s.scale
    assert back.center.dtype == np.float64 and np.array_equal(back.center, s.center)


@pytest.mark.parametrize("center", ["abc", [1.0, 2.0], [1.0, "2", 3.0], [1.0, True, 3.0],
                                    [1.0, float("nan"), 3.0]],
                         ids=["string", "two_numbers", "numeric_string", "bool", "nan"])
def test_load_sample_rejects_a_center_that_is_not_3_finite_numbers(tmp_path, center):
    s = generate_phantom(PhantomConfig(seed=8, **SMALL))
    save_sample(s, tmp_path / "s")
    path = tmp_path / "s" / "pose.json"
    doc = json.loads(path.read_text())
    doc["center"] = center
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="pose.json: need a center of 3 finite numbers"):
        load_sample(tmp_path / "s")


def test_saved_intra_cloud_carries_no_label_column(tmp_path):
    """The ground truth lives in ``gt_mask`` / ``mask.txt`` only: a label
    column in a generated ``intra.ply`` would read as a predicted mask."""
    save_sample(generate_phantom(PhantomConfig(seed=8, **SMALL)), tmp_path / "s")
    ply = (tmp_path / "s" / "intra.ply").read_bytes()
    header = ply[: ply.index(b"end_header")].decode("ascii")
    assert "red" in header and "label" not in header
    assert load_ply(tmp_path / "s" / "intra.ply").labels is None


def test_manifest_round_trip(tmp_path):
    write_manifest(tmp_path, ["sample_0000", "sample_0001"], seed=3)
    doc = read_manifest(tmp_path)
    assert doc["samples"] == ["sample_0000", "sample_0001"]
    assert doc["seed"] == 3


@pytest.mark.parametrize("name", ["", ".", "..", "../a/sample_0000", "a/b", "/tmp/a",
                                  "sample_0000/"])
def test_manifest_rejects_a_sample_name_that_is_not_one_plain_component(tmp_path, name):
    write_manifest(tmp_path, ["sample_0000", name], seed=0)
    with pytest.raises(ValueError, match="not plain directory names"):
        read_manifest(tmp_path)


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    seg_cfg, reg_cfg = SegNetConfig(width_factor=0.05), RegNetConfig(width_factor=0.1)
    params = init_params(seg_cfg, reg_cfg, 5)
    momentum = {k: rng.normal(size=v.data.shape) for k, v in params.items()}
    rng_state = np.random.default_rng(9).bit_generator.state
    p = tmp_path / "ckpt.npz"
    save_checkpoint(p, params, seg_cfg, reg_cfg, step=17, momentum=momentum,
                    rng_state=rng_state)
    params2, seg2, reg2, state = load_checkpoint(p)
    assert seg2 == seg_cfg and reg2 == reg_cfg
    # the header keeps what a caller sets; the rest is the architecture
    with np.load(p) as z:
        header = json.loads(bytes(z["__header__"]).decode("utf-8"))
    assert header["version"] == CHECKPOINT_VERSION == 5
    assert (header["seg_config"], header["reg_config"]) == (
        {"width_factor": 0.05}, {"width_factor": 0.1})
    assert state["step"] == 17
    assert state["rng_state"] == rng_state
    for k in params:
        assert np.array_equal(params[k].data, params2[k].data)
        assert np.array_equal(momentum[k], state["momentum"][k])


@pytest.mark.parametrize("which", ["seg", "reg", "both"])
def test_save_checkpoint_refuses_config_subclasses(tmp_path, which):
    """gradcheck's toy configs override the network constants, which a
    header does not record: the file could never load, so none is written."""
    seg_cfg = _TOY_SEG if which in ("seg", "both") else SegNetConfig()
    reg_cfg = _TOY_REG if which in ("reg", "both") else RegNetConfig()
    p = tmp_path / "ckpt.npz"
    with pytest.raises(ValueError, match="only SegNetConfig and RegNetConfig"):
        save_checkpoint(p, init_params(seg_cfg, reg_cfg, 0), seg_cfg, reg_cfg)
    assert not p.exists()


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.npz"
    np.savez(p, a=np.zeros(3))
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(p)


def test_ply_rejects_a_vertex_element_after_another_element(tmp_path):
    """A face row ahead of the vertices would otherwise load as a vertex."""
    body = b"ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int vertex_indices\n" \
           b"element vertex 3\nproperty double x\nproperty double y\nproperty double z\n" \
           b"end_header\n3 0 1 2\n0 0 0\n1 0 0\n0 1 0\n"
    p = tmp_path / "face_first.ply"
    p.write_bytes(body)
    with pytest.raises(ValueError, match="malformed PLY .*vertex must be the first element"):
        load_ply(p)
