import json
from fractions import Fraction

import pytest

from flatcover import io as fio
from flatcover.generators import matching_color_graph, random_cloud
from flatcover.geometry import MODE_RATIONAL, PointRecord, WeightedPointCloud
from flatcover.reductions import ds_to_hyperplane_cover, rmis_to_line_clustering
from oracles import path_graph, ring_color_graph


def test_cloud_json_roundtrip_rational_bignum():
    cloud = WeightedPointCloud.create(
        [(Fraction(3, 2), Fraction(-7)), (Fraction(10**90), Fraction(1, 3))],
        MODE_RATIONAL, [2, 10**30])
    obj = fio.cloud_to_obj(cloud)
    assert obj["points"][0]["coords"] == ["3/2", "-7"]
    back = fio.cloud_from_obj(json.loads(fio.dumps_canonical(obj)))
    assert back == cloud
    assert back.den == 6 and back.records[1].coords == (6 * 10**90, 2)
    assert back.records[1].mult == 10**30


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_canonical_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        fio.dumps_canonical({"cost": [1.0, value]})


def test_cloud_readers_reject_bad_values():
    obj = {"dim": 1, "scalar": "float", "points": [{"coords": [1.0], "mult": 2.0}]}
    assert fio.cloud_from_obj(obj).records[0].mult == 2
    for bad in ({"coords": [float("inf")], "mult": 1}, {"coords": [1.0], "mult": 1.5},
                {"coords": [1.0], "mult": float("inf")}):
        with pytest.raises(ValueError):
            fio.cloud_from_obj({"dim": 1, "scalar": "float", "points": [bad]})
    with pytest.raises(ValueError):
        fio.cloud_from_csv("1,-inf\n")
    with pytest.raises(ValueError):
        fio.cloud_from_csv("1,2,1.5\n", has_mult=True)
    assert fio.cloud_from_csv("1,2,3\n", has_mult=True).records[0].mult == 3
    assert fio.cloud_from_csv("1, 2, 3\n", has_mult=True).records[0].mult == 3


def test_float_reader_reads_numbers_as_before():
    # Int coordinates, numeric text and a whole float multiplicity are parsed
    # to the cloud that plain floats and int multiplicities give as read.
    records = (((1.0, -3.0), 1), ((1.5, -2.0), 2), ((0.5, 4.0), 3))
    mixed = [{"coords": [1, -3]}, {"coords": ["1.5", "-2"], "mult": 2.0},
             {"coords": [0.5, 4.0], "mult": 3}]
    plain = [{"coords": list(coords), "mult": mult} for coords, mult in records]
    for points in (mixed, plain):
        cloud = fio.cloud_from_obj({"dim": 2, "scalar": "float", "points": points})
        assert cloud.records == records
        assert all(type(rec) is PointRecord and type(rec.mult) is int
                   and all(type(c) is float for c in rec.coords) for rec in cloud.records)
    # Finite floats whose sum overflows are parsed, and read as they are.
    big = fio.cloud_from_obj({"dim": 2, "scalar": "float",
                              "points": [{"coords": [1.5e308, 1.5e308]}]})
    assert big.records == (((1.5e308, 1.5e308), 1),)


def test_cloud_json_roundtrip_float():
    cloud = random_cloud(7, 3, seed=1, max_mult=3)
    back = fio.cloud_from_obj(json.loads(fio.dumps_canonical(fio.cloud_to_obj(cloud))))
    assert back.records == cloud.records


def test_float17_formatting_roundtrips():
    vals = [0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -2.5e17]
    text = fio.dumps_canonical(vals)
    assert json.loads(text) == vals
    # The shortest text that reads back to the same double; 1.0 stays a float.
    assert fio.dumps_canonical([0.1, 1.0, -2.5e17]) == "[0.1,1.0,-2.5e+17]"


def test_csv_roundtrip_with_mult():
    cloud = random_cloud(5, 2, seed=2, max_mult=4)
    text = fio.cloud_to_csv(cloud, include_mult=True)
    back = fio.cloud_from_csv(text, has_mult=True)
    assert back.records == cloud.records


def test_graph_roundtrip():
    g = matching_color_graph(2, 4)
    back = fio.graph_from_obj(json.loads(fio.dumps_canonical(fio.graph_to_obj(g))))
    assert back == g


def test_ds_instance_roundtrip():
    inst = ds_to_hyperplane_cover(path_graph(4), 2)
    obj = fio.ds_instance_to_obj(inst)
    back = fio.instance_from_obj(json.loads(fio.dumps_canonical(obj)))
    assert back == inst
    assert set(obj) == {"kind", "k", "graph", "cloud"}


def test_rmis_instance_roundtrip():
    inst = rmis_to_line_clustering(matching_color_graph(2, 4))
    obj = fio.rmis_instance_to_obj(inst)
    assert set(obj) == {"kind", "B", "params", "cloud", "meta"}
    assert set(obj["params"]) == {"p", "W", "d_s", "d_l", "faithful"}
    back = fio.instance_from_obj(json.loads(fio.dumps_canonical(obj)))
    assert back == inst and back.meta == inst.meta
    # Fields an older writer stored are ignored, even when they disagree.
    old = dict(obj, k=9, theta=["1"], phi=[], phi_prime=None, audit={"frame_positions": False},
               params=dict(obj["params"], ell=3, nu=2, n="1", q=0),
               meta=dict(obj["meta"], h_y=[["1"]], half="0", graph_sha256="x",
                         family_slices={"X": [0, 1]}))
    old_back = fio.instance_from_obj(json.loads(fio.dumps_canonical(old)))
    assert old_back == inst and old_back.meta == inst.meta


def test_faithful_rmis_instance_roundtrip():
    # A faithful file derives p, W, d_s and d_l from n: the ones it carries
    # are not read.
    inst = rmis_to_line_clustering(ring_color_graph(11, 1332), faithful=True)
    obj = json.loads(fio.dumps_canonical(fio.rmis_instance_to_obj(inst)))
    assert obj["cloud"] is None
    obj["params"].update(p="1", W="x")
    back = fio.instance_from_obj(obj)
    assert back == inst and back.meta == inst.meta


def test_manifest_fields(tmp_path):
    f = tmp_path / "x.json"
    f.write_text("{}")
    m = fio.build_manifest("fit", ["fit", str(f)], [str(f)], 7)
    assert m["tool"] == "flatcover"
    assert m["rng_seed"] == 7
    assert str(f) in m["inputs"]
    assert len(m["inputs"][str(f)]) == 64
