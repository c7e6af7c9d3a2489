import base64
import contextlib
import functools
import io
import json
import multiprocessing
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zoneroute
from zoneroute import autodiff as ad
from zoneroute import cli, dataio, parallel, pipeline
from zoneroute.errors import NumericError
from zoneroute.routegraph import Route

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy before 2.0
    from numpy.core._exceptions import _ArrayMemoryError


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_config(path, **kv):
    with open(path, "w") as fh:
        fh.write("# test config\n")
        for key, val in kv.items():
            fh.write(f"{key} = {val}\n")
    return str(path)


def make_workspace(tmp_path):
    synth_cfg = write_config(tmp_path / "synth.cfg",
                             n_routes=6, stops_min=4, stops_max=5, seed=13)
    train_cfg = write_config(tmp_path / "train.cfg", epochs=1, seed=5)
    routes = str(tmp_path / "routes")
    assert cli.main(["synth", "--config", synth_cfg, "--out", routes]) == 0
    return tmp_path, routes, train_cfg


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def test_full_chain(workspace, capsys):
    tmp_path, routes, train_cfg = workspace
    zones = str(tmp_path / "zones.json")
    assert cli.main(["zones", "--routes", routes, "--resolution", "8",
                     "--k", "2", "--out", zones]) == 0

    gdir, zdir = str(tmp_path / "general"), str(tmp_path / "zoned")
    assert cli.main(["train", "--strategy", "general", "--routes", routes,
                     "--config", train_cfg, "--out", gdir]) == 0
    assert cli.main(["train", "--strategy", "zoned", "--routes", routes,
                     "--zones", zones, "--config", train_cfg,
                     "--out", zdir, "--jobs", "1"]) == 0
    assert os.path.isfile(os.path.join(gdir, "general.ckpt.json"))
    assert os.path.isdir(os.path.join(zdir, "zones"))

    tg, tz = str(tmp_path / "tg.json"), str(tmp_path / "tz.json")
    assert cli.main(["infer", "--strategy", "general", "--routes", routes,
                     "--ckpt", gdir, "--out", tg]) == 0
    assert cli.main(["infer", "--strategy", "zoned", "--routes", routes,
                     "--ckpt", zdir, "--out", tz]) == 0

    report = str(tmp_path / "report.json")
    csv_path = str(tmp_path / "report.csv")
    assert cli.main(["eval", "--routes", routes, "--tours-general", tg,
                     "--tours-zoned", tz, "--zones", zones,
                     "--out", report, "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "MAPE" in out

    with open(report) as fh:
        payload = json.load(fh)
    assert set(payload) >= {"rows", "aggregates", "groups"}
    assert len(payload["rows"]) == 6
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "route_id"

    with open(tg) as fh:
        tours = json.load(fh)["tours"]
    assert len(tours) == 6
    for entry in tours.values():
        assert len(entry["order"]) == len(set(entry["order"]))
        assert entry["length_s"] > 0


def test_synth_deterministic_bytes(workspace):
    tmp_path, routes, _ = workspace
    synth_cfg = write_config(tmp_path / "synth2.cfg",
                             n_routes=6, stops_min=4, stops_max=5, seed=13)
    again = str(tmp_path / "routes2")
    assert cli.main(["synth", "--config", synth_cfg, "--out", again]) == 0
    for name in sorted(os.listdir(routes)):
        assert read_bytes(os.path.join(routes, name)) == \
            read_bytes(os.path.join(again, name))


def test_infer_deterministic_bytes(workspace):
    tmp_path, routes, train_cfg = workspace
    gdir = str(tmp_path / "g")
    assert cli.main(["train", "--strategy", "general", "--routes", routes,
                     "--config", train_cfg, "--out", gdir]) == 0
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert cli.main(["infer", "--strategy", "general", "--routes", routes,
                         "--ckpt", gdir, "--out", out]) == 0
    assert read_bytes(a) == read_bytes(b)


def test_usage_errors_exit_1(workspace, capsys):
    tmp_path, routes, _ = workspace
    assert cli.main(["synth", "--bogus"]) == 1
    assert cli.main(["train", "--strategy", "sideways"]) == 1
    # unknown config key
    bad = write_config(tmp_path / "bad.cfg", epochs=1, warp_factor=9)
    assert cli.main(["train", "--strategy", "general", "--routes", routes,
                     "--config", bad, "--out", str(tmp_path / "o")]) == 1
    # zoned training without --zones
    ok = write_config(tmp_path / "ok.cfg", epochs=1)
    assert cli.main(["train", "--strategy", "zoned", "--routes", routes,
                     "--config", ok, "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()


def test_repeated_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_routes = 2\nseed = 1\nn_routes = 3\n")
    out = tmp_path / "r"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"{cfg}:3" in err and "n_routes" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_bytes(b"n_routes = 3\n\xff\xfe\n")
    out = tmp_path / "r"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read config file {cfg}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_data_errors_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", epochs=1)
    assert cli.main(["train", "--strategy", "general",
                     "--routes", str(tmp_path / "nowhere"),
                     "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # domain error from an invalid synth config value
    bad = write_config(tmp_path / "s.cfg", n_routes=0, seed=1)
    assert cli.main(["synth", "--config", bad,
                     "--out", str(tmp_path / "r")]) == 2
    capsys.readouterr()


def test_numeric_errors_exit_3(workspace, monkeypatch, capsys):
    tmp_path, routes, train_cfg = workspace

    def boom(*args, **kwargs):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(cli.pipeline, "train_general", boom)
    assert cli.main(["train", "--strategy", "general", "--routes", routes,
                     "--config", train_cfg, "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def assert_data_error_naming(path, capsys):
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err
    assert err.count("\n") == 1
    return err


def test_malformed_route_json_exits_2(workspace, capsys):
    tmp_path, routes, _ = workspace
    path = os.path.join(routes, "route_data.json")
    with open(path, "w") as fh:
        fh.write('{"R0000": {"stops": ')
    capsys.readouterr()
    assert cli.main(["zones", "--routes", routes, "--k", "1",
                     "--out", str(tmp_path / "z.json")]) == 2
    assert_data_error_naming(path, capsys)


def make_general_run(workspace):
    tmp_path, routes, train_cfg = workspace
    zones, gdir = str(tmp_path / "zones.json"), str(tmp_path / "g")
    tours = str(tmp_path / "tours.json")
    assert cli.main(["zones", "--routes", routes, "--k", "1", "--out", zones]) == 0
    assert cli.main(["train", "--strategy", "general", "--routes", routes,
                     "--config", train_cfg, "--out", gdir]) == 0
    assert cli.main(["infer", "--strategy", "general", "--routes", routes,
                     "--ckpt", gdir, "--out", tours]) == 0
    return tmp_path, routes, zones, gdir, tours


@pytest.fixture
def general_run(workspace):
    """A general checkpoint and its tours over the workspace routes, plus zones."""
    return make_general_run(workspace)


def rewrite_json(path, mutate):
    with open(path) as fh:
        payload = json.load(fh)
    mutate(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def eval_with_bad_tours(general_run, mutate_entry, capsys):
    tmp_path, routes, zones, _, tours = general_run
    bad = str(tmp_path / "bad_tours.json")
    with open(tours) as fh:
        payload = json.load(fh)
    mutate_entry(payload["tours"][sorted(payload["tours"])[0]])
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert cli.main(["eval", "--routes", routes, "--tours-general", tours,
                     "--tours-zoned", bad, "--zones", zones,
                     "--out", str(tmp_path / "r.json")]) == 2
    assert_data_error_naming(bad, capsys)


def test_unknown_stop_id_in_tours_exits_2(general_run, capsys):
    eval_with_bad_tours(
        general_run, lambda entry: entry.update(order=entry["order"][:-1] + ["NO_SUCH_STOP"]),
        capsys)


@pytest.mark.parametrize("mutate_entry", [
    lambda entry: entry.pop("order"),
    lambda entry: entry["order"].pop(),
    lambda entry: entry.update(order=entry["order"][:-1] + entry["order"][:1]),
], ids=["missing-order", "dropped-stop", "duplicated-stop"])
def test_tour_that_is_not_a_permutation_exits_2(general_run, mutate_entry, capsys):
    eval_with_bad_tours(general_run, mutate_entry, capsys)


def test_checkpoint_without_config_exits_2(general_run, capsys):
    tmp_path, routes, _, gdir, _ = general_run
    ckpt = os.path.join(gdir, "general.ckpt.json")
    rewrite_json(ckpt, lambda payload: payload.pop("config"))
    capsys.readouterr()
    assert cli.main(["infer", "--strategy", "general", "--routes", routes,
                     "--ckpt", gdir, "--out", str(tmp_path / "t.json")]) == 2
    assert_data_error_naming(ckpt, capsys)


def first_value_set_to(value):
    """An edit of a checkpoint tensor's base64 data that sets its first entry."""
    def edit(old):
        data = np.frombuffer(base64.b64decode(old), dtype="<f8").copy()
        data[0] = value
        return base64.b64encode(data.tobytes()).decode("ascii")
    return edit


@pytest.mark.parametrize("keys, edit", [
    (["format"], lambda old: 1),
    (["params", 0, "data"], lambda old: "!" + old[1:]),
    (["params", 3, "data"], lambda old: old[:-4]),
    (["params", 1, "shape"], lambda old: old[::-1]),
    (["params", 2, "shape"], None),
    (["params", 2, "data"], None),
    (["params", 3, "data"], first_value_set_to(np.nan)),
    (["params", 3, "data"], first_value_set_to(np.inf)),
    # integer fields hold JSON integers, not strings or floats of the same value
    (["config", "hidden_dim"], str),
    (["params", 1, "shape"], lambda old: [float(size) for size in old]),
    (["format"], float),
], ids=["format-1", "bad-base64", "truncated-data", "wrong-shape", "no-shape", "no-data",
        "nan-value", "inf-value", "hidden-dim-string", "float-shape", "format-float"])
def test_malformed_checkpoint_exits_2(general_run, keys, edit, capsys):
    tmp_path, routes, _, gdir, _ = general_run
    ckpt = os.path.join(gdir, "general.ckpt.json")

    def mutate(payload):
        *parents, last = keys
        for key in parents:
            payload = payload[key]
        if edit is None:
            del payload[last]
        else:
            payload[last] = edit(payload[last])

    rewrite_json(ckpt, mutate)
    capsys.readouterr()
    assert cli.main(["infer", "--strategy", "general", "--routes", routes,
                     "--ckpt", gdir, "--out", str(tmp_path / "t.json")]) == 2
    err = assert_data_error_naming(ckpt, capsys)
    if keys[:2] == ["params", 3]:
        assert "gat1.W_edge" in err


def test_grid_file_missing_key_exits_2(general_run, capsys):
    tmp_path, routes, _, gdir, _ = general_run
    grid = os.path.join(gdir, "grid.json")
    rewrite_json(grid, lambda payload: payload.pop("ref_edge_m"))
    capsys.readouterr()
    assert cli.main(["infer", "--strategy", "general", "--routes", routes,
                     "--ckpt", gdir, "--out", str(tmp_path / "t.json")]) == 2
    assert_data_error_naming(grid, capsys)


def stage_argv(stage, run):
    """Arguments of the CLI stage `stage` over a `general_run` directory; the
    zoned checkpoint is `z` under it."""
    tmp_path, routes, zones, gdir, tours = run
    out = str(tmp_path / "out.json")
    return {
        "zones": ["zones", "--routes", routes, "--k", "1", "--out", out],
        "train-zoned": ["train", "--strategy", "zoned", "--routes", routes, "--zones", zones,
                        "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "zz"),
                        "--jobs", "1"],
        "infer-general": ["infer", "--strategy", "general", "--routes", routes,
                          "--ckpt", gdir, "--out", out],
        "infer-zoned": ["infer", "--strategy", "zoned", "--routes", routes,
                        "--ckpt", str(tmp_path / "z"), "--out", out],
        "eval": ["eval", "--routes", routes, "--tours-general", tours,
                 "--tours-zoned", tours, "--zones", zones, "--out", out],
    }[stage]


def edited_text(edit):
    def apply(path):
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
    return apply


truncate = edited_text(lambda text: text[:len(text) // 2])
nested_arrays = edited_text(lambda text: "[" * 100_000 + "]" * 100_000)


def set_first(block, value):
    block[sorted(block)[0]] = value


def first_value(block):
    return block[sorted(block)[0]]


def rewritten(mutate):
    return lambda path: rewrite_json(path, mutate)


# id -> (file corrupted, relative to the run directory; how; the stage that
# reads it; the path the error line names)
CONTRACT_PROBES = {
    "route-entry-is-list": (
        "routes/route_data.json",
        rewritten(lambda d: d.update(R0000=list(d["R0000"].values()))), "zones", "routes"),
    "routes-top-level-list": ("routes/route_data.json", edited_text(lambda text: f"[{text}]"),
                              "zones", "routes"),
    # a directory without a route has no tour to infer
    "routes-none": ("routes/route_data.json", rewritten(dict.clear), "infer-general", "routes"),
    "travel-time-abc": (
        "routes/travel_times.json",
        rewritten(lambda d: set_first(first_value(d["R0000"]), "abc")), "zones", "routes"),
    "travel-time-null": (
        "routes/travel_times.json",
        rewritten(lambda d: set_first(first_value(d["R0000"]), None)), "zones", "routes"),
    # json writes these floats as the NaN and Infinity literals
    "travel-time-NaN": (
        "routes/travel_times.json",
        rewritten(lambda d: set_first(first_value(d["R0000"]), float("nan"))), "zones", "routes"),
    "travel-time-Infinity": (
        "routes/travel_times.json",
        rewritten(lambda d: set_first(first_value(d["R0000"]), float("inf"))), "zones", "routes"),
    # finite times whose sum overflows float64, so a tour's length would be inf
    "travel-time-1e308": (
        "routes/travel_times.json",
        rewritten(lambda d: [row.update({j: 1e308 for j in row if j != i})
                             for i, row in d["R0000"].items()]), "eval", "routes"),
    # a zone_id is a string or null; any stage that loads routes says so
    "zone-id-3.0": (
        "routes/route_data.json",
        rewritten(lambda d: first_value(d["R0000"]["stops"]).update(zone_id=3.0)),
        "infer-general", "routes"),
    "zone-id-NaN": (
        "routes/route_data.json",
        rewritten(lambda d: first_value(d["R0000"]["stops"]).update(zone_id=float("nan"))),
        "zones", "routes"),
    "zone-id-true": (
        "routes/route_data.json",
        rewritten(lambda d: first_value(d["R0000"]["stops"]).update(zone_id=True)),
        "eval", "routes"),
    "lat-north": (
        "routes/route_data.json",
        rewritten(lambda d: first_value(d["R0000"]["stops"]).update(lat="north")),
        "zones", "routes"),
    # a number read from a file is a JSON number: float() would take a
    # boolean as 0.0 or 1.0 and a string of digits as its value
    "lat-true": (
        "routes/route_data.json",
        rewritten(lambda d: first_value(d["R0000"]["stops"]).update(lat=True)), "zones", "routes"),
    "lat-string": (
        "routes/route_data.json",
        rewritten(lambda d: first_value(d["R0000"]["stops"]).update(
            lat=str(first_value(d["R0000"]["stops"])["lat"]))), "zones", "routes"),
    "travel-time-true": (
        "routes/travel_times.json",
        rewritten(lambda d: set_first(first_value(d["R0000"]), True)), "zones", "routes"),
    "travel-time-string": (
        "routes/travel_times.json",
        rewritten(lambda d: set_first(first_value(d["R0000"]),
                                      str(first_value(first_value(d["R0000"]))))),
        "zones", "routes"),
    "grid-origin-lat-string": (
        "g/grid.json", rewritten(lambda d: d.update(origin_lat=str(d["origin_lat"]))),
        "infer-general", "g/grid.json"),
    "grid-ref-edge-true": ("g/grid.json", rewritten(lambda d: d.update(ref_edge_m=True)),
                           "infer-general", "g/grid.json"),
    "zones-centroid-string": (
        "zones.json", rewritten(lambda d: d["centroids"][0].__setitem__(
            0, str(d["centroids"][0][0]))), "train-zoned", "zones.json"),
    "zones-centroid-true": (
        "zones.json", rewritten(lambda d: d["centroids"][0].__setitem__(1, True)),
        "train-zoned", "zones.json"),
    "zones-origin-lng-false": (
        "zones.json", rewritten(lambda d: d["grid"].update(origin_lng=False)),
        "train-zoned", "zones.json"),
    "ckpt-dropout-string": (
        "g/general.ckpt.json",
        rewritten(lambda d: d["config"].update(dropout=str(d["config"]["dropout"]))),
        "infer-general", "g/general.ckpt.json"),
    "ckpt-dropout-false": (
        "g/general.ckpt.json", rewritten(lambda d: d["config"].update(dropout=False)),
        "infer-general", "g/general.ckpt.json"),
    "sequence-rank-x": (
        "routes/actual_sequences.json",
        rewritten(lambda d: set_first(d["R0000"]["actual"], "x")), "zones", "routes"),
    # the first stop is the station, of rank 0, so int() would read this as 0
    "sequence-rank-0.5": (
        "routes/actual_sequences.json",
        rewritten(lambda d: set_first(d["R0000"]["actual"], 0.5)), "zones", "routes"),
    "zones-truncated": ("zones.json", truncate, "eval", "zones.json"),
    "zoned-ckpt-zones-truncated": ("z/zones.json", truncate, "infer-zoned", "z/zones.json"),
    "zone-id-x": ("zones.json", rewritten(lambda d: set_first(d["cells"], "x")),
                  "eval", "zones.json"),
    "cell-id-ZZ": ("zones.json", rewritten(lambda d: d["cells"].update(ZZ=0)),
                   "eval", "zones.json"),
    "zone-id-99": ("zones.json", rewritten(lambda d: set_first(d["cells"], 99)),
                   "eval", "zones.json"),
    # integers that int() would truncate: k to the zoning's own k, and the
    # reference resolution to one that silently changes every cell's size
    "zones-k-plus-0.5": ("zones.json", rewritten(lambda d: d.update(k=d["k"] + 0.5)),
                         "eval", "zones.json"),
    "zones-ref-resolution-2.5": (
        "zones.json", rewritten(lambda d: d["grid"].update(ref_resolution=2.5)),
        "eval", "zones.json"),
    # a resolution other than the cells' would send every stop to the
    # nearest-centroid fallback
    "zones-resolution-8": ("zones.json", rewritten(lambda d: d.update(resolution=8)),
                           "eval", "zones.json"),
    "zoned-ckpt-zones-resolution-8": ("z/zones.json", rewritten(lambda d: d.update(resolution=8)),
                                      "infer-zoned", "z/zones.json"),
    "zone-file-missing": ("z/zones/zone_0.ckpt.json", os.remove,
                          "infer-zoned", "z/zones/zone_0.ckpt.json"),
    "manifest-zone-id-x": ("z/zones/manifest.json", rewritten(lambda d: d.update(zones=["x"])),
                           "infer-zoned", "z/zones/manifest.json"),
    # arrays nested deeper than the JSON decoder recurses, on any Python
    "routes-nested-arrays": ("routes/route_data.json", nested_arrays, "zones", "routes"),
    "tours-nested-arrays": ("tours.json", nested_arrays, "eval", "tours.json"),
    # cell edges over which `cell_of` can address no cell: one so small that
    # a projected coordinate over it overflows, one that is itself infinite
    "zones-ref-edge-5e-324": ("zones.json", rewritten(lambda d: d["grid"].update(ref_edge_m=5e-324)),
                              "eval", "zones.json"),
    "zoned-ckpt-zones-ref-edge-1e308": (
        "z/zones.json", rewritten(lambda d: d["grid"].update(ref_edge_m=1e308, ref_resolution=15)),
        "infer-zoned", "z/zones.json"),
    # finite edges so small that a cell's axial coordinates overflow their field
    "zones-ref-edge-1e-300": ("zones.json", rewritten(lambda d: d["grid"].update(ref_edge_m=1e-300)),
                              "eval", "zones.json"),
    "zoned-ckpt-zones-ref-edge-1e-10": (
        "z/zones.json", rewritten(lambda d: d["grid"].update(ref_edge_m=1e-10)),
        "infer-zoned", "z/zones.json"),
}


@pytest.mark.parametrize("probe", sorted(CONTRACT_PROBES))
def test_corrupted_input_exits_2_naming_it(general_run, probe, capsys):
    tmp_path, routes, zones, _, _ = general_run
    target, corrupt, stage, named = CONTRACT_PROBES[probe]
    if stage == "infer-zoned":
        assert cli.main(["train", "--strategy", "zoned", "--routes", routes, "--zones", zones,
                         "--config", str(tmp_path / "train.cfg"),
                         "--out", str(tmp_path / "z"), "--jobs", "1"]) == 0
    corrupt(str(tmp_path / target))
    capsys.readouterr()
    assert cli.main(stage_argv(stage, general_run)) == 2
    assert_data_error_naming(tmp_path / named, capsys)


def test_eval_on_a_zero_length_ground_truth_names_the_route(general_run, capsys):
    tmp_path, routes, zones, _, tours = general_run

    def zero_travel(payload):
        for row in payload["R0000"].values():
            row.update(dict.fromkeys(row, 0.0))

    rewrite_json(os.path.join(routes, "travel_times.json"), zero_travel)
    capsys.readouterr()
    assert cli.main(["eval", "--routes", routes, "--tours-general", tours,
                     "--tours-zoned", tours, "--zones", zones,
                     "--out", str(tmp_path / "r.json")]) == 2
    err = assert_data_error_naming(routes, capsys)
    assert "route R0000" in err


def test_eval_on_an_overflowing_percentage_error_exits_3_writing_nothing(general_run, capsys):
    tmp_path, routes, zones, _, tours = general_run
    # R0000's ground truth takes 1e-300 s an edge and every other edge 1e10 s,
    # so the reversed tour's percentage error overflows to inf
    route = dataio.load_routes(routes)[0]
    ids = [route.stops[i].id for i in route.actual_order]
    edges = set(zip(ids, ids[1:]))

    def tiny_truth(payload):
        for a, row in payload["R0000"].items():
            row.update({b: 1e-300 if (a, b) in edges else 1e10 for b in row})

    rewrite_json(os.path.join(routes, "travel_times.json"), tiny_truth)
    rewrite_json(tours, lambda payload: payload["tours"]["R0000"].update(order=ids[::-1]))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(["eval", "--routes", routes, "--tours-general", tours,
                     "--tours-zoned", tours, "--zones", zones, "--out", str(report)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric error:") and err.count("\n") == 1
    assert str(report) in err
    assert not list(tmp_path.glob("report.json*"))


def test_a_utf8_route_file_gives_the_same_tours_under_an_ascii_locale(general_run):
    # JSON is UTF-8 (RFC 8259); a zone id read in another encoding would hash
    # to other node features, and so to other tours
    tmp_path, routes, _, gdir, _ = general_run
    path = os.path.join(routes, "route_data.json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for stop in first_value(payload)["stops"].values():
        stop["zone_id"] = "Zoné-" + str(stop["zone_id"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)
    src = os.path.dirname(os.path.dirname(zoneroute.__file__))
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    for name, locale in (("default.json", {}), ("ascii.json", ascii_locale)):
        done = subprocess.run([sys.executable, "-m", "zoneroute.cli", "infer", "--strategy",
                               "general", "--routes", routes, "--ckpt", gdir,
                               "--out", str(tmp_path / name)], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src, **locale})
        assert (done.returncode, done.stderr) == (0, b"")
    assert read_bytes(tmp_path / "default.json") == read_bytes(tmp_path / "ascii.json")


def test_zones_on_a_directory_without_routes_prints_one_line(workspace):
    tmp_path, routes, _ = workspace
    rewrite_json(os.path.join(routes, "route_data.json"), dict.clear)
    src = os.path.dirname(os.path.dirname(zoneroute.__file__))
    # in a fresh process, where a numpy warning would reach stderr
    done = subprocess.run([sys.executable, "-m", "zoneroute.cli", "zones", "--routes", routes,
                           "--k", "1", "--out", str(tmp_path / "z.json")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == \
        (2, f"data error: {routes}: route_data.json holds no routes\n")
    assert not (tmp_path / "z.json").exists()


def cut_to_station(routes, count):
    """Cut the first `count` routes of a route directory to their station;
    returns the cut routes."""
    loaded = dataio.load_routes(routes)
    for k, route in enumerate(loaded[:count]):
        loaded[k] = Route(id=route.id, stops=[route.stops[route.start_index]],
                          travel=np.zeros((1, 1)), actual_order=[0])
    dataio.save_routes(loaded, routes)
    return loaded[:count]


def test_eval_leaves_out_one_stop_routes(general_run, capsys):
    tmp_path, routes, zones, _, tours = general_run
    first, = cut_to_station(routes, 1)
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["eval", "--routes", routes, "--tours-general", tours,
                     "--tours-zoned", tours, "--zones", zones, "--out", str(report)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("evaluated 5 routes (1 one-stop left out): ") and err == ""
    payload = json.loads(report.read_text())
    assert set(payload) == {"rows", "aggregates", "groups"}
    assert len(payload["rows"]) == 5 and first.id not in {r["route_id"] for r in payload["rows"]}


def test_eval_without_a_route_of_two_stops_exits_2_naming_the_routes(general_run, capsys):
    tmp_path, routes, zones, _, tours = general_run
    cut_to_station(routes, 6)
    capsys.readouterr()
    assert cli.main(["eval", "--routes", routes, "--tours-general", tours,
                     "--tours-zoned", tours, "--zones", zones,
                     "--out", str(tmp_path / "r.json")]) == 2
    assert "no route of two or more stops" in assert_data_error_naming(routes, capsys)


def test_one_stop_route_is_inferred_as_its_station_by_both_strategies(general_run):
    tmp_path, routes, zones, gdir, _ = general_run
    zdir = str(tmp_path / "z")
    assert cli.main(["train", "--strategy", "zoned", "--routes", routes, "--zones", zones,
                     "--config", str(tmp_path / "train.cfg"), "--out", zdir, "--jobs", "1"]) == 0
    first, = cut_to_station(routes, 1)
    station = first.stops[0]
    for strategy, ckpt in (("general", gdir), ("zoned", zdir)):
        out = tmp_path / f"tours-{strategy}.json"
        assert cli.main(["infer", "--strategy", strategy, "--routes", routes,
                         "--ckpt", ckpt, "--out", str(out)]) == 0
        tour = json.loads(out.read_text())["tours"][first.id]
        assert tour["order"] == [station.id] and tour["length_s"] == 0.0


# non-finite synth config values: each must exit 2 naming the config file
SYNTH_CONFIG_CASES = {
    "speed-mps-inf": ("speed_mps", "inf"),
    "speed-mps-nan": ("speed_mps", "nan"),
    "metro-radius-m-inf": ("metro_radius_m", "inf"),
    "metro-radius-m-nan": ("metro_radius_m", "nan"),
    "metro-radius-m-1e300": ("metro_radius_m", "1e300"),
    "metro-radius-m-1.2e7": ("metro_radius_m", "1.2e7"),
    "speed-mps-1e-320": ("speed_mps", "1e-320"),
}


def bad_value_argv(case, run):
    """Arguments of a CLI call on a `general_run` directory that meets one bad
    config value, seed or route directory."""
    tmp_path, routes, zones, _, tours = run
    out = str(tmp_path / "out")
    if case == "synth-seed--1":
        cfg = write_config(tmp_path / "s.cfg", n_routes=2, seed=-1)
        return ["synth", "--config", cfg, "--out", out]
    if case == "zones-seed--1":
        return ["zones", "--routes", routes, "--k", "1", "--seed", "-1", "--out", out]
    if case == "eval-without-sequences":
        os.remove(os.path.join(routes, "actual_sequences.json"))
        return stage_argv("eval", run)
    if case in SYNTH_CONFIG_CASES:
        key, value = SYNTH_CONFIG_CASES[case]
        cfg = write_config(tmp_path / "s.cfg", n_routes=2, **{key: value})
        return ["synth", "--config", cfg, "--out", out]
    key, value = {"hidden-dim-0": ("hidden_dim", 0),
                  "max-grad-norm-nan": ("max_grad_norm", "nan"),
                  "train-seed--1": ("seed", -1)}[case]
    cfg = write_config(tmp_path / "t.cfg", epochs=1, **{key: value})
    return ["train", "--strategy", "general", "--routes", routes, "--config", cfg,
            "--out", out]


@pytest.mark.parametrize("case", ["synth-seed--1", "zones-seed--1", "train-seed--1",
                                  "hidden-dim-0", "max-grad-norm-nan", "eval-without-sequences",
                                  *SYNTH_CONFIG_CASES])
def test_bad_value_exits_2_with_one_line(general_run, case, capsys):
    argv = bad_value_argv(case, general_run)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if case == "eval-without-sequences":
        assert general_run[1] in err
    if case in SYNTH_CONFIG_CASES:
        assert str(general_run[0] / "s.cfg") in err and SYNTH_CONFIG_CASES[case][0] in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_train_jobs_below_one_is_a_usage_error(tmp_path, jobs, capsys):
    assert cli.main(["train", "--strategy", "zoned", "--routes", str(tmp_path),
                     "--zones", str(tmp_path / "zones.json"), "--config", str(tmp_path / "t.cfg"),
                     "--out", str(tmp_path / "z"), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--jobs" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["zones", "--routes", "r", "--res", "7", "--out", "z.json"], "--res 7"),
    (["train", "--strategy", "general", "--routes", "r", "--config", "t.cfg", "--out", "o",
      "--job", "2"], "--job 2"),
], ids=["zones-res", "train-job"])
def test_an_abbreviated_flag_is_a_usage_error(argv, flag, capsys):
    # argparse would take a flag's prefix for the flag
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {flag}\n"


def test_train_jobs_defaults_to_the_usable_cpus(monkeypatch):
    argv = ["train", "--strategy", "general", "--routes", "r", "--config", "c", "--out", "o"]
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert cli.build_parser().parse_args(argv).jobs == 2  # taskset or a cpuset: 2 of 64
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.build_parser().parse_args(argv).jobs == 64


def _tree(root):
    return {os.path.relpath(os.path.join(d, f), root): read_bytes(os.path.join(d, f))
            for d, _, files in os.walk(root) for f in files}


def _train_general(workspace, out, jobs):
    tmp_path, routes, train_cfg = workspace
    return cli.main(["train", "--strategy", "general", "--routes", routes, "--config", train_cfg,
                     "--out", str(tmp_path / out), "--jobs", jobs])


def test_general_training_writes_the_same_checkpoint_for_any_jobs(workspace, forked_workers):
    assert _train_general(workspace, "one", "1") == 0
    assert _train_general(workspace, "two", "2") == 0
    assert forked_workers == [0, 1]
    tmp_path = workspace[0]
    one, two = _tree(tmp_path / "one"), _tree(tmp_path / "two")
    assert sorted(one) == ["general.ckpt.json", "grid.json", "train_log.csv"]
    assert one == two


def _in_workers(monkeypatch, module, name, fault):
    """Patch module.name so that in a forked worker it calls fault(result)."""
    parent, real = os.getpid(), getattr(module, name)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return out if os.getpid() == parent else fault(out)

    monkeypatch.setattr(module, name, patched)


def _exit_in_worker(_):
    os._exit(9)


def _no_memory():
    """numpy's error for an array of 8 TiB, made without allocating one."""
    return _ArrayMemoryError((2 ** 40,), np.dtype(float))


def _out_of_memory(*_):
    raise _no_memory()


@pytest.mark.parametrize("fault, code, line", [
    # the decoder emits NaN logits, which its check turns into a NumericError
    ((ad, "pointer_fwd", lambda logits: logits * np.nan), 3,
     "numeric error: non-finite pointer log-probabilities\n"),
    # the worker dies while it encodes a route
    ((pipeline, "encode", _exit_in_worker), 2,
     "data error: worker process 1 stopped unexpectedly (exit code 9)\n"),
    # the worker cannot allocate while it encodes a route
    ((pipeline, "encode", _out_of_memory), 2, f"data error: out of memory: {_no_memory()}\n"),
])
def test_a_failing_worker_ends_training_with_one_line(workspace, forked_workers, monkeypatch,
                                                      capfd, fault, code, line):
    _in_workers(monkeypatch, *fault)
    mask = os.sched_getaffinity(0)
    capfd.readouterr()
    assert _train_general(workspace, "failed", "2") == code
    assert forked_workers == [1]
    assert capfd.readouterr().err == line
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == mask


def test_a_worker_allocation_failure_is_raised_here_as_a_memory_error(forked_workers):
    # numpy's _ArrayMemoryError cannot be built from its message alone
    with parallel.Team(2, _out_of_memory) as team:
        with pytest.raises(MemoryError) as caught:
            team.run([None, "request"], lambda _: None)
    assert forked_workers == [1]
    assert str(caught.value) == str(_no_memory())


@pytest.mark.parametrize("error, line", [
    (MemoryError, "data error: out of memory: an allocation failed\n"),
    (_no_memory, f"data error: out of memory: {_no_memory()}\n"),
], ids=["bare", "numpy"])
def test_running_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys, error, line):
    def fail(cfg):
        raise error()

    monkeypatch.setattr(dataio, "generate_synthetic", fail)
    cfg = write_config(tmp_path / "s.cfg", n_routes=2, seed=1)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == line


def _zoned_workspace(workspace):
    tmp_path, routes, train_cfg = workspace
    zones = str(tmp_path / "zones.json")
    assert cli.main(["zones", "--routes", routes, "--resolution", "8", "--k", "2",
                     "--out", zones]) == 0
    return zones


def test_a_dead_zone_worker_ends_training_with_one_line(workspace, forked_workers, monkeypatch,
                                                       capfd):
    tmp_path, routes, train_cfg = workspace
    zones = _zoned_workspace(workspace)
    # this process trains zones too: only a worker dies, after its first zone
    _in_workers(monkeypatch, pipeline, "_train_zone_worker", _exit_in_worker)
    mask = os.sched_getaffinity(0)
    capfd.readouterr()
    assert cli.main(["train", "--strategy", "zoned", "--routes", routes, "--zones", zones,
                     "--config", train_cfg, "--out", str(tmp_path / "z"), "--jobs", "2"]) == 2
    assert forked_workers[0] == 1
    assert capfd.readouterr().err == \
        "data error: worker process 1 stopped unexpectedly (exit code 9)\n"
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == mask


# config -> exit code and stderr: Adam steps of 1e300 overflow the encoder's
# output; steps of 5 overflow `exp` and `expm1` in the sigmoid and ELU
# kernels, which is harmless, as their results saturate
NUMERIC_RUNS = {
    "lr-1e300": (dict(epochs=3, lr="1e300", seed=5), 3,
                 "numeric error: non-finite values in tensor encode\n"),
    "lr-5-unclipped": (dict(epochs=4, lr=5, max_grad_norm=0, seed=5), 0, ""),
}

# the CLI in a fresh process, where numpy's warnings reach stderr as they do
# from a shell; training may fork although a BLAS runs threads, and
# each Team prints how many workers it starts
FRESH_CLI = ("import sys; from zoneroute import cli, parallel; "
             "parallel.single_threaded = lambda: True; enter = parallel.Team.__enter__; "
             "parallel.Team.__enter__ = lambda team: print('workers', team.size) or enter(team); "
             "sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("strategy, jobs, start_method", [
    pytest.param("general", "1", None, id="general-1"),
    pytest.param("general", "2", None, id="general-2"),
    pytest.param("zoned", "2", None, id="zoned-2"),
    # Linux's default from Python 3.14; zone workers must still be forked
    pytest.param("zoned", "2", "forkserver", id="zoned-2-forkserver"),
])
@pytest.mark.parametrize("run", sorted(NUMERIC_RUNS))
def test_numeric_trouble_prints_one_line_or_none(workspace, request, strategy, jobs,
                                                 start_method, run):
    tmp_path, routes, _ = workspace
    config, code, err = NUMERIC_RUNS[run]
    cut_to_station(routes, 1)
    argv = ["train", "--strategy", strategy, "--routes", routes,
            "--config", write_config(tmp_path / "t.cfg", **config),
            "--out", str(tmp_path / "o"), "--jobs", jobs]
    if strategy == "zoned":
        argv += ["--zones", _zoned_workspace(workspace)]
    if jobs == "2":
        request.getfixturevalue("forked_workers")  # skips where workers cannot run
    src = os.path.dirname(os.path.dirname(zoneroute.__file__))
    script = FRESH_CLI
    if start_method is not None:
        script = f"import multiprocessing as mp; mp.set_start_method({start_method!r}); {script}"
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (code, err)
    assert f"workers {int(jobs) - 1}\n" in done.stdout


def test_output_in_a_missing_directory_names_the_output(shared_run, capsys):
    tmp_path, routes, zones, _, tours = shared_run
    out = tmp_path / "missing" / "report.json"
    capsys.readouterr()
    assert cli.main(["eval", "--routes", routes, "--tours-general", tours,
                     "--tours-zoned", tours, "--zones", zones, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(out) in err and ".tmp" not in err


def test_general_training_with_zones_is_a_usage_error(shared_run, capsys):
    tmp_path, routes, zones, _, _ = shared_run
    out = tmp_path / "gz"
    capsys.readouterr()
    assert cli.main(["train", "--strategy", "general", "--routes", routes, "--zones", zones,
                     "--config", str(tmp_path / "train.cfg"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--zones" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def shared_run(tmp_path_factory):
    """A `general_run` built once for the tests that only read it."""
    return make_general_run(make_workspace(tmp_path_factory.mktemp("shared")))


# every JSON input of the chain -> the stage that reads it
TRUNCATION_STAGES = {
    "routes/route_data.json": "zones",
    "routes/travel_times.json": "zones",
    "routes/actual_sequences.json": "zones",
    "zones.json": "eval",
    "g/grid.json": "infer-general",
    "g/general.ckpt.json": "infer-general",
    "tours.json": "eval",
}


def run_on_corrupted(run, name, content):
    """Exit code and stderr lines of the stage reading `name` with `content`
    in its place; the file is restored afterwards."""
    path = str(run[0] / name)
    original = read_bytes(path)
    err = io.StringIO()
    try:
        with open(path, "wb") as fh:
            fh.write(content(original))
        with contextlib.redirect_stderr(err):
            code = cli.main(stage_argv(TRUNCATION_STAGES[name], run))
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(TRUNCATION_STAGES))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_truncated_input_exits_2(shared_run, name, data):
    code, lines = run_on_corrupted(
        shared_run, name, lambda original: original[:data.draw(
            st.integers(0, len(original) - 1), label="offset")])
    assert code == 2
    path = str(shared_run[0] / name)
    assert len(lines) == 1 and lines[0].startswith("data error:") and path in lines[0]


def numeric_leaves(node, path=()):
    """The key path of every number in a JSON value; a boolean is none."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in numeric_leaves(child, path + (key,))]
    return [path] if type(node) in (int, float) else []


# every number in these files is read by the stage; `eval` reads neither
# `length_s` nor `log_prob` from a tours file
@pytest.mark.parametrize("name", sorted(set(TRUNCATION_STAGES) - {"tours.json"}))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_number_of_the_wrong_type_exits_2(shared_run, name, data):
    def mutate(original):
        payload = json.loads(original)
        *keys, last = data.draw(st.sampled_from(numeric_leaves(payload)), label="leaf")
        block = functools.reduce(operator.getitem, keys, payload)
        old = block[last]
        # every integer field is written as a JSON integer, every other
        # number with a fraction or exponent
        wrong = [True, False, None, json.dumps(old), [old]] + [old + 0.5] * (type(old) is int)
        block[last] = data.draw(st.sampled_from(wrong), label="value")
        return json.dumps(payload).encode()

    assert_one_data_error(shared_run, name, *run_on_corrupted(shared_run, name, mutate))


def assert_one_data_error(run, name, code, lines):
    """Exit 2 and one `data error:` line naming the file, or for a route
    file the route directory."""
    named = run[0] / ("routes" if name.startswith("routes/") else name)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("data error:") and str(named) in lines[0]


# values of the right type that no input may hold: a stop id that a route
# lacks, or has twice, in a tour, and a travel time that is not finite
@pytest.mark.parametrize("name", ["routes/travel_times.json", "tours.json"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_bad_value_of_the_right_type_exits_2(shared_run, name, data):
    def mutate(original):
        payload = json.loads(original)
        if name == "tours.json":
            tour = payload["tours"][data.draw(st.sampled_from(sorted(payload["tours"])),
                                              label="route")]
            at = data.draw(st.integers(0, len(tour["order"]) - 1), label="position")
            # the stop before `at` in the tour (the last one for 0) is listed twice
            tour["order"][at] = data.draw(st.sampled_from(["NO_SUCH_STOP",
                                                           tour["order"][at - 1]]), label="id")
        else:
            rows = payload[data.draw(st.sampled_from(sorted(payload)), label="route")]
            row = rows[data.draw(st.sampled_from(sorted(rows)), label="from")]
            row[data.draw(st.sampled_from(sorted(row)), label="to")] = data.draw(
                st.sampled_from([float("nan"), float("inf"), float("-inf")]), label="value")
        return json.dumps(payload).encode()  # writes NaN, Infinity and -Infinity

    assert_one_data_error(shared_run, name, *run_on_corrupted(shared_run, name, mutate))


def test_cli_import_leaves_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(zoneroute.__file__))
    code = ("import sys, zoneroute.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
