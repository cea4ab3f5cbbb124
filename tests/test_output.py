"""CSV and JSON emission: exact round-trips and stable formats."""

import json

import numpy as np
import pytest

from finitebath import output, workers
from finitebath.experiments import ThermalizationCurve
from finitebath.output import (
    CURVE_HEADER,
    RunManifest,
    emit_curve,
    emit_histogram,
    fmt,
    read_histogram,
)
from finitebath.stats import EnergyHistogram, TemperatureFit


def _toy_curve():
    omegas = np.array([0.3, 0.5, 1.0 / 3.0])
    n = len(omegas)
    return ThermalizationCurve(
        omegas=omegas,
        temperature=np.array([4.9, 5.1, np.nan]),
        sigma=np.array([0.1, 0.2, np.nan]),
        goodness=np.array([1.0, 2.0, np.nan]),
        overflow_fraction=np.array([0.0, 0.01, np.nan]),
        bath_initial=((5.02, 0.11),),
        bath_final=((np.array([5.0, 5.1, np.pi]), np.array([0.1] * n)),),
        outcomes=())


def test_fmt_round_trips_binary_floats():
    for x in (np.pi, 1.0 / 3.0, 5.0, 1e-17):
        assert float(fmt(x)) == x
    assert fmt(float("nan")) == "nan"


def test_curve_round_trip(tmp_path, read_curve):
    path = tmp_path / "curve.csv"
    emit_curve(_toy_curve(), path)
    cols = read_curve(path)
    assert list(cols) == CURVE_HEADER.split(",")
    np.testing.assert_array_equal(cols["omega"], [0.3, 0.5, 1.0 / 3.0])
    np.testing.assert_array_equal(cols["T_tp"][:2], [4.9, 5.1])
    assert np.isnan(cols["T_tp"][2])
    np.testing.assert_array_equal(cols["T_bath_init"], [5.02] * 3)
    assert cols["T_bath_final"][2] == np.pi


def test_identical_curves_write_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_curve(_toy_curve(), a)
    emit_curve(_toy_curve(), b)
    assert a.read_bytes() == b.read_bytes()


def test_curve_reader_rejects_other_files(tmp_path, read_curve):
    path = tmp_path / "other.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="bad header"):
        read_curve(path)


def test_histogram_round_trip(tmp_path):
    hist = EnergyHistogram(bin_edges=np.linspace(0.0, 8.0, 6),
                           counts=np.array([7, 3, 2, 1, 0]),
                           overflow=2, total_samples=15)
    fit = TemperatureFit(temperature=5.0, sigma=0.3, slope=-0.2, intercept=2.0,
                         n_bins_used=4, goodness=0.1)
    path = tmp_path / "hist.csv"
    emit_histogram(hist, fit, path)
    back = read_histogram(path)
    np.testing.assert_allclose(back.bin_edges, hist.bin_edges, rtol=1e-15)
    np.testing.assert_array_equal(back.counts, hist.counts)
    sidecar = json.loads((tmp_path / "hist.json").read_text())
    assert sidecar["fit"]["temperature"] == 5.0
    assert sidecar["overflow"] == 2
    assert sidecar["manifest"] == "manifest.json"


def test_histogram_without_fit_has_a_null_fit(tmp_path):
    hist = EnergyHistogram(bin_edges=np.linspace(0.0, 1.0, 6),
                           counts=np.zeros(5, dtype=int),
                           overflow=0, total_samples=0)
    emit_histogram(hist, None, tmp_path / "h.csv")
    assert json.loads((tmp_path / "h.json").read_text())["fit"] is None


def test_histogram_reader_rejects_other_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("omega,T\n")
    with pytest.raises(ValueError, match="bad header"):
        read_histogram(path)
    path.write_text("bin_lo,bin_hi,count\n")
    with pytest.raises(ValueError, match="no bins"):
        read_histogram(path)


def test_manifest_records_the_run(tmp_path):
    man = RunManifest(command="single", config={"omega": 0.5}, seeds=(1, 2),
                      code_version="0.1.0", propagator="eigen",
                      step_size=np.float64(0.02))
    man.outputs.append("curve.csv")
    path = tmp_path / "manifest.json"
    man.write(path)
    back = json.loads(path.read_text())
    assert back["command"] == "single"
    assert back["seeds"] == [1, 2]
    assert back["step_size"] == 0.02
    assert back["started"] <= back["finished"]
    assert back["outputs"] == ["curve.csv"]


def test_environment_names_the_blas_build_where_the_blas_reports_one(monkeypatch):
    """blas_config is OpenBLAS's get_config string, found beside its thread getter, else null."""
    config = output.run_environment()["blas_config"]
    if workers._blas_config is None:
        assert config is None
    else:
        assert config.startswith("OpenBLAS")
    monkeypatch.setattr(workers, "_blas_config", None)
    assert output.run_environment()["blas_config"] is None
    monkeypatch.setattr(workers, "_blas_config", lambda: b"OpenBLAS 0.3.31 SkylakeX")
    assert output.run_environment()["blas_config"] == "OpenBLAS 0.3.31 SkylakeX"


def test_a_manifest_without_scipy_records_a_null_version(tmp_path, monkeypatch):
    """A run uses no scipy: where it is not installed, environment.scipy is null."""
    find_spec = output.importlib.util.find_spec
    monkeypatch.setattr(output.importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    assert output.scipy_version() is None
    man = RunManifest(command="single", config={}, seeds=(1,), code_version="0.1.0",
                      propagator="eigen")
    man.write(tmp_path / "manifest.json")
    back = json.loads((tmp_path / "manifest.json").read_text())
    assert back["environment"]["scipy"] is None
    assert back["environment"]["numpy"] == np.__version__
