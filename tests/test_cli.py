import io
import json
import math
import re
import warnings

import numpy as np
import pytest

import potts_landscape as pl
import potts_landscape.cli as cli
from potts_landscape.cli import label_slice_cells, main
from potts_landscape.export import (SCHEMAS, read_csv, read_json, write_csv,
                                    write_json)
from potts_landscape.maxwell import track_segment_pair
from potts_landscape.model import batch_degeneracy_lhs
from potts_landscape.stationary import newton_stationary


def run(args):
    return main(args)


def assert_domain_error(capsys, args):
    """Exit code 2, one 'domain error:' line on stderr, nothing written."""
    assert run(args) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:"), lines
    assert captured.out == ""


class TestNonFiniteInput:
    def test_slice_beta_nan(self, capsys):
        assert_domain_error(capsys, ["slice", "--beta", "nan"])

    def test_surface_beta_max_nan(self, capsys):
        assert_domain_error(capsys, ["surface", "--beta-max", "nan"])

    def test_slice_beta_inf(self, capsys):
        assert_domain_error(capsys, ["slice", "--beta", "inf"])

    def test_slice_extent_nan_svg(self, capsys):
        assert_domain_error(capsys, ["slice", "--beta", "2.3", "--extent",
                                     "nan", "--format", "svg"])


class TestSizeBounds:
    """Out-of-range size flags end in one domain error line while the
    arguments are parsed, before the command allocates anything."""

    @pytest.mark.parametrize("args", [
        ["slice", "--beta", "2.3", "--format", "svg", "--label-cells",
         "--resolution", "1"],
        ["slice", "--beta", "2.3", "--format", "svg", "--label-cells",
         "--resolution", "-5"],
        ["surface", "--grid", "100000"],
        ["potential", "--beta", "2.6", "--grid", "100000000"],
        ["slice", "--beta", "2.3", "--samples", "100000000"],
        ["maxwell", "--beta", "2.4", "--segment-samples", "0"],
        ["surface", "--grid", "64.5"],
    ])
    def test_refused_before_the_command_runs(self, capsys, monkeypatch,
                                             args):
        def forbidden(args):
            raise AssertionError("command ran with an out-of-range size")

        monkeypatch.setattr(cli, f"cmd_{args[0]}", forbidden)
        assert_domain_error(capsys, args)

    def test_bounds_clear_the_sizes_in_use(self):
        parser = cli.build_parser()
        for args, name, used in (
                (["slice", "--beta", "2", "--samples", "6000"], "samples",
                 6000),
                (["slice", "--beta", "2", "--resolution", "512"],
                 "resolution", 512),
                (["surface", "--grid", "128"], "grid", 128),
                (["potential", "--beta", "2", "--grid", "128"], "grid", 128),
                (["maxwell", "--beta", "2", "--segment-samples", "40"],
                 "segment_samples", 40)):
            assert getattr(parser.parse_args(args), name) == used
            args[-1] = str(4 * used)
            assert getattr(parser.parse_args(args), name) == 4 * used


class TestNonFiniteOutput:
    RECORD = {"butterfly": 18 / 7, "cross": 2.74, "ellis_wang": 2.77,
              "touch": 2.80, "umbilic": 3.0}

    @pytest.mark.parametrize("writer", [write_csv, write_json])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_writers_refuse(self, writer, bad):
        fh = io.StringIO()
        with pytest.raises(pl.NumericalError, match="non-finite|JSON"):
            writer(fh, "critical_temps", [dict(self.RECORD, touch=bad)])
        assert "inf" not in fh.getvalue().lower()
        assert "nan" not in fh.getvalue().lower()

    @pytest.mark.parametrize("writer", [write_csv, write_json])
    def test_unused_minimizer_slots_allowed(self, writer):
        rec = {name: 0.25 for name, typ in SCHEMAS["maxwell_point"]
               if typ is float}
        rec.update(section="segment", index=0, n_minimizers=2, m3_nu1=None,
                   m3_nu2=None, m3_nu3=None, m4_nu1=None, m4_nu2=None,
                   m4_nu3=None)
        fh = io.StringIO()
        writer(fh, "maxwell_point", [rec])
        assert "0.25" in fh.getvalue()

    def test_cli_exit_code(self, capsys, monkeypatch):
        temps = pl.CriticalTemps(**dict(self.RECORD, cross=math.nan))
        monkeypatch.setattr(cli, "all_critical_temps", lambda: temps)
        assert run(["critical", "--records"]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")


def test_written_records_finite_and_reload_bit_for_bit(tmp_path):
    """Random arguments for every subcommand: each written record is
    finite (bar the unused minimizer slots) and reloads to values that
    write back the same file."""
    rng = np.random.default_rng(20261018)

    def alpha():
        a = rng.dirichlet((2.0, 2.0, 2.0))
        return ",".join(repr(float(v)) for v in a)

    def beta(lo, hi):
        return repr(float(rng.uniform(lo, hi)))

    cases = [["critical"]]
    for _ in range(4):
        cases += [
            ["slice", "--beta", beta(2.05, 4.0), "--samples",
             str(rng.integers(10, 60))],
            ["surface", "--grid", str(rng.integers(16, 40)), "--beta-max",
             beta(2.0, 8.0)],
            ["census", "--beta", beta(0.5, 4.0), "--alpha", alpha()],
            ["maxwell", "--beta", beta(2.05, 3.4), "--segment-samples",
             str(rng.integers(2, 8))],
            ["potential", "--beta", beta(0.5, 4.0), "--alpha", alpha(),
             "--grid", str(rng.integers(16, 40))],
        ]
    for args in cases:
        out = tmp_path / f"{args[0]}.csv"
        assert run(args + ["--records", "--out", str(out)]) == 0, args
        kind, recs = read_csv(str(out))
        assert recs, args
        for rec in recs:
            for name, typ in SCHEMAS[kind]:
                value = rec[name]
                if value is None:
                    assert kind == "maxwell_point" and name[0] == "m", args
                elif typ is float:
                    assert math.isfinite(value), (args, name)
        again = io.StringIO()
        write_csv(again, kind, recs)
        assert again.getvalue() == out.read_text(), args


class TestCritical:
    def test_prints_ordered_values(self, capsys):
        assert run(["critical"]) == 0
        out = capsys.readouterr().out
        values = [float(line.split()[1]) for line in out.strip().splitlines()]
        assert values[0] == 18.0 / 7.0
        assert values[1] == pytest.approx(2.74564, abs=1e-4)
        assert values[2] == 4.0 * math.log(2.0)
        assert values[3] == pytest.approx(2.8024, abs=1e-3)
        assert values[4] == 3.0
        assert values == sorted(values)

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "crit.csv"
        assert run(["critical", "--out", str(out)]) == 0
        kind, recs = read_csv(str(out))
        assert kind == "critical_temps"
        assert recs[0]["butterfly"] == 18.0 / 7.0
        assert recs[0]["umbilic"] == 3.0


class TestSlice:
    def test_csv_reload_bit_for_bit(self, tmp_path):
        out = tmp_path / "slice.csv"
        assert run(["slice", "--beta", "2.3", "--samples", "60",
                    "--out", str(out)]) == 0
        kind, recs = read_csv(str(out))
        assert kind == "slice_point"
        assert {r["branch"] for r in recs} == {"123", "132", "213", "231",
                                               "312", "321"}
        curves = pl.slice_curves(2.3, 60)
        reference = []
        for c in curves:
            for k in range(len(c.x_param)):
                reference.append((c.nu[k, 0], c.alpha[k, 0]))
        got = [(r["nu1"], r["alpha1"]) for r in recs]
        assert got == reference  # exact float equality after reload

    def test_reloaded_points_satisfy_degeneracy(self, tmp_path):
        out = tmp_path / "slice.csv"
        run(["slice", "--beta", "2.3", "--samples", "80", "--out", str(out)])
        _, recs = read_csv(str(out))
        nu = np.array([[r["nu1"], r["nu2"], r["nu3"]] for r in recs])
        res = batch_degeneracy_lhs(2.3, nu)
        assert np.abs(res).max() <= 1e-9

    def test_json_format(self, tmp_path):
        out = tmp_path / "slice.json"
        assert run(["slice", "--beta", "2.3", "--samples", "20",
                    "--format", "json", "--out", str(out)]) == 0
        kind, recs = read_json(str(out))
        assert kind == "slice_point"
        assert len(recs) > 0
        raw = json.loads(out.read_text())
        assert raw[0]["schema_version"] == 1

    def test_empty_below_two_with_note(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run(["slice", "--beta", "1.5", "--out", str(out)]) == 0
        kind, recs = read_csv(str(out))
        assert kind == "slice_point"
        assert recs == []
        assert "note" in out.read_text()

    def test_svg_smoke(self, tmp_path):
        out = tmp_path / "slice.svg"
        assert run(["slice", "--beta", "2.3", "--format", "svg",
                    "--out", str(out)]) == 0
        doc = out.read_text()
        assert doc.startswith("<svg")
        assert "<polyline" in doc

    def test_label_cells_requires_svg(self, tmp_path):
        rc = run(["slice", "--beta", "2.3", "--label-cells",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestCellLabels:
    def test_empty_slice_single_cell_one_minimum(self):
        labelled = label_slice_cells(1.5, [], extent=6.0, resolution=128)
        counted = [c for _, c in labelled if c is not None]
        assert counted == [1]

    def test_hexagon_labelled_four(self):
        # the central hexagon between the crossing and touch temperatures
        # is tiny; zoom in to resolve it
        curves = pl.slice_curves(2.75, samples_per_interval=6000)
        labelled = label_slice_cells(2.75, curves, extent=0.02,
                                     resolution=512)
        origin_cells = [
            (region, count) for region, count in labelled
            if count is not None
            and np.hypot(*region.centroid) < 0.02
            and count == 4]
        assert origin_cells, "no central cell labelled 4"

    def test_labels_permutation_consistent(self):
        # cells mapped onto each other by the symmetry carry equal labels:
        # the three rocket interiors at beta = 2.3 all read 2
        curves = pl.slice_curves(2.3, samples_per_interval=800)
        labelled = label_slice_cells(2.3, curves, extent=6.0, resolution=512)
        rocket_counts = [c for region, c in labelled
                         if c is not None and region.n_pixels < 30000]
        assert rocket_counts.count(2) == 3


class TestSurface:
    def test_pinch_point_row(self, tmp_path):
        out = tmp_path / "surf.csv"
        assert run(["surface", "--grid", "32", "--out", str(out)]) == 0
        _, recs = read_csv(str(out))
        uniform = [r for r in recs
                   if abs(r["nu1"] - 1 / 3) < 1e-12
                   and abs(r["nu2"] - 1 / 3) < 1e-12]
        assert uniform and all(r["beta"] == 3.0 for r in uniform)

    def test_mesh_rotation_invariance(self, tmp_path):
        out = tmp_path / "surf.csv"
        run(["surface", "--grid", "48", "--out", str(out)])
        _, recs = read_csv(str(out))
        for sign in (1, -1):
            pts = np.array([(r["p"], r["q"], r["beta"]) for r in recs
                            if r["sign"] == sign])
            c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
            rotated = pts.copy()
            rotated[:, 0] = c * pts[:, 0] - s * pts[:, 1]
            rotated[:, 1] = s * pts[:, 0] + c * pts[:, 1]
            # every rotated sample coincides with some sample
            for row in rotated[:: max(1, len(rotated) // 60)]:
                d = np.abs(pts - row).max(axis=1).min()
                assert d <= 1e-8

    def test_minus_sheet_minimum_near_two(self, tmp_path):
        out = tmp_path / "surf.csv"
        run(["surface", "--grid", "96", "--beta-max", "100", "--out", str(out)])
        _, recs = read_csv(str(out))
        minus = [r["beta"] for r in recs if r["sign"] == -1]
        assert 2.0 - 1e-12 <= min(minus) <= 2.05
        beak = [r for r in recs if r["sign"] == -1
                and abs(r["beta"] - 8.0 / 3.0) < 1e-9]
        assert beak  # the beak-to-beak value is attained on the sheet

    def test_obj_mesh(self, tmp_path):
        out = tmp_path / "surf.obj"
        assert run(["surface", "--grid", "24", "--format", "obj",
                    "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        n_v = sum(1 for line in text if line.startswith("v "))
        n_f = sum(1 for line in text if line.startswith("f "))
        assert n_v > 100 and n_f > 100
        for line in text:
            if line.startswith("f "):
                assert all(1 <= int(tok) <= n_v for tok in line.split()[1:])


def surface_mesh_obj_loop(fh, grid, beta_max):
    """The mesh vertex by vertex: both sheets re-derived at each lattice
    point, faces looked up in a dict."""
    from potts_landscape.model import batch_catastrophe, batch_pq
    d = grid
    fh.write(f"# potts-landscape v1 surface mesh, grid {d}\n")
    offset = 0
    for sign in (+1, -1):
        index = {}
        vertices = []
        for i in range(1, d):
            for j in range(1, d - i):
                nu = np.array([i, j, d - i - j], dtype=float) / d
                inv = 1.0 / nu
                s1 = inv.sum()
                s2 = inv[0] * inv[1] + inv[0] * inv[2] + inv[1] * inv[2]
                disc = max(s1 * s1 / 9.0 - s2 / 3.0, 0.0)
                beta = s1 / 3.0 + sign * math.sqrt(disc)
                if not (0.0 < beta <= beta_max):
                    continue
                p, q = batch_pq(batch_catastrophe(beta, nu))
                index[(i, j)] = len(vertices) + 1
                vertices.append((float(p), float(q), float(beta)))
        fh.write(f"o sheet_{'plus' if sign > 0 else 'minus'}\n")
        for v in vertices:
            fh.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        for i in range(1, d):
            for j in range(1, d - i):
                up = ((i, j), (i + 1, j), (i, j + 1))
                down = ((i + 1, j), (i + 1, j + 1), (i, j + 1))
                for tri in (up, down):
                    if all(v in index for v in tri):
                        fh.write("f " + " ".join(
                            str(index[v] + offset) for v in tri) + "\n")
        offset += len(vertices)


@pytest.mark.parametrize("grid, beta_max", [
    (64, 4.0), (64, 6.0), (48, 3.0), (17, 4.0), (16, 100.0), (18, 2.5),
    (30, 3.0)])
def test_obj_mesh_matches_vertex_loop(tmp_path, grid, beta_max):
    out = tmp_path / "surf.obj"
    assert run(["surface", "--format", "obj", "--grid", str(grid),
                "--beta-max", repr(beta_max), "--out", str(out)]) == 0
    expected = io.StringIO()
    surface_mesh_obj_loop(expected, grid, beta_max)
    assert out.read_text() == expected.getvalue()


class TestCensusCommand:
    def test_four_phase_point(self, capsys):
        beta = repr(4.0 * math.log(2.0))
        assert run(["census", "--beta", beta, "--uv", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "local minima: 4" in out
        assert "global minimizers: 4" in out

    def test_records_roundtrip(self, tmp_path):
        out = tmp_path / "census.csv"
        assert run(["census", "--beta", "3.5", "--out", str(out)]) == 0
        kind, recs = read_csv(str(out))
        assert kind == "census"
        kinds = [r["kind"] for r in recs]
        assert kinds.count("minimum") == 3
        assert kinds.count("saddle") == 3
        assert kinds.count("maximum") == 1
        assert all(r["n_local_minima"] == 3 for r in recs)

    def test_alpha_flag(self, capsys):
        assert run(["census", "--beta", "2.2", "--alpha", "0.2,0.3,0.5"]) == 0
        assert "local minima" in capsys.readouterr().out

    def test_bad_alpha_exit_code(self):
        assert run(["census", "--beta", "2.0", "--alpha", "0.5,0.5,0.5"]) == 2

    def test_bad_beta_exit_code(self):
        assert run(["census", "--beta", "-3"]) == 2

    def test_malformed_alpha_is_domain_error(self, capsys):
        assert_domain_error(capsys, ["census", "--beta", "2.0",
                                     "--alpha", "a,b,c"])

    def test_numerical_failure_exit_code(self, monkeypatch):
        import potts_landscape.cli as cli

        def boom(args):
            raise pl.NumericalError("synthetic")

        monkeypatch.setattr(cli, "cmd_census", boom)
        parser_args = ["census", "--beta", "2.0"]
        args = cli.build_parser().parse_args(parser_args)
        monkeypatch.setattr(args, "func", boom, raising=False)
        # go through main to exercise the exit-code mapping
        monkeypatch.setattr(cli, "build_parser", lambda: _StubParser(args))
        assert cli.main(parser_args) == 3


def test_census_outside_interior_exit_code(capsys):
    assert run(["census", "--beta", "30"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert "smallest component" in lines[0] and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["census", "--beta", "1e200", "--alpha", "0.2,0.3,0.5"],
    ["potential", "--beta", "1e200", "--format", "svg"],
])
def test_huge_beta_fails_with_one_line(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert captured.out == ""


class _StubParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args


class TestMaxwellCommand:
    def test_sections_at_pentagram_beta(self, tmp_path):
        out = tmp_path / "maxwell.csv"
        assert run(["maxwell", "--beta", "2.6", "--segment-samples", "12",
                    "--out", str(out)]) == 0
        kind, recs = read_csv(str(out))
        assert kind == "maxwell_point"
        sections = {r["section"] for r in recs}
        assert {"segment", "triple", "curve", "curve_mirror"} <= sections
        triple = next(r for r in recs if r["section"] == "triple")
        assert triple["n_minimizers"] == 3
        assert triple["x"] == pytest.approx(0.0, abs=1e-12)
        # mirror curve is the component swap of the curve
        curve = [r for r in recs if r["section"] == "curve"]
        mirror = [r for r in recs if r["section"] == "curve_mirror"]
        assert len(curve) == len(mirror)
        for a, b in zip(curve, mirror):
            assert a["alpha1"] == b["alpha2"] and a["alpha2"] == b["alpha1"]

    @pytest.mark.parametrize("beta", ["2.7605", "2.77"])
    def test_next_to_four_phase_temperature(self, tmp_path, beta):
        out = tmp_path / "maxwell.csv"
        assert run(["maxwell", "--beta", beta, "--out", str(out)]) == 0
        _, recs = read_csv(str(out))
        sections = {r["section"] for r in recs}
        assert {"segment", "triple", "curve", "curve_mirror"} <= sections
        for rec in recs:
            for value in rec.values():
                if isinstance(value, float):
                    assert math.isfinite(value), rec

    def test_beyond_four_phase_sections(self, tmp_path):
        out = tmp_path / "maxwell.csv"
        assert run(["maxwell", "--beta", "3.0", "--segment-samples", "8",
                    "--out", str(out)]) == 0
        _, recs = read_csv(str(out))
        sections = {r["section"] for r in recs}
        assert "segment" in sections and "uniform" in sections
        uniform = next(r for r in recs if r["section"] == "uniform")
        assert uniform["n_minimizers"] == 3

    def test_empty_below_two(self, tmp_path):
        out = tmp_path / "maxwell.csv"
        assert run(["maxwell", "--beta", "1.5", "--out", str(out)]) == 0
        _, recs = read_csv(str(out))
        assert recs == []

    def test_csv_reload_bit_for_bit(self, tmp_path):
        out = tmp_path / "maxwell.csv"
        run(["maxwell", "--beta", "2.4", "--segment-samples", "6",
             "--out", str(out)])
        _, recs = read_csv(str(out))
        pts = track_segment_pair(pl.symmetric_segment(2.4), n=6)
        assert len(recs) == len(pts)
        for rec, pt in zip(recs, pts):
            assert rec["alpha1"] == pt.alpha.a1   # exact float equality
            assert rec["depth"] == pt.depth
            assert rec["m1_nu1"] == pt.minimizers[0].v1

    def test_svg_has_dashed_maxwell(self, tmp_path):
        out = tmp_path / "maxwell.svg"
        assert run(["maxwell", "--beta", "2.6", "--format", "svg",
                    "--segment-samples", "12", "--extent", "1.0",
                    "--out", str(out)]) == 0
        doc = out.read_text()
        assert "stroke-dasharray" in doc
        solid = re.findall(r'<polyline[^>]*stroke="#1a1a1a"(?![^>]*dasharray)',
                           doc)
        assert solid  # bifurcation curves stay solid


class TestPotentialCommand:
    def test_grid_export(self, tmp_path):
        out = tmp_path / "pot.csv"
        assert run(["potential", "--beta", "2.6", "--grid", "48",
                    "--out", str(out)]) == 0
        kind, recs = read_csv(str(out))
        assert kind == "potential_grid"
        nu = np.array([[r["nu1"], r["nu2"], r["nu3"]] for r in recs])
        assert nu.min() > 0.0
        f = np.array([r["f"] for r in recs])
        assert np.isfinite(f).all()

    def test_triple_point_basins_equal(self, tmp_path):
        # feed the triple point back in: the three lowest basins of the
        # exported grid refine to equal depths
        tp = pl.triple_point(2.6)
        alpha = tp.alpha
        out = tmp_path / "pot.csv"
        assert run(["potential", "--beta", "2.6", "--grid", "96",
                    "--alpha", f"{alpha.a1!r},{alpha.a2!r},{alpha.a3!r}",
                    "--out", str(out)]) == 0
        _, recs = read_csv(str(out))
        xs = sorted({r["x"] for r in recs})
        ys = sorted({r["y"] for r in recs})
        ix = {v: i for i, v in enumerate(xs)}
        iy = {v: i for i, v in enumerate(ys)}
        grid = np.full((len(xs), len(ys)), np.inf)
        coords = {}
        for r in recs:
            grid[ix[r["x"]], iy[r["y"]]] = r["f"]
            coords[(ix[r["x"]], iy[r["y"]])] = (r["nu1"], r["nu2"], r["nu3"])
        # local minima on the grid graph
        seeds = []
        for (i, j), nu in coords.items():
            val = grid[i, j]
            neigh = grid[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
            if val <= neigh.min():
                seeds.append((val, nu))
        seeds.sort()
        refined = []   # (position, value), deduplicated by position
        for _, nu in seeds[:8]:
            pts = newton_stationary(2.6, alpha.array, np.array([nu]))
            if not len(pts):
                continue
            point = pts[0]
            if any(np.abs(point - q).max() < 1e-5 for q, _ in refined):
                continue
            refined.append((point, float(pl.free_energy(
                pl.ModelParams(2.6, alpha),
                pl.SpinDistribution.from_array(point)))))
        values = sorted(v for _, v in refined)
        assert len(values) >= 3
        assert values[2] - values[0] <= 1e-8

    def test_grid_records_match_cell_loop(self, tmp_path):
        out = tmp_path / "pot.csv"
        assert run(["potential", "--beta", "2.6", "--alpha",
                    "0.345,0.345,0.31", "--grid", "40",
                    "--out", str(out)]) == 0
        xs, ys, nu, values = cli._potential_grid(
            2.6, pl.AprioriMeasure(0.345, 0.345, 0.31), 40)
        records = []
        for i in range(len(xs)):
            for j in range(len(ys)):
                if not np.isfinite(values[i, j]):
                    continue
                records.append({
                    "beta": 2.6, "x": float(xs[i]), "y": float(ys[j]),
                    "nu1": float(nu[i, j, 0]), "nu2": float(nu[i, j, 1]),
                    "nu3": float(nu[i, j, 2]), "f": float(values[i, j]),
                })
        expected = io.StringIO()
        write_csv(expected, "potential_grid", records)
        assert out.read_text() == expected.getvalue()

    def test_svg_contours(self, tmp_path):
        out = tmp_path / "pot.svg"
        assert run(["potential", "--beta", "2.6", "--grid", "64",
                    "--format", "svg", "--out", str(out)]) == 0
        assert "<polyline" in out.read_text()
