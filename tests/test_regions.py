"""Cell labelling checked against an independent frontier flood fill."""

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape.model import batch_pq
from potts_landscape.regions import (_components, label_regions,
                                     rasterize_curves)

SLICES = [(2.3, 6.0, 400), (2.75, 0.02, 6000), (2.9, 6.0, 400),
          (3.2, 6.0, 400)]


def flood_components(free):
    """4-connected labels of the free pixels by growing one component at a
    time from its first free pixel in raster order."""
    labels = np.zeros(free.shape, dtype=np.int32)
    current = 0
    todo = free.copy()
    while True:
        seeds = np.argwhere(todo)
        if len(seeds) == 0:
            return labels
        current += 1
        frontier = np.zeros_like(free)
        frontier[seeds[0, 0], seeds[0, 1]] = True
        component = np.zeros_like(free)
        while frontier.any():
            component |= frontier
            grown = np.zeros_like(free)
            grown[1:, :] |= frontier[:-1, :]
            grown[:-1, :] |= frontier[1:, :]
            grown[:, 1:] |= frontier[:, :-1]
            grown[:, :-1] |= frontier[:, 1:]
            frontier = grown & todo & ~component
        labels[component] = current
        todo &= ~component


def slice_window(beta, extent, samples):
    curves = pl.slice_curves(beta, samples)
    return ([batch_pq(c.alpha) for c in curves],
            (-extent, extent, -extent, extent))


@pytest.mark.parametrize("density", [0.0, 0.2, 0.45, 0.55, 0.6, 0.8, 1.0])
def test_random_masks_match_flood_fill(rng, density):
    for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (5, 5), (17, 23),
                  (64, 64)):
        for _ in range(3):
            free = rng.random(shape) < density
            np.testing.assert_array_equal(_components(free),
                                          flood_components(free))


@pytest.mark.parametrize("beta, extent, samples", SLICES)
def test_rasterized_slices_match_flood_fill(beta, extent, samples):
    polylines, window = slice_window(beta, extent, samples)
    free = ~rasterize_curves(polylines, window, 512)
    labels = _components(free)
    np.testing.assert_array_equal(labels, flood_components(free))
    assert labels.max() >= 7


@pytest.mark.parametrize("beta, extent, samples", SLICES[:2])
def test_region_fields_match_per_component_masks(beta, extent, samples):
    polylines, window = slice_window(beta, extent, samples)
    labels = flood_components(~rasterize_curves(polylines, window, 256))
    regions = label_regions(polylines, window, 256)
    assert [r.label for r in regions] == list(range(1, labels.max() + 1))
    xmin, _, ymin, _ = window
    h = 2.0 * extent / 255
    for region in regions:
        mask = labels == region.label
        pix = np.argwhere(mask)
        cx, cy = pix.mean(axis=0)
        assert region.n_pixels == len(pix)
        assert region.centroid == (xmin + cx * h, ymin + cy * h)
        i, j = (round((v - lo) / h) for v, lo in zip(region.probe,
                                                       (xmin, ymin)))
        assert mask[i, j]
        core = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                & mask[1:-1, :-2] & mask[1:-1, 2:])
        assert region.resolved == bool(core.any())
        border = (mask[0].any() or mask[-1].any() or mask[:, 0].any()
                  or mask[:, -1].any())
        assert region.touches_border == bool(border)
