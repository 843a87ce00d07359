"""Shift matching for grayscale images via simulated forces between edge currents.

Pipeline: rasterize or load images, estimate Sobel gradients, keep the
significant edge points, rotate their gradients into a virtual current,
then let the magnetic-style attraction between two such currents pull one
image onto the other.  Force maps over all integer shifts, per-cell
convergence classification, and a force-guided matcher build on that core.
"""

from .raster import (GrayImage, PnmFormatError, load_pgm, save_pgm, save_ppm,
                     shift_image, synth_shape)
from .edgecurrent import (SOBEL_X, SOBEL_Y, CurrentElement, EdgeCurrent, EdgeMask,
                          EdgeParams, EmptyCurrentError, VectorField, build_current,
                          current_tsv, extract_current, mask_image, nms_mask,
                          sobel_field, threshold_mask)
from .emforce import (ForceMap, ForceParams, Vec2, Vec3, bz_at, force_map,
                      force_map_fast, force_map_tsv, force_on_element, pair_force,
                      total_force)
from .matchmap import (ClassificationMap, Direction8, Label, MatchResult,
                       MatchStatus, PathStatus, PathTrace, classification_rgb,
                       classify_map, discretize8, follow_path, match_images,
                       match_result_json, summarize_map)

__version__ = "0.1.0"

__all__ = [
    "GrayImage", "PnmFormatError", "load_pgm", "save_pgm", "save_ppm",
    "shift_image", "synth_shape",
    "SOBEL_X", "SOBEL_Y", "VectorField", "sobel_field",
    "CurrentElement", "EdgeCurrent", "EdgeMask", "EdgeParams",
    "EmptyCurrentError", "build_current", "current_tsv", "extract_current",
    "mask_image", "nms_mask", "threshold_mask",
    "ForceMap", "ForceParams", "Vec2", "Vec3", "bz_at", "force_map",
    "force_map_fast", "force_map_tsv", "force_on_element", "pair_force",
    "total_force",
    "ClassificationMap", "Direction8", "Label", "MatchResult", "MatchStatus",
    "PathStatus", "PathTrace", "classification_rgb", "classify_map",
    "discretize8", "follow_path", "match_images", "match_result_json",
    "summarize_map",
    "__version__",
]
