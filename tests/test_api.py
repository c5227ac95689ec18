"""The public API: the names ``import warpcode`` exports."""

import types

import warpcode

PUBLIC_NAMES = [
    "DetectorBank",
    "DetectorResponse",
    "GatedModel",
    "ImagePatch",
    "LabeledImageSet",
    "PairDataset",
    "QuadratureReport",
    "SubspaceBlock",
    "SubspaceDecomposition",
    "TrainConfig",
    "TrainingTrace",
    "VideoDataset",
    "WarpLabel",
    "WarpMatrix",
    "apply_warp",
    "build_bank_from_warp_family",
    "commutation_residual",
    "contrast_normalize",
    "decompose",
    "decompose_approx",
    "eigenmovie_consistency",
    "energy_detector_response",
    "energy_forward",
    "export_filter_grid",
    "gen_dot_pairs",
    "gen_rotated_glyphs",
    "gen_videos",
    "image_codes",
    "infer_mappings",
    "infer_sequence",
    "invariance_ratio",
    "load_idx",
    "load_matrix",
    "load_model",
    "loss_and_gradient",
    "make_cyclic_shift",
    "make_rotation_warp",
    "make_translation_warp",
    "pooled_code",
    "project",
    "quadrature_pair_score",
    "reconstruct",
    "rotate_image",
    "rotation_detector_response",
    "save_matrix",
    "save_model",
    "score_filter_bank_pairs",
    "sequence_detector_response",
    "shared_subspace_alignment",
    "spectral_overlap",
    "subspace_angle_cos",
    "train",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on
    # what else has been imported
    exported = sorted(
        name
        for name in dir(warpcode)
        if not name.startswith("_")
        and not isinstance(getattr(warpcode, name), types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
