"""Mean curvature flow toolkit for codimension-two surfaces in R^4."""

from .curvature import (
    CurvatureScalars,
    ShapeTensor,
    SpecialFrameState,
    f_sigma,
    frame_dump,
    lift,
    pinch_q,
    scalars,
    simons_z_closed,
    simons_z_tensor,
    tensor_scalars,
    to_special_frame,
    z_lower_bound_ratio,
)
from .gradients import (
    GradientState,
    check_gradient_inequalities,
    decompose_ef,
    grad_kperp_bound,
    nabla_evol_kperp,
    norm_grad_a2,
    norm_grad_h2,
)
from .certifier import (
    CertificateReport,
    ConeSample,
    certify_negativity,
    epsilon_z_scan,
    gamma_for_k,
    reaction_at_zero_q,
    threshold_scan,
)

__all__ = [
    "CurvatureScalars", "ShapeTensor", "SpecialFrameState",
    "f_sigma", "frame_dump", "lift", "pinch_q", "scalars",
    "simons_z_closed", "simons_z_tensor", "tensor_scalars",
    "to_special_frame", "z_lower_bound_ratio",
    "GradientState", "check_gradient_inequalities", "decompose_ef",
    "grad_kperp_bound", "nabla_evol_kperp", "norm_grad_a2", "norm_grad_h2",
    "CertificateReport", "ConeSample", "certify_negativity", "epsilon_z_scan",
    "gamma_for_k", "reaction_at_zero_q", "threshold_scan",
]
