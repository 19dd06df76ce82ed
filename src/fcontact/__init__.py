"""fcontact: a numerical verification lab for metric f-contact geometry.

Builds explicit (2n+s)-dimensional metric f-manifolds on coordinate charts,
computes their Levi-Civita connection and curvature through an exact
second-order jet algebra, and verifies or fits the identities of the
(kappa, mu)-nullity theory: structure axioms, h-operator spectra,
f-sectional curvature constancy, curvature models, and D-homothetic
deformation laws.
"""

from .catalog import (
    CatalogEntry,
    ExpectedFit,
    build_flat_contact_r3,
    build_s_space_form,
    catalog_get,
    catalog_list,
)
from .deform import (
    d_deform,
    predict_deformed_nullity,
)
from .errors import (
    DegenerateMetricError,
    EmptyPointSetError,
    FContactError,
    InsufficientSampleError,
    InvalidSectionError,
    NotApplicableError,
    SingularJetError,
    UnknownManifoldError,
)
from .geom import (
    CurvatureData,
    ManifoldModel,
    PointFrame,
    riemann,
    sample_points,
)
from .nullity import (
    GssfFit,
    NullityFit,
    SpaceFormReport,
    SpectrumReport,
    TransSFit,
    check_curvature_model,
    check_rf_identity,
    check_ricci_model,
    check_splitting_lemma,
    f_sectional,
    fit_gssf,
    fit_nullity,
    fit_trans_s,
    h_spectrum,
    sample_H_constancy,
    spectrum_residuals,
    verify_r_xi,
)
from .report import CheckRecord, CheckReport, REPORT_SCHEMA, emit_report
from .structure import (
    AxiomReport,
    StructureTensors,
    check_contact,
    check_f_axioms,
    check_normality,
    killing_check,
    structure_at,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CatalogEntry",
    "CheckRecord",
    "CheckReport",
    "CurvatureData",
    "DegenerateMetricError",
    "EmptyPointSetError",
    "ExpectedFit",
    "FContactError",
    "GssfFit",
    "InsufficientSampleError",
    "InvalidSectionError",
    "ManifoldModel",
    "NotApplicableError",
    "NullityFit",
    "PointFrame",
    "REPORT_SCHEMA",
    "SingularJetError",
    "SpaceFormReport",
    "SpectrumReport",
    "StructureTensors",
    "TransSFit",
    "UnknownManifoldError",
    "build_flat_contact_r3",
    "build_s_space_form",
    "catalog_get",
    "catalog_list",
    "check_contact",
    "check_curvature_model",
    "check_f_axioms",
    "check_normality",
    "check_rf_identity",
    "check_ricci_model",
    "check_splitting_lemma",
    "d_deform",
    "emit_report",
    "f_sectional",
    "fit_gssf",
    "fit_nullity",
    "fit_trans_s",
    "h_spectrum",
    "killing_check",
    "predict_deformed_nullity",
    "riemann",
    "sample_H_constancy",
    "sample_points",
    "spectrum_residuals",
    "structure_at",
    "verify_r_xi",
]
