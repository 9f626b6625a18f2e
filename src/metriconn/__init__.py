"""Local metrizability of connections in rank-2 bundles over surface charts.

The package decides whether a connection, given by its matrix of 1-forms
over a rectangular chart, admits a parallel bundle metric near every point;
when it does, the compatible metric is recovered in closed form.  Companion
tools cover the parallel-volume-form criterion, Euler-form integrals for
comparing metric-equivalent connections, and tangent-bundle constructors
(Levi-Civita, semi-symmetric) for worked examples.
"""

from .expr import (
    DomainError,
    Expr,
    ParseError,
    parse,
    to_source,
)
from .forms import (
    Chart,
    OneForm,
    TwoForm,
    d0,
    d1,
    integrate2,
    line_integral,
    wedge11,
)
from .connection import (
    ChartMismatch,
    ConnectionMatrix,
    CurvatureMatrix,
    FrameChange,
    MetricField,
    NotFlat,
    ParallelFrame,
    SingularFrame,
    compatibility_residual,
    curvature,
    gauge_transform,
    interpolate,
    parallel_frame_flat,
)
from .metrizability import (
    DegenerateVolume,
    EigenPreconditionFailed,
    MetrizabilityReport,
    NotSPD,
    Verdict,
    check_metrizability,
    factor_curvature,
    recover_metric,
    skew_symmetrizer,
    spd_sqrt,
)
from .volume_euler import NotCompatible, compare_euler, euler_form, volume_criterion
from .gallery import (
    RiemannianMetric2D,
    TorsionField,
    levi_civita,
    semi_symmetric,
    torsion,
    torus_example,
)

__version__ = "0.1.0"
