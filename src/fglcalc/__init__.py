"""Exact symbolic calculus of formal group laws.

Layers, bottom up: graded coefficient rings (ring), truncated series and
the group law operations (series), nilpotent chern symbols (chern), divisor
classes over s.n.c. combinatorics (snc), decorated cycle groups and their
relation generators (cycles), and a JSON command line interface (cli).
"""

from .chern import ChernPolynomial, evaluate_at_chern
from .cycles import (
    BlowupStep,
    CycleSum,
    DecoratedCycle,
    DimWitness,
    DoublePointDatum,
    LabelMorphism,
    SectWitness,
    SpaceLabel,
    TensorWitness,
    blowup_relation,
    blowup_tower_relations,
    double_point_relation,
    exterior_product,
    pushforward,
    relation_generator,
    sum_relations,
    telescope_sum,
)
from .errors import (
    BackendMismatchError,
    ConfigurationError,
    ConstantTermError,
    CycleError,
    DimensionMismatchError,
    OrderError,
    ValidationError,
    WitnessError,
)
from .ring import (
    ADDITIVE,
    ANY_DEGREE,
    FREE,
    INHOMOGENEOUS,
    MULTIPLICATIVE,
    CoefficientBackend,
    GradedPolynomial,
    Generator,
    a_gen,
    b_gen,
    generator_from_name,
    lazard_coefficient,
    log_backend,
    m_gen,
)
from .series import (
    FormalGroupLaw,
    TruncatedSeries,
    support_decompose,
)
from .snc import (
    FaceClassVector,
    SncComponent,
    SncConfiguration,
    apply_divisor_operator,
    check_properties,
    class_dimension,
    divisor_class,
    lift_restricted_class,
    normal_form,
    product_class,
    restrict_to_component,
    restricted_component_indices,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
