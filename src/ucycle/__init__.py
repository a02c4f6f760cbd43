"""Universal cycles for affine lines over finite fields.

Builds cyclic vertex sequences in the projective closure of AG(n,q) whose
consecutive windows decode every affine line exactly once, extends them to
nested universal cycles on Grassmannians of planes, and verifies every
output for exact cover against a closed-form enumeration of its targets.
"""

from .gf import (
    Field,
    FieldElement,
    field_from_order,
    field_make,
    multiplicative_order,
    primitive_element,
)
from .geometry import (
    AffineLine,
    DegenerateWindowError,
    Direction,
    Hyperplane,
    ProjVertex,
    Subspace,
    affine,
    complementary_hyperplane,
    decode_window,
    enumerate_directions,
    fiber,
    find_coplanar_triplet,
    hyperplane_points,
    infinity,
    line_from,
    line_through,
    pgl_normalizer,
)
from .cycles import (
    Cycle,
    GluingError,
    Segment,
    glue_cycles,
    glue_segments,
    map_linear,
    rotate,
    translate,
)
from .constructions import (
    FiberPlan,
    kernel_cycle,
    lift_cycle,
    plan_fibers,
    triple_base_cycle,
    triple_fiber_cycle,
    two_fiber_cycle,
    universal_cycle,
)
from .grassmann import (
    GrassCycle,
    Subspace2,
    embed_cycle,
    lift_affine_cycle,
    nested_cycles,
    singer_cycle,
    span2,
    tau,
)
from .verify import (
    CoverageReport,
    all_2subspaces,
    all_affine_lines,
    gaussian_binomial_2,
    verify_affine,
    verify_grassmann,
    verify_nesting,
    verify_subset,
)

__version__ = "0.1.0"
