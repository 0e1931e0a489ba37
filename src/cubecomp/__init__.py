"""Exact composition laws on 2x2x2 cubes and the form spaces derived from
them, over the oriented quadratic ring S(D).

The package is organized bottom-up: exact arithmetic substrate (exact),
the quadratic ring and oriented ideals (qring), binary quadratic forms and
Gauss composition (bqf), cubes and their balanced-triple dictionary (cubes),
binary cubics and pairs of forms (symspaces), alternating 2-form pairs and
senary 3-forms (altforms), plus JSON serialization (wire) and a command-line
front end (cli).
"""

from .exact import (
    BINARY_POINTS,
    InputError,
    InternalError,
    UnsupportedDomainError,
    VerifyResult,
    lagrange_gauss_reduce,
    verify_at_points,
)
from .qring import (
    KElem,
    OrientedIdeal,
    QuadraticRing,
    principal_generator,
)
from .bqf import (
    BQF,
    ClassGroupTable,
    GaussBilinearData,
    bqf_to_ideal,
    compose_dirichlet,
    enumerate_class_group,
    ideal_class_equal,
    ideal_to_bqf,
    principal_form,
    reduce,
    sl2_act,
    verify_gauss_identity,
)
from .cubes import (
    BalancedTriple,
    Cube,
    DualWitness,
    assoc_form,
    assoc_forms,
    companion_cube,
    cube_class_compose,
    cube_disc,
    cube_to_triple,
    cube_variants,
    dual_cubes_solve,
    gamma_act,
    identity_cube,
    is_projective,
    lemmermeyer_identity,
    slices,
    triple_to_cube,
    verify_cube_composition,
)
from .symspaces import (
    BinaryCubic,
    PairBQF,
    cubic_class_compose,
    cubic_companion,
    cubic_disc,
    cubic_embed,
    cubic_identity,
    cubic_q,
    cubicovariant,
    pair_class_compose,
    pair_companion,
    pair_disc,
    pair_embed,
    pair_identity,
    syzygy_check,
    verify_cubic_composition,
    verify_pair_composition,
)
from .altforms import (
    QuatAltPair,
    SenaryAlt3,
    pair_pfaffian_form,
    pfaffian,
    phi,
    senary_eval,
    senary_identity_pair,
    verify_quaternary_composition,
    verify_senary_identity,
    wedge222,
)
from .wire import (
    Envelope,
    dumps_envelope,
    encode_envelope,
    encode_object,
    parse_envelope,
    parse_object,
)

__version__ = "0.1.0"
