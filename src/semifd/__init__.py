"""Exact finite-dimensional matrix models of semigroup operator algebras and
circle-symmetric multiplier algebras.

Every name is exported lazily (PEP 562): its module is imported on first access,
so importing the package, or its table layer, leaves numpy unloaded."""

import importlib

_MODULES = {
    "coaction": "AlgebraElement apply_character character_reconstruction delta_apply fell_intertwiner qf_spanning_set "
    "spectral_decompose",
    "enumeration": "ControlledMap EnumerationTable MonoidElement abelianization enumerate_monoid length_map",
    "errors": "BasisMismatchError CancellativityError ControlledMapError DegreeOverflowError IncompleteFiberError "
    "InputError InvariantError KernelSpecError LengthBoundError PresentationError ResourceLimitError SemifdError",
    "fdapprox": "DivisorSubspace build_Y kernel_set stabilization_index",
    "funcalg": "KernelSpec Polynomial circle_action circle_action_matrix dirichlet drury_arveson fock_basis hardy "
    "homogeneous_decompose monomial_norm mult_operator multiplier_norm_lower n_coaction",
    "linrep": "Basis SparseOperator graded_basis identity_operator inclusion lambda_adjoint_op lambda_op operator_norm "
    "tensor_basis zero_operator",
    "presentations": "MonoidPresentation braid builtin free nat parse_presentation raag",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name, or one of the modules above, imported on first access and then bound here."""
    if name not in _EXPORTS and name not in _MODULES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _EXPORTS.get(name, name), __name__)
    globals()[name] = value = getattr(module, name) if name in _EXPORTS else module
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})
