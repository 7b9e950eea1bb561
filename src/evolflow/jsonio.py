"""JSON wire formats shared by the library and the CLI.

Matrix:   {"n": 2, "real": [[...], [...]], "imag": [[...], [...]]}
          ("imag" may be omitted when zero)
Element:  {"coords_real": [...], "coords_imag": [...]}   (imag optional)
Scalar function (curve catalog):
          {"kind": "poly", "coeffs": [c0, c1, ...]}
          {"kind": "sin"|"cos"|"exp"|"cosh"|"sinh", "scale": s, "shift": c}
Matrix function (time-dependent generator):
          {"terms": [{"fun": <scalar function>, "matrix": <matrix>}, ...]}
Curve:    tagged union on "variant", one row per variant in `CURVE_VARIANTS`.

Decoding any of these raises ValueError on a key its format (or its kind
or variant) does not define, and on a wrongly typed value: every number
must be a JSON number (not a string or a boolean; an int stands for a
float), "n" and "i" must be integral, "coeffs", "terms", coordinates and
matrix rows must be lists, and every format above must be an object.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

import numpy as np

from . import curves
from .errors import DimensionMismatch
from .matcore import as_matrix, as_vector


def matrix_to_json(M, name: str = "matrix") -> dict:
    return matrix_layout(as_matrix(M, name))


def matrix_layout(M) -> dict:
    # the matrix format of a square float64 or complex128 array, unvalidated:
    # a non-finite entry stays in (a report's sample reads "nan" or "inf")
    out = {"n": int(M.shape[0]), "real": M.real.tolist()}
    if np.iscomplexobj(M) and np.any(M.imag != 0.0):
        out["imag"] = M.imag.tolist()
    return out


# The typed check every decoder shares: a value of any other type raises
# ValueError naming the field.


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} JSON must be an object, not {type(x).__name__}")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, not {type(x).__name__}")
    return x


def _is_number(x) -> bool:
    # a JSON number: bool is an int subclass, and neither it nor a string counts
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, what: str) -> float:
    if not _is_number(x):
        raise ValueError(f"{what} must be a JSON number, not {type(x).__name__}")
    return float(x)


def _integer(x, what: str) -> int:
    if not _number(x, what).is_integer():
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _numbers(x, what: str) -> list:
    # a list of JSON numbers, as given
    if not all(map(_is_number, _list(x, what))):
        raise ValueError(f"{what} must hold JSON numbers only")
    return x


def _rows(x, what: str) -> np.ndarray:
    # a list of lists of JSON numbers, as a float64 array
    return np.asarray([_numbers(row, f"each row of {what}") for row in _list(x, what)],
                      dtype=np.float64)


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        n = _integer(obj["n"], "matrix n")
        real = _rows(obj["real"], "matrix real part")
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"bad matrix JSON: {exc}") from exc
    _reject_unknown_keys(obj, ("n", "real", "imag"), "matrix")
    if real.shape != (n, n):
        raise DimensionMismatch(f"matrix JSON says n={n} but real part has shape {real.shape}")
    if "imag" in obj and obj["imag"] is not None:
        imag = _rows(obj["imag"], "matrix imag part")
        if imag.shape != (n, n):
            raise DimensionMismatch(f"matrix JSON imag part has shape {imag.shape}, expected {(n, n)}")
        if np.any(imag != 0.0):
            return as_matrix(real + 1j * imag)
    return as_matrix(real)


def element_to_json(x) -> dict:
    x = as_vector(x)
    out = {"coords_real": x.real.tolist()}
    if np.iscomplexobj(x) and np.any(x.imag != 0.0):
        out["coords_imag"] = x.imag.tolist()
    return out


def element_from_json(obj: dict) -> np.ndarray:
    real = np.asarray(_numbers(_object(obj, "element")["coords_real"], "coords_real"),
                      dtype=np.float64)
    _reject_unknown_keys(obj, ("coords_real", "coords_imag"), "element")
    if "coords_imag" in obj and obj["coords_imag"] is not None:
        imag = np.asarray(_numbers(obj["coords_imag"], "coords_imag"), dtype=np.float64)
        if imag.shape != real.shape:
            raise DimensionMismatch("coords_imag length differs from coords_real")
        if np.any(imag != 0.0):
            return as_vector(real + 1j * imag)
    return as_vector(real)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(M), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scalar_function_to_json(f) -> dict:
    f = curves.as_scalar_function(f)
    if isinstance(f, curves.Poly):
        return {"kind": "poly", "coeffs": list(f.coeffs)}
    return {"kind": f.kind, "scale": f.scale, "shift": f.shift}


def _reject_unknown_keys(obj: dict, known, what: str) -> None:
    # a misspelt parameter must not fall back to its default silently
    stray = sorted(str(k) for k in obj if k not in known)
    if stray:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, stray))} in {what} JSON")


def scalar_function_from_json(obj: dict):
    kind = _object(obj, "scalar function")["kind"]
    if kind == "poly":
        _reject_unknown_keys(obj, ("kind", "coeffs"), "poly scalar function")
        return curves.Poly(tuple(_numbers(obj["coeffs"], "poly coeffs")))
    if kind in curves.AFFINE_ARG_KINDS:
        _reject_unknown_keys(obj, ("kind", "scale", "shift"), f"{kind} scalar function")
        return curves.AffineArg(kind, _number(obj.get("scale", 1.0), f"{kind} scale"),
                                _number(obj.get("shift", 0.0), f"{kind} shift"))
    raise ValueError(f"unknown scalar function kind {kind!r}")


def matrix_function_to_json(mf: "curves.MatrixFunction") -> dict:
    return {
        "terms": [
            {"fun": scalar_function_to_json(f), "matrix": matrix_to_json(M)}
            for f, M in mf.terms
        ]
    }


def matrix_function_from_json(obj: dict) -> "curves.MatrixFunction":
    _reject_unknown_keys(_object(obj, "matrix function"), ("terms",), "matrix function")
    terms = []
    for term in _list(obj["terms"], "matrix function terms"):
        _reject_unknown_keys(_object(term, "matrix function term"), ("fun", "matrix"),
                             "matrix function term")
        terms.append((scalar_function_from_json(term["fun"]), matrix_from_json(term["matrix"])))
    return curves.MatrixFunction(terms)


def load_matrix_function(path) -> "curves.MatrixFunction":
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_function_from_json(json.load(fh))


def _generator_to_json(g) -> dict:
    if not isinstance(g, curves.MatrixFunction):
        raise ValueError("numeric curve built from a bare callable cannot be serialized")
    return matrix_function_to_json(g)


class _Field(NamedTuple):
    """How one JSON key of a curve maps to the curve's constructor field."""

    encode: Callable
    decode: Callable
    optional: bool = False  # an absent optional key leaves the constructor's default
    attr: str | None = None  # the field name when it differs from the key


_MAT = _Field(matrix_to_json, matrix_from_json)
_FUN = _Field(scalar_function_to_json, scalar_function_from_json)

# variant tag -> (curve class, JSON key -> field codec), in wire-format key order
CURVE_VARIANTS = {
    "constant": (curves.Constant, {"A": _MAT}),
    "affine_line": (curves.AffineLine, {"A": _MAT}),
    "exp_line": (curves.ExpLine, {"A0": _MAT, "X": _MAT}),
    "tangent_induced": (curves.TangentInduced, {"B": _MAT, "V": _MAT}),
    "so2": (curves.So2, {}),
    "lorentz11": (curves.Lorentz11, {"i": _Field(int, lambda x: _integer(x, "lorentz11 i"), optional=True)}),
    "heisenberg": (curves.Heisenberg, {"alpha": _FUN, "beta": _FUN, "delta": _FUN}),
    "heisenberg_exp": (curves.HeisenbergExp, {"a": _FUN, "b": _FUN, "c": _FUN}),
    "sl2_iwasawa": (curves.Sl2Iwasawa, {"alpha": _FUN, "beta": _FUN, "delta": _FUN}),
    "flip_flop": (curves.FlipFlop, {
        "lambda": _Field(float, lambda x: _number(x, "flip_flop lambda"), attr="lam"),
    }),
    "numeric": (curves.Numeric, {
        "A0": _MAT,
        "generator": _Field(_generator_to_json, matrix_function_from_json),
        "h": _Field(float, lambda x: _number(x, "numeric h"), optional=True),
        "horizon": _Field(float, lambda x: _number(x, "numeric horizon"), optional=True),
    }),
}
_VARIANT_OF = {cls: variant for variant, (cls, _) in CURVE_VARIANTS.items()}


def curve_to_json(c) -> dict:
    # the most derived catalog class wins: a TangentInduced is also an ExpLine
    variant = next((_VARIANT_OF[k] for k in type(c).__mro__ if k in _VARIANT_OF), None)
    if variant is None:
        raise TypeError(f"not a curve: {c!r}")
    out = {"variant": variant}
    for key, f in CURVE_VARIANTS[variant][1].items():
        out[key] = f.encode(getattr(c, f.attr or key))
    return out


def curve_from_json(obj: dict):
    variant = _object(obj, "curve").get("variant")
    if not isinstance(variant, str) or variant not in CURVE_VARIANTS:
        raise ValueError(f"unknown curve variant {variant!r}")
    cls, codecs = CURVE_VARIANTS[variant]
    _reject_unknown_keys(obj, ("variant", *codecs), f"{variant} curve")
    kwargs = {f.attr or key: f.decode(obj[key]) for key, f in codecs.items() if key in obj or not f.optional}
    return cls(**kwargs)


def load_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_json(json.load(fh))
