"""JSON/CSV wire formats.

An n x n matrix is written packed: one JSON string, the standard base64
(RFC 4648, padded) of its n^2 entries as little-endian complex128 in
row-major order, so reading it costs its bytes, not a decimal parse per
entry.  The reader also takes the nested form, n rows of n [re, im]
pairs, which hand-written and older files use; the JSON type of the
matrix slot tells the two apart.  Density states serialize as
{"dim": n, "rho": matrix}; generator specifications as
{"dim": n, "sigma": matrix, "jumps": [{"V": matrix, "omega": w}, ...]},
read back through the :class:`~qmsflow.generators.GeneratorSpec`
constructor, which admits the jumps.  A declared "dim" must be a JSON
integer, the matrices' dimension.
Trajectory CSV columns: t, entropy, production, exp_bound,
production_bound.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
from itertools import chain

import numpy as np

from .states import DensityState
from .generators import GeneratorSpec, RateMatrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "matrix_json_dim",
    "density_to_json",
    "density_from_json",
    "spec_to_json",
    "spec_from_json",
    "rate_matrix_to_json",
    "trajectory_to_csv",
    "dump_json",
    "write_text_atomic",
]


def matrix_to_json(a: np.ndarray) -> str:
    """The packed form of the square matrix ``a``: base64 of its entries as
    little-endian complex128, row-major."""
    return base64.b64encode(np.asarray(a, dtype="<c16").tobytes()).decode("ascii")


def matrix_json_dim(obj) -> int | None:
    """The row count of the matrix JSON ``obj``, read without converting its
    entries: a nested list's length, or n of a packed string's 16 n^2 bytes,
    known from its length (ValueError if it holds no such n); None for
    anything else."""
    if isinstance(obj, list):
        return len(obj)
    if not isinstance(obj, str):
        return None
    if len(obj) % 4:
        raise ValueError(f"packed matrix is not base64: length {len(obj)} is not a multiple of 4")
    size = len(obj) // 4 * 3 - (len(obj) - len(obj.rstrip("=")))
    n = math.isqrt(size // 16)
    if n < 1 or size != 16 * n * n:
        raise ValueError(f"packed matrix holds {size} bytes, not 16 n^2 for an integer n >= 1")
    return n


def matrix_from_json(obj) -> np.ndarray:
    """The n x n complex matrix of ``obj``: a packed string (16 n^2 bytes of
    valid base64), or n rows of n [re, im] cells, each holding exactly two
    JSON numbers (booleans are not numbers) within double range."""
    if isinstance(obj, str):
        n = matrix_json_dim(obj)
        try:
            raw = base64.b64decode(obj, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ValueError(f"packed matrix is not base64: {exc}") from exc
        return np.frombuffer(raw, "<c16").reshape(n, n).astype(complex)
    try:
        n = len(obj)
        cells = list(chain.from_iterable(obj))
        shaped = set(map(len, obj)) == {n} and set(map(len, cells)) == {2}
    except TypeError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if not shaped:
        raise ValueError("matrix JSON is not n rows of n [re, im] cells")
    parts = list(chain.from_iterable(cells))
    if not set(map(type, parts)) <= {int, float}:
        raise ValueError("matrix JSON cells must hold two numbers")
    try:
        values = np.array(parts, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"matrix JSON entry out of double range: {exc}") from exc
    return values.view(complex).reshape(n, n)


def density_to_json(state: DensityState) -> dict:
    return {"dim": state.dim, "rho": matrix_to_json(state.rho)}


def density_from_json(obj, key: str = "rho") -> DensityState:
    """The state of the matrix ``obj[key]``; ``obj``'s "dim", if any, must be
    a JSON integer (not a boolean) and its dimension."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"density JSON must be an object carrying a '{key}' field")
    rho = matrix_from_json(obj[key])
    dim = obj.get("dim", rho.shape[0])
    if type(dim) is not int:  # "4", 4.0, true, null
        raise ValueError(f"declared dim {dim!r} is not an integer")
    if dim != rho.shape[0]:
        raise ValueError(
            f"declared dim {dim} does not match matrix dim {rho.shape[0]}"
        )
    return DensityState.from_matrix(rho)


def spec_to_json(spec: GeneratorSpec) -> dict:
    return {
        "dim": spec.dim,
        "sigma": matrix_to_json(spec.sigma.rho),
        "jumps": [
            {"V": matrix_to_json(v), "omega": float(w)} for v, w in spec.jumps
        ],
    }


def spec_from_json(obj) -> GeneratorSpec:
    """The spec of ``obj``, admitted by :class:`GeneratorSpec`; its "dim",
    if any, must be sigma's, and each omega a JSON number (not a boolean)."""
    if not isinstance(obj, dict) or "sigma" not in obj or "jumps" not in obj:
        raise ValueError("spec JSON must be an object carrying 'sigma' and 'jumps'")
    if not isinstance(obj["jumps"], list):
        raise ValueError("spec JSON 'jumps' must be a list")
    sigma = density_from_json(obj, "sigma")
    jumps = []
    for k, j in enumerate(obj["jumps"]):
        if not isinstance(j, dict) or "V" not in j or type(j.get("omega")) not in (int, float):
            raise ValueError(f"jump {k} must be an object carrying 'V' and a number 'omega'")
        jumps.append((matrix_from_json(j["V"]), float(j["omega"])))
    return GeneratorSpec(sigma, jumps)


def rate_matrix_to_json(rate: RateMatrix, extra: dict | None = None) -> dict:
    out = {
        "size": rate.size,
        "rates": [[float(x) for x in row] for row in rate.rates],
        "stationary": [float(x) for x in rate.stationary],
        "detailed_balance_residual": rate.detailed_balance_residual(),
        "row_sum_residual": rate.row_sum_residual(),
    }
    if extra:
        out.update(extra)
    return out


def trajectory_to_csv(rows) -> str:
    lines = ["t,entropy,production,exp_bound,production_bound"]
    for r in rows:
        eb = "" if r.entropy_bound is None else repr(r.entropy_bound)
        pb = "" if r.production_bound is None else repr(r.production_bound)
        lines.append(f"{r.t!r},{r.entropy!r},{r.production!r},{eb},{pb}")
    return "\n".join(lines) + "\n"


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str):
    """Write through a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qmsflow-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
