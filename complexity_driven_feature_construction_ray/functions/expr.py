"""The feature algebra: expression trees, complexity, properties, applicability.

Re-creates the semantics of the reference's CandidateFeature /
Transformation hierarchy (reference: new_project/fastsklearnfeature/
candidates/CandidateFeature.py:13-31, transformations/*.py) as plain
dataclasses compiled to vectorized kernels — NOT sklearn pipelines.

Complexity invariant (reference CandidateFeature.py:168-176):
    complexity(raw) = 1
    complexity(op(parents)) = sum(complexity(p)) + 1
    complexity(identity-concat) = sum only (the +0 combination)

Applicability predicates mirror the reference's static pruning
(reference transformations/NumericUnaryTransformation.py:10-18,
LogTransformation.py:19-26, NonCommutativeBinaryTransformation.py:26-27,
MinMaxScalingTransformation.py:31-35, PandasDiscretizerTransformation.py:41-42,
FastGroupByThenTransformation.py:46-50).

Property propagation mirrors the analytic derive_properties rules
(reference transformations/Transformation.py:47-65 and per-op overrides).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

# ---------------------------------------------------------------------------
# op registry

# stateless unary numeric -> numeric
STATELESS_UNARY = ("minus", "reciprocal", "log")
# fitted unary (state learned on the train fold); the three impute
# strategies mirror reference ImputationTransformation.py:35-50
# (sklearn SimpleImputer mean / median / most_frequent)
FITTED_UNARY = ("minmax", "zscore", "impute_mean", "impute_median", "impute_mode", "discretize", "mdlp", "winsor", "robust", "ranknorm", "qcut", "boxcox", "yeojohnson")
SCALER_OPS = ("minmax", "zscore", "robust", "ranknorm")  # no re-scaling of scaled data
UNARY_OPS = STATELESS_UNARY + FITTED_UNARY
IMPUTE_OPS = ("impute_mean", "impute_median", "impute_mode")

# binary stateless row-wise; add/mul are the reference's nansum/nanprod
COMMUTATIVE_BINARY = ("add", "mul")
NONCOMMUTATIVE_BINARY = ("sub", "div")
BINARY_OPS = COMMUTATIVE_BINARY + NONCOMMUTATIVE_BINARY

# grouped aggregates (reference FastGroupByThenTransformation +
# generators/GroupByThenGenerator.py:140-149)
GBT_AGGS = ("max", "min", "mean", "std", "count", "sum", "var", "prod", "median")

DISCRETIZE_BINS = 10

# ---------------------------------------------------------------------------
# user extension surface (SURVEY.md §2.7c): register new ops with their
# kernel / fit / applicability / property / sympy hooks — the analog of
# subclassing the reference's Transformation
# (reference transformations/Transformation.py:7-83)

CUSTOM_OPS: dict[str, dict] = {}


def register_op(
    name: str,
    *,
    kernel,
    arity: int = 1,
    fit=None,
    applicable=None,
    properties=None,
    sympy_builder=None,
    name_fmt=None,
) -> None:
    """Register a custom operator.

    kernel(args: list[np.ndarray], feature, state) -> np.ndarray
    fit(parent_arrays: list[np.ndarray], y) -> tuple   (stateful ops only;
        distributed fitting uses the sample path, like MDLP)
    applicable(parents) -> bool         (default: all-numeric)
    properties(feature) -> dict         (default: unknown range)
    sympy_builder(feature, child_exprs) -> sympy expr (default: opaque fn)
    name_fmt(feature, parent_names) -> str
    """
    CUSTOM_OPS[name] = {
        "kernel": kernel,
        "arity": arity,
        "fit": fit,
        "applicable": applicable,
        "properties": properties,
        "sympy_builder": sympy_builder,
        "name_fmt": name_fmt,
    }


def registry_snapshot() -> dict | None:
    """The driver's registry, to ship to worker processes with a task
    (specs travel via cloudpickle); None when nothing is registered."""
    return dict(CUSTOM_OPS) or None


def install_registry(snapshot: dict | None) -> None:
    """Make a driver snapshot AUTHORITATIVE in this worker process: warm
    Ray workers outlive a run, so stale entries from a previous run
    (same name, different implementation, or a name the new run expects
    absent) must not leak into this run's kernels."""
    snap = snapshot or {}
    for k in [k for k in CUSTOM_OPS if k not in snap]:
        del CUSTOM_OPS[k]
    CUSTOM_OPS.update(snap)


def custom(op: str, *parents: Feature, params: tuple = ()) -> Feature:
    spec = CUSTOM_OPS[op]
    assert len(parents) == spec["arity"], (op, len(parents))
    f = Feature(op, tuple(parents), params)
    f.properties.update(derive_properties(f))
    return f


@dataclass(frozen=True)
class Feature:
    """A node in the feature-expression DAG.

    op: 'raw' | unary | binary | 'onehot' | 'gbt_<agg>' | 'identity'
    parents: operand features ((value, key) for gbt; any arity for identity)
    params: op parameters (raw: (column, dtype); onehot: (value,))
    """

    op: str
    parents: tuple["Feature", ...] = ()
    params: tuple = ()
    properties: dict = field(default_factory=dict, compare=False, hash=False)

    # -- identity / naming ---------------------------------------------------

    @functools.cached_property
    def name(self) -> str:
        # computed once per node: the tree is immutable
        return _name(self)

    @property
    def complexity(self) -> int:
        if self.op == "raw":
            return 1
        base = sum(p.complexity for p in self.parents)
        return base if self.op == "identity" else base + 1

    @property
    def depth(self) -> int:
        if self.op == "raw":
            return 1
        return 1 + max(p.depth for p in self.parents)

    def walk(self):
        """Post-order traversal (parents before self)."""
        for p in self.parents:
            yield from p.walk()
        yield self

    def __repr__(self) -> str:  # pragma: no cover
        return f"Feature({self.name!r}, c={self.complexity})"


def _name(f: Feature) -> str:
    if f.op == "raw":
        return f.params[0]
    ps = [p.name for p in f.parents]
    if f.op == "minus":
        return f"(-1*{ps[0]})"
    if f.op == "reciprocal":
        return f"(1/{ps[0]})"
    if f.op == "log":
        return f"log({ps[0]})"
    if f.op == "winsor":
        lo, hi = f.params or (0.05, 0.95)
        return f"winsor[{lo},{hi}]({ps[0]})"
    if f.op == "qcut":
        (b,) = f.params or (DISCRETIZE_BINS,)
        return f"qcut[{b}]({ps[0]})"
    if f.op in FITTED_UNARY:
        return f"{f.op}({ps[0]})"
    if f.op == "npfun":
        return f"np.{f.params[0]}({ps[0]})"
    if f.op == "dummy_one":
        return f"one({ps[0]})"
    if f.op == "onehot":
        return f"onehot({ps[0]}={f.params[0]})"
    if f.op in ("add", "mul"):
        sym = "+" if f.op == "add" else "*"
        return "(" + sym.join(sorted(ps)) + ")"
    if f.op == "sub":
        return f"({ps[0]}-{ps[1]})"
    if f.op == "div":
        return f"({ps[0]}/{ps[1]})"
    if f.op.startswith("gbt_"):
        return f"{f.op[4:]}({ps[0]} by {ps[1]})"
    if f.op == "target_encode":
        (m,) = f.params or (20.0,)
        return f"tenc[{m:g}]({ps[0]} by {ps[1]})"
    if f.op == "identity":
        return "{" + ", ".join(sorted(ps)) + "}"
    if f.op in CUSTOM_OPS:
        fmt = CUSTOM_OPS[f.op]["name_fmt"]
        return fmt(f, ps) if fmt else f"{f.op}({', '.join(ps)})"
    raise ValueError(f"unknown op {f.op}")


# -- constructors -----------------------------------------------------------


def raw(column: str, dtype: str = "numeric", properties: dict | None = None) -> Feature:
    """Leaf feature over a physical column. dtype: 'numeric' | 'categorical'."""
    f = Feature("raw", (), (column, dtype))
    f.properties.update(
        {"type": dtype, "missing_values": False, "has_zero": dtype != "numeric"}
    )
    if properties:
        f.properties.update(properties)
    return f


def unary(op: str, parent: Feature) -> Feature:
    assert op in UNARY_OPS, op
    f = Feature(op, (parent,))
    f.properties.update(derive_properties(f))
    return f


def binary(op: str, a: Feature, b: Feature) -> Feature:
    assert op in BINARY_OPS, op
    if op in COMMUTATIVE_BINARY and b.name < a.name:
        a, b = b, a  # canonical operand order for commutative ops
    f = Feature(op, (a, b))
    f.properties.update(derive_properties(f))
    return f


def groupbythen(agg: str, value: Feature, key: Feature) -> Feature:
    assert agg in GBT_AGGS, agg
    f = Feature(f"gbt_{agg}", (value, key))
    f.properties.update(derive_properties(f))
    return f


def onehot(parent: Feature, value: Any) -> Feature:
    f = Feature("onehot", (parent,), (value,))
    f.properties.update(derive_properties(f))
    return f


def npfunc(fname: str, parent: Feature) -> Feature:
    """Arbitrary numpy ufunc by name (reference
    NumericFunctionTransformation.py:1-8)."""
    assert hasattr(__import__("numpy"), fname), fname
    f = Feature("npfun", (parent,), (fname,))
    f.properties.update(derive_properties(f))
    return f


def dummy_one(parent: Feature) -> Feature:
    """Constant-1 baseline probe (reference DummyOneTransformation.py:11-12)."""
    f = Feature("dummy_one", (parent,))
    f.properties.update(derive_properties(f))
    return f


def robust_scale(parent: Feature) -> Feature:
    """Robust scaling: (x - median) / IQR, both learned on the train
    fold via the mergeable weighted-value sketch (SQL percentile_disc
    semantics for the three quartiles — NOT sklearn's interpolated
    quantiles, documented so the DuckDB oracle is exact). sklearn
    RobustScaler analog; outlier-insensitive sibling of minmax/zscore."""
    f = Feature("robust", (parent,))
    f.properties.update(derive_properties(f))
    return f


def rank_normalize(parent: Feature) -> Feature:
    """Rank/CDF transform: x -> P(train value <= x), i.e. SQL
    cume_dist() over the train distribution — the distribution-free
    normalization (sklearn QuantileTransformer with a uniform output,
    minus the interpolation). Fit state is the (sorted values,
    cumulative weights) table from the mergeable sketch; exact while
    per-(batch) distinct counts stay under the sketch cap."""
    f = Feature("ranknorm", (parent,))
    f.properties.update(derive_properties(f))
    return f


def target_encode(value: Feature, key: Feature, m: float = 20.0) -> Feature:
    """Smoothed target (mean) encoding of `key` by `value`:
    enc(k) = (sum_k + m * global_mean) / (count_k + m)
    (Micci-Barreca 2001 empirical-Bayes shrinkage; the m
    pseudo-observations pull rare categories toward the global mean).
    Unseen keys at apply time get the global mean. Fits through the
    same mergeable per-key partials as GroupByThen."""
    assert m >= 0.0, m
    f = Feature("target_encode", (value, key), (float(m),))
    f.properties.update(derive_properties(f))
    return f


def quantile_discretize(parent: Feature, bins: int = DISCRETIZE_BINS) -> Feature:
    """Equal-FREQUENCY binning (pd.qcut analog): bin edges are the
    train fold's 1/bins..(bins-1)/bins discrete quantiles from the
    mergeable sketch, applied with right-closed intervals like
    `discretize`. The skew-robust sibling of the equal-width
    PandasDiscretizer; heavy ties collapse bins rather than splitting
    a value across bins (percentile_disc semantics, SQL-oracle exact)."""
    assert bins >= 2, bins
    f = Feature("qcut", (parent,), (int(bins),))
    f.properties.update(derive_properties(f))
    return f


def winsorize(parent: Feature, q_lo: float = 0.05, q_hi: float = 0.95) -> Feature:
    """Quantile-clip (winsorize): clip to the train fold's discrete
    [q_lo, q_hi] quantiles (SQL percentile_disc semantics). A curation-
    era extension op — not in the reference's producer set, so it joins
    the algebra but not the default search space."""
    assert 0.0 <= q_lo < q_hi <= 1.0, (q_lo, q_hi)
    f = Feature("winsor", (parent,), (q_lo, q_hi))
    f.properties.update(derive_properties(f))
    return f


def box_cox(parent: Feature) -> Feature:
    """Box-Cox power transform (Box & Cox 1964): y = (x^λ - 1)/λ
    (ln x at λ = 0) with λ chosen on the train fold by maximizing the
    profile log-likelihood -n/2·ln σ²(y_λ) + (λ-1)·Σ ln x over the
    fixed grid λ ∈ {-2, -1.8, …, 2}. The fit is a mergeable streaming
    aggregate (per-λ sum/sumsq partials + Σ ln x); ties break to the
    smallest λ so the distributed and SQL fits agree exactly. Requires
    strictly positive input, like log."""
    f = Feature("boxcox", (parent,))
    f.properties.update(derive_properties(f))
    return f


def yeo_johnson(parent: Feature) -> Feature:
    """Yeo-Johnson power transform (Yeo & Johnson 2000): the Box-Cox
    sibling defined on the whole real line, with lambda chosen on the
    train fold by the same grid profile log-likelihood
    -n/2·ln σ²(ψ_λ) + (λ-1)·Σ sign(x)·ln(|x|+1). Mergeable streaming
    fit; applicable to any numeric input (no positivity needed)."""
    f = Feature("yeojohnson", (parent,))
    f.properties.update(derive_properties(f))
    return f


def identity(parents: tuple[Feature, ...]) -> Feature:
    # flatten nested identity sets ({A,{B,A}} == {A,B}; reference
    # IdentityTransformation.py:8-31)
    flat: list[Feature] = []
    for p in parents:
        flat.extend(p.parents if p.op == "identity" else (p,))
    uniq = {p.name: p for p in flat}
    f = Feature("identity", tuple(uniq[k] for k in sorted(uniq)))
    f.properties.update({"type": "numeric", "missing_values": False, "has_zero": True})
    return f


# ---------------------------------------------------------------------------
# applicability (static pruning)


def _numeric(f: Feature) -> bool:
    return f.properties.get("type") == "numeric"


def _no_missing(f: Feature) -> bool:
    return not f.properties.get("missing_values", False)


def is_applicable(op: str, parents: tuple[Feature, ...], agg: str | None = None) -> bool:
    if op in UNARY_OPS:
        (p,) = parents
        if not _numeric(p):
            return False
        if op in IMPUTE_OPS:
            # only features WITH missing values (reference ImputationTransformation.py:35-50)
            return p.properties.get("missing_values", False)
        if not _no_missing(p):
            return False
        if op == "minus":
            return True
        if op == "reciprocal":
            return not p.properties.get("has_zero", True)
        if op == "log":
            mn = p.properties.get("min")
            return mn is not None and mn > 0
        if op == "boxcox":
            # like log: the power transform needs strictly positive input
            mn = p.properties.get("min")
            return mn is not None and mn > 0
        if op in SCALER_OPS:
            # no re-scaling of scaled data (reference MinMaxScalingTransformation.py:31-35)
            return p.op not in SCALER_OPS
        if op in ("discretize", "mdlp", "qcut"):
            nd = p.properties.get("distinct")
            if p.op in ("discretize", "mdlp", "qcut", "onehot"):
                return False
            return nd is None or nd > DISCRETIZE_BINS
        return True
    if op in BINARY_OPS:
        a, b = parents
        if not (_numeric(a) and _numeric(b)):
            return False
        if op == "div" and b.properties.get("has_zero", True):
            return False
        return True
    if op in ("npfun", "dummy_one"):
        (p,) = parents
        return _numeric(p)
    if op == "onehot":
        (p,) = parents
        return p.properties.get("type") == "categorical"
    if op.startswith("gbt_") or op in ("gbt", "target_encode"):
        value, key = parents
        if not (_numeric(value) and _no_missing(value)):
            return False
        kd = key.properties.get("distinct")
        ktype = key.properties.get("type")
        if ktype == "categorical":
            return True
        # numeric keys allowed when discrete enough (reference allows any
        # column as key; we bound cardinality for the broadcast re-attach)
        return key.op in ("discretize", "mdlp") or (kd is not None and kd <= 10_000)
    if op == "identity":
        return all(_numeric(p) and _no_missing(p) for p in parents)
    if op in CUSTOM_OPS:
        hook = CUSTOM_OPS[op]["applicable"]
        return hook(parents) if hook else all(_numeric(p) for p in parents)
    raise ValueError(f"unknown op {op}")


# ---------------------------------------------------------------------------
# analytic property propagation


def _corner(vals) -> tuple[float | None, float | None]:
    vals = [v for v in vals if v is not None and not (isinstance(v, float) and math.isnan(v))]
    if not vals:
        return None, None
    return min(vals), max(vals)


def derive_properties(f: Feature) -> dict:
    ps = f.parents
    out: dict[str, Any] = {"type": "numeric", "missing_values": any(
        p.properties.get("missing_values", False) for p in ps
    )}
    mn = [p.properties.get("min") for p in ps]
    mx = [p.properties.get("max") for p in ps]

    def set_range(lo, hi):
        out["min"], out["max"] = lo, hi
        if lo is not None and hi is not None:
            out["has_zero"] = lo <= 0.0 <= hi
        else:
            out["has_zero"] = True  # conservative

    if f.op == "minus":
        set_range(None if mx[0] is None else -mx[0], None if mn[0] is None else -mn[0])
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op == "reciprocal":
        if mn[0] is not None and mx[0] is not None and (mn[0] > 0 or mx[0] < 0):
            set_range(1.0 / mx[0], 1.0 / mn[0])
        else:
            set_range(None, None)
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op == "log":
        set_range(
            None if mn[0] is None or mn[0] <= 0 else math.log(mn[0]),
            None if mx[0] is None or mx[0] <= 0 else math.log(mx[0]),
        )
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op == "minmax":
        set_range(0.0, 1.0)
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op in ("zscore", "robust", "boxcox", "yeojohnson"):
        set_range(None, None)
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op == "ranknorm":
        set_range(0.0, 1.0)
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op == "target_encode":
        # shrinkage keeps the encoding inside the value parent's range
        set_range(mn[0], mx[0])
        out["missing_values"] = False
    elif f.op in ("impute_mean", "impute_median", "impute_mode"):
        out["missing_values"] = False
        set_range(mn[0], mx[0])
    elif f.op == "npfun":
        set_range(None, None)
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op == "dummy_one":
        set_range(1.0, 1.0)
        out["distinct"] = 1
        out["missing_values"] = False
    elif f.op == "winsor":
        # clipping can only shrink the range
        set_range(mn[0], mx[0])
        out["distinct"] = ps[0].properties.get("distinct")
    elif f.op in ("discretize", "mdlp"):
        set_range(-1.0, float(DISCRETIZE_BINS - 1))
        out["distinct"] = DISCRETIZE_BINS + 1
    elif f.op == "qcut":
        b = (f.params or (DISCRETIZE_BINS,))[0]
        set_range(-1.0, float(b - 1))
        out["distinct"] = b + 1
    elif f.op == "onehot":
        set_range(0.0, 1.0)
        out["distinct"] = 2
        out["missing_values"] = False
    elif f.op == "add":
        lo = None if mn[0] is None or mn[1] is None else mn[0] + mn[1]
        hi = None if mx[0] is None or mx[1] is None else mx[0] + mx[1]
        set_range(lo, hi)
    elif f.op == "sub":
        lo = None if mn[0] is None or mx[1] is None else mn[0] - mx[1]
        hi = None if mx[0] is None or mn[1] is None else mx[0] - mn[1]
        set_range(lo, hi)
    elif f.op == "mul":
        if None in (mn[0], mx[0], mn[1], mx[1]):
            set_range(None, None)
        else:
            lo, hi = _corner([mn[0] * mn[1], mn[0] * mx[1], mx[0] * mn[1], mx[0] * mx[1]])
            set_range(lo, hi)
    elif f.op == "div":
        if None in (mn[0], mx[0], mn[1], mx[1]) or (mn[1] <= 0 <= mx[1]):
            set_range(None, None)
        else:
            lo, hi = _corner([mn[0] / mn[1], mn[0] / mx[1], mx[0] / mn[1], mx[0] / mx[1]])
            set_range(lo, hi)
    elif f.op.startswith("gbt_"):
        agg = f.op[4:]
        vmn, vmx = ps[0].properties.get("min"), ps[0].properties.get("max")
        if agg in ("max", "min", "mean", "median"):
            # inherits the value parent's range (reference
            # FastGroupByThenTransformation.py:88-107)
            set_range(vmn, vmx)
        elif agg in ("std", "var"):
            set_range(0.0, None)
        elif agg == "count":
            set_range(1.0, None)
            out["has_zero"] = False
        else:
            set_range(None, None)
        out["missing_values"] = False
    elif f.op == "identity":
        set_range(None, None)
    elif f.op in CUSTOM_OPS:
        hook = CUSTOM_OPS[f.op]["properties"]
        if hook:
            out.update(hook(f))
        else:
            set_range(None, None)
    return out
