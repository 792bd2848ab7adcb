"""Strict JSON scenario configuration.

Every key is validated and unknown keys are rejected with their dotted
path, so a config accepted here never violates a module invariant later.
Each rule below is a ConfigError at the key's dotted path, such as
``config.traffic[0].size.mean_bytes``:

- an absent required key is "missing required key";
- a value of the wrong type is "expected a string|an integer|a number|a
  boolean, got <value>", and null is such a value, except where absence
  means "no value" (app_kind, output_dir, u_max, Q, Q_diag, R, R_diag,
  controller and hybrid_db): there null reads as absent;
- a number must be finite ("must be a finite number"): json accepts the
  literals NaN and Infinity, and 1e400 overflows to inf;
- a value outside a fixed set is "must be one of [...], got <value>";
- a value below a lower bound is "must be >= N, got <value>";
- an object the values build (a LinkSpec, a SizeDistribution, ...) that
  refuses them reports its own message at the object's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .control import (ControlBounds, CostWeights, StateSpaceModel, check_grid_size,
                      check_horizon, structural_model)
from .hybriddb import DEFAULT_METADATA_BYTES, DEFAULT_SCALE, QUERY_LABEL, BackendLatency, CorpusSpec
from .netsim import CONTROL_LABEL, LinkSpec, check_epoch_count
from .traffic import (
    AppKind,
    ClassProfile,
    SizeDistribution,
    TrafficClassLabel,
    TrafficProfile,
    ZoneClass,
    canonical_class_order,
    check_flow_count,
)

IDENTIFY_FROM_WARMUP = "identify-from-warmup"
MODEL_KINDS = (IDENTIFY_FROM_WARMUP, "structural")
MODES = ("open", "closed", "both")

# Each size family's parameters, in the order the family reads them.
_SIZE_PARAMS = {
    "fixed": ("size_bytes",),
    "uniform": ("low", "high"),
    "exponential": ("mean_bytes",),
    "lognormal": ("mean_bytes", "sigma"),
}
_REQUIRED = object()
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _finite(v, path: str) -> float:
    if not math.isfinite(v):
        raise ConfigError(path, f"must be a finite number, got {v!r}")
    return float(v)


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a ConfigError at path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


class _Node:
    """One JSON object being consumed key by key; leftovers are errors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self._data = dict(data)
        self.path = path

    def take(self, key, kind, default=_REQUIRED, choices=None, at_least=None):
        """The checked value under key, or default when the key is absent.

        kind is str, int, bool, float (any finite number, returned as a
        float) or object (any value, for the caller to check). Without a
        default the key is required; null reads as absent only where the
        default is None.
        """
        path = f"{self.path}.{key}"
        if key not in self._data:
            if default is _REQUIRED:
                raise ConfigError(path, "missing required key")
            return default
        v = self._data.pop(key)
        if v is None and default is None:
            return None
        if kind is not object:
            accepted = (int, float) if kind is float else kind
            if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
                raise ConfigError(path, f"expected {_KIND_NAMES[kind]}, got {v!r}")
        if kind is float:
            v = _finite(v, path)
        if choices is not None and v not in choices:
            raise ConfigError(path, f"must be one of {list(choices)}, got {v!r}")
        if at_least is not None and v < at_least:
            raise ConfigError(path, f"must be >= {at_least}, got {v}")
        return v

    def child(self, key, required=True) -> Optional["_Node"]:
        v = self.take(key, object, _REQUIRED if required else None)
        if v is None and not required:
            return None
        return _Node(v, f"{self.path}.{key}")

    def child_list(self, key) -> list["_Node"]:
        v = self.take(key, object)
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{self.path}.{key}", "expected a non-empty array")
        return [_Node(item, f"{self.path}.{key}[{i}]") for i, item in enumerate(v)]

    def finish(self) -> None:
        if self._data:
            raise ConfigError(self.path, f"unknown key(s): {', '.join(sorted(self._data))}")


def _number_list(raw, path: str, length: Optional[int] = None) -> list[float]:
    if not isinstance(raw, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw
    ):
        raise ConfigError(path, "expected an array of numbers")
    if length is not None and len(raw) != length:
        raise ConfigError(path, f"expected {length} numbers, got {len(raw)}")
    return [_finite(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def _matrix(raw, path: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != rows:
        raise ConfigError(path, f"expected {rows} rows")
    return np.array([_number_list(r, f"{path}[{i}]", cols) for i, r in enumerate(raw)])


def _run_classes(traffic: TrafficProfile, msg_bytes: int) -> tuple[TrafficClassLabel, ...]:
    """A run's classes: the traffic's, plus the control class when control
    messages are sent."""
    labels = set(traffic.labels())
    if msg_bytes > 0:
        labels.add(CONTROL_LABEL)
    return canonical_class_order(labels)


def _require_controller(mode: str, controller, path: str) -> None:
    if controller is None and mode in ("closed", "both"):
        raise ConfigError(path, f'mode "{mode}" requires a controller section')


@dataclass
class ControllerConfig:
    """A parsed controller section. model is the link's structural model
    under control_bounds, or None to identify one from a warmup; only
    identification reads warmup_epochs and excitation_seed."""

    model: Optional[StateSpaceModel]
    warmup_epochs: int
    excitation_seed: int
    horizon: int
    grid: int
    weights: CostWeights
    control_message_bytes: int
    control_bounds: ControlBounds

    @property
    def identify(self) -> bool:
        return self.model is None


@dataclass
class HybridDbConfig:
    corpus_spec: CorpusSpec
    backends: BackendLatency
    n_queries: int
    query_seed: int
    query_start_s: float
    parallel_fetch: bool


@dataclass
class ScenarioConfig:
    scenario_id: str
    seed: int
    n_epochs: int
    mode: str
    link: LinkSpec
    traffic: TrafficProfile
    controller: Optional[ControllerConfig]
    hybrid_db: Optional[HybridDbConfig]
    output_dir: Optional[str]

    def classes(self) -> tuple[TrafficClassLabel, ...]:
        msg_bytes = 0
        if self.mode in ("closed", "both") and self.controller is not None:
            msg_bytes = self.controller.control_message_bytes
        return _run_classes(self.traffic, msg_bytes)

    def duration_s(self) -> float:
        return self.n_epochs * self.link.epoch_s

    def with_overrides(self, seed=None, mode=None, output_dir=None, scale=None) -> "ScenarioConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if mode is not None:
            if mode not in MODES:
                raise ConfigError("mode", f"must be one of {list(MODES)}, got {mode!r}")
            _require_controller(mode, cfg.controller, "controller")
            cfg = replace(cfg, mode=mode)
        if output_dir is not None:
            cfg = replace(cfg, output_dir=output_dir)
        if scale is not None:
            if cfg.hybrid_db is None:
                raise ConfigError("hybrid_db", "--scale given but config has no hybrid_db section")
            spec = _build("hybrid_db.scale", replace, cfg.hybrid_db.corpus_spec, scale=scale)
            cfg = replace(cfg, hybrid_db=replace(cfg.hybrid_db, corpus_spec=spec))
        return cfg


def _parse_size_dist(node: _Node) -> SizeDistribution:
    family = node.take("family", str, choices=tuple(_SIZE_PARAMS))
    kwargs = {key: node.take(key, float) for key in _SIZE_PARAMS[family]}
    node.finish()
    return _build(node.path, SizeDistribution, family=family, **kwargs)


def _parse_traffic(root: _Node) -> TrafficProfile:
    profiles = []
    for node in root.child_list("traffic"):
        zc = node.take("zone_class", str, choices=tuple(z.value for z in ZoneClass))
        kind = node.take("app_kind", str, None, choices=tuple(k.value for k in AppKind))
        label = _build(node.path, TrafficClassLabel,
                       ZoneClass(zc), AppKind(kind) if kind is not None else None)
        rate = node.take("rate_per_s", float)
        size = _parse_size_dist(node.child("size"))
        burst = node.take("burst_s", float, 1.0)
        idle = node.take("idle_s", float, 0.0)
        burst_dist = node.take("burst_dist", str, "exponential", choices=("exponential", "fixed"))
        node.finish()
        profiles.append(_build(node.path, ClassProfile, label, rate, size, burst, idle, burst_dist))
    return _build(f"{root.path}.traffic", TrafficProfile, tuple(profiles))


def _parse_weights(node: _Node, n: int, m: int) -> CostWeights:
    q_diag = node.take("Q_diag", object, None)
    r_diag = node.take("R_diag", object, None)
    q_full = node.take("Q", object, None)
    r_full = node.take("R", object, None)
    x_ref = _number_list(node.take("x_ref", object), f"{node.path}.x_ref", n)
    node.finish()
    if (q_diag is None) == (q_full is None):
        raise ConfigError(node.path, "give exactly one of Q_diag or Q")
    if (r_diag is None) == (r_full is None):
        raise ConfigError(node.path, "give exactly one of R_diag or R")
    Q = np.diag(_number_list(q_diag, f"{node.path}.Q_diag", n)) if q_diag is not None \
        else _matrix(q_full, f"{node.path}.Q", n, n)
    R = np.diag(_number_list(r_diag, f"{node.path}.R_diag", m)) if r_diag is not None \
        else _matrix(r_full, f"{node.path}.R", m, m)
    return _build(node.path, CostWeights, Q=Q, R=R, x_ref=np.array(x_ref))


def _parse_controller(node: _Node, traffic: TrafficProfile, link: LinkSpec) -> ControllerConfig:
    """model "identify-from-warmup" reads warmup_epochs and excitation_seed;
    "structural" is structural_model(k, bytes_per_epoch / queue bytes) under
    the control set, and refuses both keys."""
    # Control messages add the control class, which sizes every matrix below.
    msg_bytes = node.take("control_message_bytes", int, 0, at_least=0)
    k = len(_run_classes(traffic, msg_bytes))
    n, m = 2 * k, k
    umax_path = f"{node.path}.u_max"
    raw_umax = node.take("u_max", object, None)
    if raw_umax is None:
        u_max = (1.0,) * m
    elif isinstance(raw_umax, (int, float)) and not isinstance(raw_umax, bool):
        u_max = (_finite(raw_umax, umax_path),) * m
    else:
        u_max = tuple(_number_list(raw_umax, umax_path, m))
    control_bounds = _build(umax_path, ControlBounds, (0.0,) * m, u_max)
    model, warmup, excitation_seed = None, 0, 1
    # Any other value, an object of A and B included, is refused.
    if node.take("model", object, choices=MODEL_KINDS) == IDENTIFY_FROM_WARMUP:
        warmup = node.take("warmup_epochs", int)
        if warmup < n + m + 2:
            raise ConfigError(f"{node.path}.warmup_epochs",
                              f"need at least {n + m + 2} warmup epochs to identify a "
                              f"{n}x{m} model, got {warmup}")
        _build(f"{node.path}.warmup_epochs", check_epoch_count, warmup)
        excitation_seed = node.take("excitation_seed", int, 1)
    else:
        # A fixed model runs no warmup; its keys, even null, have no effect.
        for key in ("warmup_epochs", "excitation_seed"):
            if node.take(key, object, ...) is not ...:
                raise ConfigError(f"{node.path}.{key}", 'has no effect with model "structural"')
        model = structural_model(k, link.bytes_per_epoch / link.queue_capacity_bytes,
                                 control_bounds)
    horizon = node.take("horizon", int, 3, at_least=1)
    _build(f"{node.path}.horizon", check_horizon, horizon)
    grid = node.take("grid", int, 11, at_least=2)
    _build(f"{node.path}.grid", check_grid_size, m, grid)
    config = ControllerConfig(
        model=model,
        warmup_epochs=warmup,
        excitation_seed=excitation_seed,
        horizon=horizon,
        grid=grid,
        weights=_parse_weights(node.child("weights"), n, m),
        control_message_bytes=msg_bytes,
        control_bounds=control_bounds,
    )
    node.finish()
    return config


def _parse_hybrid_db(node: _Node) -> HybridDbConfig:
    scale = node.take("scale", float, DEFAULT_SCALE)
    spec = _build(f"{node.path}.metadata_bytes_per_article", CorpusSpec, DEFAULT_SCALE,
                  node.take("metadata_bytes_per_article", int, DEFAULT_METADATA_BYTES),
                  node.take("corpus_seed", int, 0))
    bnode = node.child("backends")
    kwargs = {f.name: bnode.take(f.name, float) for f in fields(BackendLatency)}
    bnode.finish()
    config = HybridDbConfig(
        corpus_spec=_build(f"{node.path}.scale", replace, spec, scale=scale),
        backends=_build(f"{node.path}.backends", BackendLatency, **kwargs),
        n_queries=node.take("n_queries", int, at_least=1),
        query_seed=node.take("query_seed", int, 0),
        query_start_s=node.take("query_start_s", float, 0.0, at_least=0),
        parallel_fetch=node.take("parallel_fetch", bool, False),
    )
    node.finish()
    return config


def parse_config(data, source: str = "config") -> ScenarioConfig:
    root = _Node(data, source)
    scenario_id = root.take("scenario_id", str)
    seed = root.take("seed", int, 0)
    n_epochs = root.take("n_epochs", int, at_least=1)
    _build(f"{source}.n_epochs", check_epoch_count, n_epochs)
    mode = root.take("mode", str, "both", choices=MODES)
    output_dir = root.take("output_dir", str, None)

    lnode = root.child("link")
    link_kwargs = {
        "capacity_bps": lnode.take("capacity_bps", float),
        "queue_capacity_bytes": lnode.take("queue_capacity_bytes", int),
        "propagation_delay_s": lnode.take("propagation_delay_s", float, 0.0),
        "epoch_s": lnode.take("epoch_s", float, 1.0),
    }
    lnode.finish()
    link = _build(f"{source}.link", LinkSpec, **link_kwargs)

    traffic = _parse_traffic(root)
    # generate_trace's bound on the expected flow count, at the class that
    # brings the total over it.
    rate = 0
    for i, cp in enumerate(traffic.classes):
        rate += cp.rate_per_s
        _build(f"{source}.traffic[{i}].rate_per_s", check_flow_count, rate,
               n_epochs * link.epoch_s)

    cnode = root.child("controller", required=False)
    controller = _parse_controller(cnode, traffic, link) if cnode is not None else None
    _require_controller(mode, controller, f"{source}.controller")

    hnode = root.child("hybrid_db", required=False)
    hybrid = _parse_hybrid_db(hnode) if hnode is not None else None
    if hybrid is not None:
        # The hybrid run's fetches travel in the query class.
        for i, cp in enumerate(traffic.classes):
            if cp.label == QUERY_LABEL:
                raise ConfigError(f"{source}.traffic[{i}]",
                                  f"uses the query class {QUERY_LABEL}, which hybrid_db "
                                  f"reserves for its fetches")

    root.finish()
    return ScenarioConfig(
        scenario_id=scenario_id,
        seed=seed,
        n_epochs=n_epochs,
        mode=mode,
        link=link,
        traffic=traffic,
        controller=controller,
        hybrid_db=hybrid,
        output_dir=output_dir,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                                     f"{exc.msg}") from None
    return parse_config(data, source=str(path))
