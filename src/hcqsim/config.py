"""Strict JSON scenario configuration.

Every key is validated and unknown keys are rejected with their dotted
path, so a config accepted here never violates a module invariant later.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .control import ControlBounds, CostWeights, StateSpaceModel
from .hybriddb import DEFAULT_METADATA_BYTES, DEFAULT_SCALE, BackendLatency, CorpusSpec
from .netsim import CONTROL_LABEL, LinkSpec
from .traffic import (
    AppKind,
    ClassProfile,
    SizeDistribution,
    TrafficClassLabel,
    TrafficProfile,
    ZoneClass,
    canonical_class_order,
)

IDENTIFY_FROM_WARMUP = "identify-from-warmup"
MODES = ("open", "closed", "both")


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _finite(v, path: str) -> float:
    # json accepts the literals NaN and Infinity, and 1e400 overflows to inf.
    if not math.isfinite(v):
        raise ConfigError(path, f"must be a finite number, got {v!r}")
    return float(v)


class _Node:
    """One JSON object being consumed key by key; leftovers are errors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self._data = dict(data)
        self.path = path

    def _pop(self, key, required, default):
        if key not in self._data:
            if required:
                raise ConfigError(f"{self.path}.{key}", "missing required key")
            return default
        return self._data.pop(key)

    def take_str(self, key, required=True, default=None, choices=None):
        v = self._pop(key, required, default)
        if v is None and not required:
            return default
        if not isinstance(v, str):
            raise ConfigError(f"{self.path}.{key}", f"expected a string, got {v!r}")
        if choices is not None and v not in choices:
            raise ConfigError(f"{self.path}.{key}", f"must be one of {list(choices)}, got {v!r}")
        return v

    def take_int(self, key, required=True, default=None):
        v = self._pop(key, required, default)
        if v is None and not required:
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{self.path}.{key}", f"expected an integer, got {v!r}")
        return v

    def take_number(self, key, required=True, default=None):
        v = self._pop(key, required, default)
        if v is None and not required:
            return default
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{self.path}.{key}", f"expected a number, got {v!r}")
        return _finite(v, f"{self.path}.{key}")

    def take_bool(self, key, required=True, default=None):
        v = self._pop(key, required, default)
        if v is None and not required:
            return default
        if not isinstance(v, bool):
            raise ConfigError(f"{self.path}.{key}", f"expected a boolean, got {v!r}")
        return v

    def peek(self, key, default=None):
        """The value under key, left in place for a later take_*."""
        return self._data.get(key, default)

    def take_raw(self, key, required=True, default=None):
        return self._pop(key, required, default)

    def child(self, key, required=True) -> Optional["_Node"]:
        v = self._pop(key, required, None)
        if v is None:
            return None
        return _Node(v, f"{self.path}.{key}")

    def child_list(self, key) -> list["_Node"]:
        v = self._pop(key, True, None)
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


@dataclass
class ControllerConfig:
    identify: bool
    model: Optional[StateSpaceModel]  # fixed, under control_bounds; None to identify
    warmup_epochs: int
    excitation_seed: int
    horizon: int
    grid: int
    weights: CostWeights
    control_message_bytes: int
    control_bounds: ControlBounds


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
        labels = set(self.traffic.labels())
        needs_closed = self.mode in ("closed", "both")
        if needs_closed and self.controller and self.controller.control_message_bytes > 0:
            labels.add(CONTROL_LABEL)
        return canonical_class_order(labels)

    def duration_s(self) -> float:
        return self.n_epochs * self.link.epoch_s

    def with_overrides(self, seed=None, mode=None, output_dir=None, scale=None) -> "ScenarioConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if mode is not None:
            if mode not in MODES:
                raise ConfigError("mode", f"must be one of {list(MODES)}, got {mode!r}")
            cfg = replace(cfg, mode=mode)
        if output_dir is not None:
            cfg = replace(cfg, output_dir=output_dir)
        if scale is not None:
            if cfg.hybrid_db is None:
                raise ConfigError("hybrid_db", "--scale given but config has no hybrid_db section")
            spec = _scaled(cfg.hybrid_db.corpus_spec, scale, "hybrid_db.scale")
            cfg = replace(cfg, hybrid_db=replace(cfg.hybrid_db, corpus_spec=spec))
        return cfg


def _parse_size_dist(node: _Node) -> SizeDistribution:
    family = node.take_str("family", choices=("fixed", "uniform", "exponential", "lognormal"))
    kwargs = {}
    if family == "fixed":
        kwargs["size_bytes"] = node.take_number("size_bytes")
    elif family == "uniform":
        kwargs["low"] = node.take_number("low")
        kwargs["high"] = node.take_number("high")
    elif family == "exponential":
        kwargs["mean_bytes"] = node.take_number("mean_bytes")
    else:
        kwargs["mean_bytes"] = node.take_number("mean_bytes")
        kwargs["sigma"] = node.take_number("sigma")
    node.finish()
    try:
        return SizeDistribution(family=family, **kwargs)
    except ValueError as exc:
        raise ConfigError(node.path, str(exc)) from None


def _parse_traffic(nodes: list[_Node]) -> TrafficProfile:
    profiles = []
    for node in nodes:
        zc = node.take_str("zone_class", choices=tuple(z.value for z in ZoneClass))
        kind = node.take_str("app_kind", required=False,
                             choices=tuple(k.value for k in AppKind))
        try:
            label = TrafficClassLabel(
                ZoneClass(zc), AppKind(kind) if kind is not None else None
            )
        except ValueError as exc:
            raise ConfigError(node.path, str(exc)) from None
        rate = node.take_number("rate_per_s")
        size = _parse_size_dist(node.child("size"))
        burst = node.take_number("burst_s", required=False, default=1.0)
        idle = node.take_number("idle_s", required=False, default=0.0)
        burst_dist = node.take_str("burst_dist", required=False, default="exponential",
                                   choices=("exponential", "fixed"))
        node.finish()
        try:
            profiles.append(ClassProfile(label, rate, size, burst, idle, burst_dist))
        except ValueError as exc:
            raise ConfigError(node.path, str(exc)) from None
    try:
        return TrafficProfile(tuple(profiles))
    except ValueError as exc:
        raise ConfigError("traffic", str(exc)) from None


def _parse_weights(node: _Node, n: int, m: int) -> CostWeights:
    q_diag = node.take_raw("Q_diag", required=False)
    r_diag = node.take_raw("R_diag", required=False)
    q_full = node.take_raw("Q", required=False)
    r_full = node.take_raw("R", required=False)
    x_ref = _number_list(node.take_raw("x_ref"), f"{node.path}.x_ref", n)
    node.finish()
    if (q_diag is None) == (q_full is None):
        raise ConfigError(node.path, "give exactly one of Q_diag or Q")
    if (r_diag is None) == (r_full is None):
        raise ConfigError(node.path, "give exactly one of R_diag or R")
    Q = np.diag(_number_list(q_diag, f"{node.path}.Q_diag", n)) if q_diag is not None \
        else _matrix(q_full, f"{node.path}.Q", n, n)
    R = np.diag(_number_list(r_diag, f"{node.path}.R_diag", m)) if r_diag is not None \
        else _matrix(r_full, f"{node.path}.R", m, m)
    try:
        return CostWeights(Q=Q, R=R, x_ref=np.array(x_ref))
    except ValueError as exc:
        raise ConfigError(node.path, str(exc)) from None


def _parse_controller(node: _Node, k: int) -> ControllerConfig:
    n, m = 2 * k, k
    raw_umax = node.take_raw("u_max", required=False, default=None)
    if raw_umax is None:
        u_max = (1.0,) * m
    elif isinstance(raw_umax, (int, float)) and not isinstance(raw_umax, bool):
        u_max = (_finite(raw_umax, f"{node.path}.u_max"),) * m
    else:
        u_max = tuple(_number_list(raw_umax, f"{node.path}.u_max", m))
    try:
        control_bounds = ControlBounds((0.0,) * m, u_max)
    except ValueError as exc:
        raise ConfigError(f"{node.path}.u_max", str(exc)) from None
    raw_model = node.take_raw("model")
    identify = False
    model = None
    if raw_model == IDENTIFY_FROM_WARMUP:
        identify = True
    elif isinstance(raw_model, dict):
        mnode = _Node(raw_model, f"{node.path}.model")
        A = _matrix(mnode.take_raw("A"), f"{mnode.path}.A", n, n)
        B = _matrix(mnode.take_raw("B"), f"{mnode.path}.B", n, m)
        mnode.finish()
        try:
            model = StateSpaceModel(A, B, control_bounds=control_bounds)
        except ValueError as exc:
            raise ConfigError(mnode.path, str(exc)) from None
    else:
        raise ConfigError(
            f"{node.path}.model",
            f'expected "{IDENTIFY_FROM_WARMUP}" or an object with A and B, got {raw_model!r}',
        )
    warmup = node.take_int("warmup_epochs", required=identify, default=0)
    if identify and warmup < n + m + 2:
        raise ConfigError(f"{node.path}.warmup_epochs",
                          f"need at least {n + m + 2} warmup epochs to identify a "
                          f"{n}x{m} model, got {warmup}")
    excitation_seed = node.take_int("excitation_seed", required=False, default=1)
    horizon = node.take_int("horizon", required=False, default=3)
    grid = node.take_int("grid", required=False, default=11)
    if horizon < 1:
        raise ConfigError(f"{node.path}.horizon", f"must be >= 1, got {horizon}")
    if grid < 2:
        raise ConfigError(f"{node.path}.grid", f"must be >= 2, got {grid}")
    msg_bytes = node.take_int("control_message_bytes", required=False, default=0)
    if msg_bytes < 0:
        raise ConfigError(f"{node.path}.control_message_bytes", f"must be >= 0, got {msg_bytes}")
    weights = _parse_weights(node.child("weights"), n, m)
    node.finish()
    return ControllerConfig(
        identify=identify,
        model=model,
        warmup_epochs=warmup,
        excitation_seed=excitation_seed,
        horizon=horizon,
        grid=grid,
        weights=weights,
        control_message_bytes=msg_bytes,
        control_bounds=control_bounds,
    )


def _scaled(spec: CorpusSpec, scale: float, path: str) -> CorpusSpec:
    """spec at another scale; an invalid scale is a ConfigError at path."""
    try:
        return replace(spec, scale=scale)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_hybrid_db(node: _Node) -> HybridDbConfig:
    scale = node.take_number("scale", required=False, default=DEFAULT_SCALE)
    meta_bytes = node.take_int("metadata_bytes_per_article", required=False,
                               default=DEFAULT_METADATA_BYTES)
    corpus_seed = node.take_int("corpus_seed", required=False, default=0)
    n_queries = node.take_int("n_queries")
    query_seed = node.take_int("query_seed", required=False, default=0)
    query_start = node.take_number("query_start_s", required=False, default=0.0)
    parallel = node.take_bool("parallel_fetch", required=False, default=False)
    bnode = node.child("backends")
    kwargs = {f.name: bnode.take_number(f.name) for f in fields(BackendLatency)}
    bnode.finish()
    node.finish()
    if n_queries < 1:
        raise ConfigError(f"{node.path}.n_queries", f"must be >= 1, got {n_queries}")
    if query_start < 0:
        raise ConfigError(f"{node.path}.query_start_s", f"must be >= 0, got {query_start}")
    try:
        backends = BackendLatency(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{node.path}.backends", str(exc)) from None
    try:
        spec = CorpusSpec(DEFAULT_SCALE, meta_bytes, corpus_seed)
    except ValueError as exc:
        raise ConfigError(f"{node.path}.metadata_bytes_per_article", str(exc)) from None
    spec = _scaled(spec, scale, f"{node.path}.scale")
    return HybridDbConfig(
        corpus_spec=spec,
        backends=backends,
        n_queries=n_queries,
        query_seed=query_seed,
        query_start_s=query_start,
        parallel_fetch=parallel,
    )


def parse_config(data, source: str = "config") -> ScenarioConfig:
    root = _Node(data, source)
    scenario_id = root.take_str("scenario_id")
    seed = root.take_int("seed", required=False, default=0)
    n_epochs = root.take_int("n_epochs")
    if n_epochs < 1:
        raise ConfigError(f"{source}.n_epochs", f"must be >= 1, got {n_epochs}")
    mode = root.take_str("mode", required=False, default="both", choices=MODES)
    output_dir = root.take_str("output_dir", required=False, default=None)

    lnode = root.child("link")
    link_kwargs = {
        "capacity_bps": lnode.take_number("capacity_bps"),
        "queue_capacity_bytes": lnode.take_int("queue_capacity_bytes"),
        "propagation_delay_s": lnode.take_number("propagation_delay_s", required=False,
                                                 default=0.0),
        "epoch_s": lnode.take_number("epoch_s", required=False, default=1.0),
    }
    lnode.finish()
    try:
        link = LinkSpec(**link_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}.link", str(exc)) from None

    traffic = _parse_traffic(root.child_list("traffic"))

    controller = None
    cnode = root.child("controller", required=False)
    needs_controller = mode in ("closed", "both")
    if cnode is not None:
        labels = set(traffic.labels())
        # peek: overhead adds the control class, changing the dimensions
        msg_peek = cnode.peek("control_message_bytes", 0)
        if isinstance(msg_peek, int) and msg_peek > 0:
            labels.add(CONTROL_LABEL)
        controller = _parse_controller(cnode, len(labels))
    elif needs_controller:
        raise ConfigError(f"{source}.controller",
                          f'mode "{mode}" requires a controller section')

    hybrid = None
    hnode = root.child("hybrid_db", required=False)
    if hnode is not None:
        hybrid = _parse_hybrid_db(hnode)

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
